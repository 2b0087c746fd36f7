package sim_test

import (
	"fmt"
	"log"

	"jouppi/sim"
)

// Compare the paper's baseline system against its improved system on the
// alternating-conflict pattern from §3.1.
func Example() {
	base, err := sim.NewSystem(sim.BaselineSystem())
	if err != nil {
		log.Fatal(err)
	}
	improved, err := sim.NewSystem(sim.ImprovedSystem())
	if err != nil {
		log.Fatal(err)
	}

	// Two data buffers whose addresses collide in the 4KB direct-mapped
	// data cache, accessed alternately — the string-comparison scenario.
	for i := 0; i < 1000; i++ {
		for _, sys := range []*sim.System{base, improved} {
			sys.Ifetch(0x100000)
			sys.Load(0x10000040)
			sys.Load(0x10001040) // +4KB: same cache set
		}
	}

	fmt.Printf("baseline D misses: %d\n", base.Results().D.FullMisses)
	fmt.Printf("improved D misses: %d\n", improved.Results().D.FullMisses)
	// Output:
	// baseline D misses: 2000
	// improved D misses: 2
}

// Run one of the paper's benchmarks through a custom configuration.
func ExampleRunBenchmark() {
	cfg := sim.Config{
		D: sim.Augmentation{VictimCacheEntries: 4},
	}
	res, err := sim.RunBenchmark("met", 0.05, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("met victim-cache hits > 0: %v\n", res.D.VictimHits > 0)
	fmt.Printf("met D miss rate below baseline 0.04: %v\n", res.D.MissRate < 0.04)
	// Output:
	// met victim-cache hits > 0: true
	// met D miss rate below baseline 0.04: true
}

// Stream a workload's raw references into custom code — here, counting
// how many distinct 4KB pages the compiler model touches.
func ExampleVisitBenchmark() {
	pages := map[uint64]bool{}
	err := sim.VisitBenchmark("met", 0.02, func(kind sim.AccessKind, addr uint64) {
		if kind != sim.Ifetch {
			pages[addr>>12] = true
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("met touches %d data pages at this scale\n", len(pages))
	// Output:
	// met touches 6 data pages at this scale
}
