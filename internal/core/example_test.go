package core_test

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
)

func newL1() *cache.Cache {
	return cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 1})
}

// §3.2's headline: a single-entry victim cache captures an alternating
// conflict pair that a single-entry miss cache cannot.
func Example() {
	mc := core.NewMissCache(newL1(), 1, nil, core.DefaultTiming())
	vc := core.NewVictimCache(newL1(), 1, nil, core.DefaultTiming())
	for i := 0; i < 100; i++ {
		for _, addr := range []uint64{0x0000, 0x1000} { // same set, 4KB apart
			mc.Access(addr, false)
			vc.Access(addr, false)
		}
	}
	fmt.Printf("1-entry miss cache full misses:   %d\n", mc.Stats().FullMisses())
	fmt.Printf("1-entry victim cache full misses: %d\n", vc.Stats().FullMisses())
	// Output:
	// 1-entry miss cache full misses:   200
	// 1-entry victim cache full misses: 2
}

// A stream buffer turns a sequential sweep into a single demand miss: the
// buffer prefetches the following lines and supplies each in one cycle.
func ExampleNewStreamBuffer() {
	fe := core.NewStreamBuffer(newL1(), core.StreamConfig{Ways: 1, Depth: 4}, nil,
		core.Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 1, FillInterval: 1})
	for i := 0; i < 1000; i++ {
		fe.Access(uint64(0x100000+i*16), false)
	}
	st := fe.Stats()
	fmt.Printf("demand misses: %d, stream-buffer hits: %d\n", st.FullMisses(), st.StreamHits)
	// Output:
	// demand misses: 1, stream-buffer hits: 999
}
