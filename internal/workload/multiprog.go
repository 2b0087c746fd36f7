package workload

import (
	"fmt"
	"strings"

	"jouppi/internal/memtrace"
)

// Multiprogram combines several benchmarks into one multiprogrammed
// trace: execution rotates round-robin between the programs, switching
// after quantum instructions. Each program's addresses are offset into a
// disjoint region of the (virtual) address space; the offset is a
// multiple of 1TB, so every program keeps its cache-index behaviour while
// the tags differ — processes fight for the same cache sets, exactly the
// effect that erodes locality on context switches.
//
// The paper's §5 lists "the performance of victim caching and stream
// buffers ... for multiprogramming workloads" as future work; this
// combinator provides the workload for that study.
func Multiprogram(quantum int, benches ...Benchmark) Benchmark {
	if quantum <= 0 {
		panic(fmt.Sprintf("workload: non-positive quantum %d", quantum))
	}
	if len(benches) == 0 {
		panic("workload: Multiprogram needs at least one benchmark")
	}
	return multiprog{quantum: quantum, benches: benches}
}

type multiprog struct {
	quantum int
	benches []Benchmark
}

func (m multiprog) Name() string {
	names := make([]string, len(m.benches))
	for i, b := range m.benches {
		names[i] = b.Name()
	}
	return "multi(" + strings.Join(names, "+") + ")"
}

func (m multiprog) Description() string {
	return fmt.Sprintf("multiprogrammed, quantum %d instructions", m.quantum)
}

func (m multiprog) Generate(scale float64, sink memtrace.Sink) {
	const processStride = 1 << 40 // 1TB per process; preserves index bits

	// The processes' traces interleave, so each is generated once up
	// front and replayed from its own cursor.
	srcs := make([]*memtrace.Cursor, len(m.benches))
	for i, b := range m.benches {
		srcs[i] = GenerateTrace(b, scale).Source()
	}

	done := make([]bool, len(srcs))
	remaining := len(srcs)
	for remaining > 0 {
		for p, src := range srcs {
			if done[p] {
				continue
			}
			offset := memtrace.Addr(uint64(p) * processStride)
			instrs := 0
			for instrs < m.quantum {
				a, ok := src.Next()
				if !ok {
					done[p] = true
					remaining--
					break
				}
				if a.Kind == memtrace.Ifetch {
					instrs++
				}
				a.Addr += offset
				sink.Access(a)
			}
		}
	}
}

var _ Benchmark = multiprog{}
