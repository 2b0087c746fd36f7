package experiments

import (
	"sync"
	"testing"

	"jouppi/internal/core"
	"jouppi/internal/memtrace"
)

// TraceSet.Get and Source must be safe when sweep workers hit them
// concurrently: first-use generation races against readers of the cached
// trace. Run with -race (the Makefile's test target does).
func TestTraceSetConcurrentAccess(t *testing.T) {
	ts := NewTraceSet(0.02)
	names := benchNames()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, name := range names {
				n := 0
				memtrace.Each(ts.Source(name), func(memtrace.Access) { n++ })
				if n == 0 {
					t.Errorf("worker %d: empty stream for %s (iter %d)", w, name, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Planned passes replaying independent cursors over the shared cached
// traces — the pattern every experiment uses — must be race-free and give
// every worker the complete stream.
func TestParallelSweepOverSharedTraces(t *testing.T) {
	ts := NewTraceSet(0.02)
	names := benchNames()
	fes := make([]*core.Level, 2*len(names))
	passes := make([]*pass, len(fes))
	for i := range fes {
		fes[i] = level(4096, 16, core.Aux{})
		passes[i] = &pass{bench: names[i%len(names)], runs: []*run{feedLevel(dSide, fes[i])}}
	}
	cfg := Config{Scale: 0.02, Traces: ts}
	cfg.plan(passes...)
	stats := make([]core.Stats, len(fes))
	for i, fe := range fes {
		stats[i] = fe.Stats()
	}
	for i := range names {
		if stats[i] != stats[i+len(names)] {
			t.Errorf("%s: runs over the same trace disagree: %+v vs %+v",
				names[i], stats[i], stats[i+len(names)])
		}
		if stats[i].Accesses == 0 {
			t.Errorf("%s: no accesses replayed", names[i])
		}
	}
}
