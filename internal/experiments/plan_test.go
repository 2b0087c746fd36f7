package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
)

// eachProcs runs fn as one subtest per GOMAXPROCS setting the planner
// distinguishes: one worker inline, and several in goroutines.
func eachProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// explodingStep is a run step that panics on its first reference.
func explodingStep(memtrace.Access) { panic("injected run failure") }

// TestPlanContract pins what every exhibit relies on from the planner:
// each declared pass replays exactly once, a run's panic reaches RunAll
// as a failed Result naming the run with its goroutine's stack, and an
// already-cancelled context books nothing.
func TestPlanContract(t *testing.T) {
	cfg := smallCfg()
	names := benchNames()
	gen := workload.Strided()
	// declare builds more passes than workers: two per benchmark and a
	// generated one, each with a whole-trace run and a D-side run.
	declare := func() []*pass {
		var passes []*pass
		for i := 0; i < 2*len(names); i++ {
			passes = append(passes, &pass{bench: names[i%len(names)],
				runs: []*run{feedFunc(func(memtrace.Access) {}), {side: dSide, step: func(memtrace.Access) {}}}})
		}
		return append(passes, &pass{gen: gen,
			runs: []*run{feedFunc(func(memtrace.Access) {}), {side: dSide, step: func(memtrace.Access) {}}}})
	}
	genTrace := workload.GenerateTrace(gen, cfg.Scale)
	trace := func(p *pass) *memtrace.Trace {
		if p.bench != "" {
			return cfg.Traces.Get(p.bench)
		}
		return genTrace
	}

	eachProcs(t, func(t *testing.T) {
		t.Run("each pass once", func(t *testing.T) {
			var booked telemetry.Counter
			run := cfg
			run.Accesses = &booked
			passes := declare()
			run.plan(passes...)
			var want uint64
			for i, p := range passes {
				tr := trace(p)
				if p.runs[0].n != uint64(tr.Len()) || p.runs[1].n != tr.DataRefs() {
					t.Errorf("pass %d fed %d and %d references, want %d and %d",
						i, p.runs[0].n, p.runs[1].n, tr.Len(), tr.DataRefs())
				}
				if p.instrs != tr.Instructions() {
					t.Errorf("pass %d counted %d instructions, want %d", i, p.instrs, tr.Instructions())
				}
				want += uint64(tr.Len()) + tr.DataRefs()
			}
			if booked.Value() != want {
				t.Errorf("booked %d references, want %d", booked.Value(), want)
			}
		})

		t.Run("run panic", func(t *testing.T) {
			exp := Experiment{ID: "boom", Title: "panicking run", Run: func(cfg Config) *Result {
				passes := declare()
				passes[len(passes)/2].runs[1].step = explodingStep
				cfg.plan(passes...)
				return &Result{ID: "boom"}
			}}
			out, err := RunAll(context.Background(), cfg, RunOptions{Experiments: []Experiment{exp}})
			if err != nil {
				t.Fatal(err)
			}
			r := out[0]
			if !strings.Contains(r.Err, "consumer 1 panicked: injected run failure") {
				t.Errorf("Err = %q, want the run's relayed panic", r.Err)
			}
			if !strings.Contains(r.Stack, "explodingStep") {
				t.Errorf("Stack does not show the run's own frames:\n%s", r.Stack)
			}
		})

		t.Run("cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var booked telemetry.Counter
			run := cfg.WithContext(ctx)
			run.Accesses = &booked
			passes := declare()
			run.plan(passes...)
			for i, p := range passes {
				if p.runs[0].n != 0 || p.runs[1].n != 0 || p.instrs != 0 {
					t.Errorf("pass %d replayed under a cancelled context", i)
				}
			}
			if booked.Value() != 0 {
				t.Errorf("booked %d references under a cancelled context", booked.Value())
			}
		})
	})
}

// TestPlanClosesGeneratedSources checks that a run panicking over a
// generated workload leaves no goroutine behind: the generator unwinds
// and every fan-out consumer stops before the panic reaches RunAll.
func TestPlanClosesGeneratedSources(t *testing.T) {
	eachProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		exp := Experiment{ID: "boom", Title: "panicking generated run", Run: func(cfg Config) *Result {
			cfg.plan(&pass{gen: workload.Strided(), runs: []*run{feedFunc(explodingStep)}},
				&pass{gen: workload.PointerChase(), runs: []*run{feedFunc(explodingStep)}})
			return &Result{ID: "boom"}
		}}
		out, err := RunAll(context.Background(), smallCfg(), RunOptions{Experiments: []Experiment{exp}})
		if err != nil {
			t.Fatal(err)
		}
		if !out[0].Failed() {
			t.Fatal("panicking run did not fail its experiment")
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the failed plan, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// brokenBench is a workload whose generator panics part-way through.
type brokenBench struct{}

func (brokenBench) Name() string        { return "broken" }
func (brokenBench) Description() string { return "panics after 10000 references" }
func (brokenBench) Generate(_ float64, sink memtrace.Sink) {
	for i := 0; i < 10000; i++ {
		sink.Access(memtrace.Access{Addr: memtrace.Addr(i * 16), Kind: memtrace.Load})
	}
	panic("injected generator failure")
}

// TestPlanGeneratorPanicFailsItsExhibit pins that a generator panic in a
// pass fails only the exhibit that declared the pass: it reaches RunAll
// as that exhibit's failure, and the exhibit beside it still succeeds.
func TestPlanGeneratorPanicFailsItsExhibit(t *testing.T) {
	eachProcs(t, func(t *testing.T) {
		broken := Experiment{ID: "broken", Title: "panicking generator", Run: func(cfg Config) *Result {
			cfg.plan(&pass{gen: brokenBench{}, runs: []*run{feedFunc(func(memtrace.Access) {})}},
				&pass{gen: workload.Strided(), runs: []*run{feedFunc(func(memtrace.Access) {})}})
			return &Result{ID: "broken"}
		}}
		out, err := RunAll(context.Background(), smallCfg(),
			RunOptions{Experiments: []Experiment{broken, exhibit(t, "table2-2")}})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out[0].Err, "injected generator failure") {
			t.Errorf("Err = %q, want the generator's panic", out[0].Err)
		}
		if out[1].Failed() {
			t.Errorf("the exhibit beside the broken one failed: %s", out[1].Err)
		}
	})
}
