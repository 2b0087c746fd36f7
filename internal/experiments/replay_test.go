package experiments

import (
	"context"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/prefetch"
	"jouppi/internal/telemetry"
)

// TestReplayGroupMatchesSequentialHelpers pins the replay primitive's
// bit-identity claim: one pass that groups levels on one cache, clusters
// systems and runs per-reference steps must leave every structure
// exactly as replaying each alone, on its own cache, in its own pass
// does, whatever kind of structure it is.
func TestReplayGroupMatchesSequentialHelpers(t *testing.T) {
	cfg := smallCfg()
	tr := cfg.Traces.Get("ccom")
	shapes := []core.Aux{
		{},
		{MissCache: 2},
		{Victim: 4},
		{Stream: core.StreamConfig{Ways: 1, Depth: 4, RunLimit: 2}},
		{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}},
	}
	sysCfgs := []hierarchy.Config{{}, improvedConfig()}

	// structures declares one of each kind of structure, grouped into
	// one pass or each alone in its own, and returns a snapshot of
	// their final state.
	type snapshot struct {
		l1      cache.Stats
		classes classify.Counts
		levels  [5]core.Stats
		pf      prefetch.Stats
		sys     [2]hierarchy.Results
		stores  int
	}
	structures := func(grouped bool) ([]*pass, func() snapshot) {
		l1, cl := cache.MustNew(l1Config(4096, 16)), classify.MustNew(4096, 16)
		fes := make([]*core.Level, len(shapes))
		for i, aux := range shapes {
			on := l1
			if !grouped {
				on = cache.MustNew(l1Config(4096, 16))
			}
			fes[i] = level(on, aux)
		}
		pf := prefetch.New(cache.MustNew(l1Config(4096, 16)), prefetch.Tagged, prefetch.Timing{}, nil)
		systems := newSystems(sysCfgs...)
		stores := 0
		steps := []*run{
			feedFunc(iSide, func(a memtrace.Access) { pf.Access(uint64(a.Addr), a.Kind == memtrace.Store) }),
			feedFunc(allRefs, func(a memtrace.Access) {
				if a.Kind == memtrace.Store {
					stores++
				}
			}),
		}
		var passes []*pass
		if grouped {
			runs := append([]*run{group(dSide, cl, fes...)}, steps...)
			passes = append(passes, &pass{bench: "ccom", runs: append(runs, clustered(systems...)...)})
		} else {
			alone := []*run{feedL1(dSide, l1, cl)}
			for _, fe := range fes {
				alone = append(alone, feedFunc(dSide, func(a memtrace.Access) {
					fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
				}))
			}
			for _, sys := range systems {
				alone = append(alone, feedFunc(allRefs, sys.Access))
			}
			for _, r := range append(alone, steps...) {
				passes = append(passes, &pass{bench: "ccom", runs: []*run{r}})
			}
		}
		return passes, func() snapshot {
			st := snapshot{l1: l1.Stats(), classes: cl.Counts(), pf: pf.Stats(), stores: stores}
			for i, fe := range fes {
				st.levels[i] = fe.Stats()
			}
			for i, sys := range systems {
				st.sys[i] = sys.Results(tr.Instructions())
			}
			return st
		}
	}

	replay := func(grouped bool) (snapshot, []*pass, uint64) {
		var booked telemetry.Counter
		c := cfg
		c.Accesses = &booked
		passes, state := structures(grouped)
		c.plan(passes...)
		return state(), passes, booked.Value()
	}
	got, groupedPasses, groupedCount := replay(true)
	want, single, singleCount := replay(false)

	// The group, the two steps and one cluster of both systems.
	if n := len(groupedPasses[0].runs); n != 4 {
		t.Fatalf("the grouped pass has %d runs, want 4: the systems did not share a cluster", n)
	}
	if got != want {
		t.Errorf("one grouped pass differs from %d one-structure passes:\n got %+v\nwant %+v",
			len(single), got, want)
	}
	// Booked once per level, for the prefetcher's I side, once per
	// system and for the store step; alone, the plain cache and its
	// classifier book the D side once more.
	refs := uint64(tr.Len())
	if want := uint64(len(shapes))*tr.DataRefs() + tr.Instructions() + 3*refs; groupedCount != want {
		t.Errorf("the grouped pass booked %d accesses, want %d", groupedCount, want)
	}
	if want := groupedCount + tr.DataRefs(); singleCount != want {
		t.Errorf("the one-structure passes booked %d accesses, want %d", singleCount, want)
	}
}

// TestRunAllRelaysConsumerPanic checks the shield path end to end: a
// panic inside one run of a multi-run pass surfaces as a failed Result
// that names the run and carries its goroutine's stack.
func TestRunAllRelaysConsumerPanic(t *testing.T) {
	exp := Experiment{ID: "boom", Title: "panicking replay run", Run: func(cfg Config) *Result {
		cfg.plan(&pass{bench: "ccom", runs: []*run{
			feedFunc(allRefs, func(memtrace.Access) {}),
			feedFunc(allRefs, func(memtrace.Access) { panic("injected consumer failure") })}})
		return &Result{ID: "boom"}
	}}
	out, err := RunAll(context.Background(), smallCfg(), RunOptions{Experiments: []Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d results, want 1", len(out))
	}
	r := out[0]
	if !strings.Contains(r.Err, "consumer 1 panicked: injected consumer failure") {
		t.Errorf("Err = %q, want the relayed consumer panic", r.Err)
	}
	if r.Stack == "" {
		t.Error("failed result lost the consumer stack")
	}
}

// TestReplayBooksEverySimulatedReference pins the progress counter's
// rule: a run books the references of its side (or all of them) once
// per structure it feeds, a level of a group or a system of a cluster,
// so an exhibit's count follows from the structures it replays. Every exhibit that replays a trace must book.
func TestReplayBooksEverySimulatedReference(t *testing.T) {
	cfg := Config{Scale: goldenScale, Traces: goldenTraces}
	var refs, dataRefs uint64
	for _, name := range benchNames() {
		refs += uint64(cfg.Traces.Get(name).Len())
		dataRefs += cfg.Traces.Get(name).DataRefs()
	}
	exact := map[string]uint64{
		"fig3-1":   refs,     // an I-side and a D-side classified L1
		"table2-2": refs,     // an I-side and a D-side plain L1
		"fig5-1":   2 * refs, // a baseline and an improved system
		// Per side: a baseline, three prefetchers, two stream buffers.
		"ablation-prefetchcmp": 6 * refs,
		// A baseline and eight write-buffered D-side front ends.
		"ablation-writebuffer": 9 * dataRefs,
	}
	static := map[string]bool{"table1-1": true, "table2-1": true}
	for _, e := range All() {
		var c telemetry.Counter
		run := cfg
		run.Accesses = &c
		if res := e.Run(run); res == nil || res.Failed() {
			t.Fatalf("%s: no usable result", e.ID)
		}
		got := c.Value()
		switch want, ok := exact[e.ID]; {
		case ok && got != want:
			t.Errorf("%s booked %d accesses, want %d", e.ID, got, want)
		case static[e.ID] && got != 0:
			t.Errorf("%s replays nothing but booked %d accesses", e.ID, got)
		case !static[e.ID] && got == 0:
			t.Errorf("%s replays traces but booked no accesses", e.ID)
		}
	}
}

// TestCancelledExhibitsBookNothing runs every exhibit under a context
// that is already cancelled: none may simulate a reference, and none may
// panic on the empty structures it is left with.
func TestCancelledExhibitsBookNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var c telemetry.Counter
			cfg := Config{Scale: goldenScale, Traces: goldenTraces, Accesses: &c}
			e.Run(cfg.WithContext(ctx))
			if got := c.Value(); got != 0 {
				t.Errorf("booked %d accesses under a cancelled context", got)
			}
		})
	}
}
