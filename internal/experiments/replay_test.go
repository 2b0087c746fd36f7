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
// bit-identity claim: one pass of N runs must leave every structure
// exactly as N one-run passes do, whatever kind of structure it is.
func TestReplayGroupMatchesSequentialHelpers(t *testing.T) {
	cfg := smallCfg()
	tr := cfg.Traces.Get("ccom")

	// structures builds one of each kind of run and returns a snapshot
	// of their final state.
	type snapshot struct {
		l1      cache.Stats
		classes classify.Counts
		level   core.Stats
		pf      prefetch.Stats
		sys     hierarchy.Results
		stores  int
	}
	structures := func() ([]*run, func() snapshot) {
		l1, cl := cache.MustNew(l1Config(4096, 16)), classify.MustNew(4096, 16)
		fe := level(4096, 16, core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}})
		pf := prefetch.New(cache.MustNew(l1Config(4096, 16)), prefetch.Tagged, prefetch.Timing{}, nil)
		systems, sysRuns := feedSystems(improvedConfig())
		stores := 0
		runs := []*run{feedL1(dSide, l1, cl), feedLevel(dSide, fe), feedPrefetch(iSide, pf), sysRuns[0],
			feedFunc(func(a memtrace.Access) {
				if a.Kind == memtrace.Store {
					stores++
				}
			})}
		return runs, func() snapshot {
			return snapshot{l1.Stats(), cl.Counts(), fe.Stats(), pf.Stats(),
				systems[0].Results(tr.Instructions()), stores}
		}
	}

	grouped, groupedState := structures()
	var groupedCount telemetry.Counter
	gcfg := cfg
	gcfg.Accesses = &groupedCount
	gcfg.replay(tr.Source(), grouped...)

	single, singleState := structures()
	var singleCount telemetry.Counter
	scfg := cfg
	scfg.Accesses = &singleCount
	for _, r := range single {
		scfg.replay(tr.Source(), r)
	}

	if got, want := groupedState(), singleState(); got != want {
		t.Errorf("one pass of %d runs differs from %d one-run passes:\n got %+v\nwant %+v",
			len(grouped), len(single), got, want)
	}
	if groupedCount.Value() != singleCount.Value() {
		t.Errorf("one pass booked %d accesses, one-run passes %d",
			groupedCount.Value(), singleCount.Value())
	}
	// Two D-side runs, one I-side run and two whole-trace runs.
	if want := 2*tr.DataRefs() + tr.Instructions() + 2*uint64(tr.Len()); groupedCount.Value() != want {
		t.Errorf("booked %d accesses, want %d", groupedCount.Value(), want)
	}
}

// TestRunAllRelaysConsumerPanic checks the shield path end to end: a
// panic inside one run of a multi-run pass surfaces as a failed Result
// that names the run and carries its goroutine's stack.
func TestRunAllRelaysConsumerPanic(t *testing.T) {
	exp := Experiment{ID: "boom", Title: "panicking replay run", Run: func(cfg Config) *Result {
		cfg.plan(&pass{bench: "ccom", runs: []*run{
			feedFunc(func(memtrace.Access) {}),
			feedFunc(func(memtrace.Access) { panic("injected consumer failure") })}})
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
// rule: a side run books the references of its side and a system or
// whole-trace run books all of them, so an exhibit's count follows from
// the runs it makes. Every exhibit that replays a trace must book.
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
