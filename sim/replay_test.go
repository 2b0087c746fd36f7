package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/memtrace"
	"jouppi/internal/trace"
	"jouppi/internal/workload"
)

// replayConfigs is a paper-flavoured sweep: baseline, miss and victim
// caches at a few entry counts, stream buffers, and the improved system.
func replayConfigs() []Config {
	return []Config{
		BaselineSystem(),
		{D: Augmentation{MissCacheEntries: 2}},
		{D: Augmentation{MissCacheEntries: 4}},
		{D: Augmentation{VictimCacheEntries: 2}},
		{D: Augmentation{VictimCacheEntries: 4}},
		{I: Augmentation{Stream: &StreamOptions{Ways: 1, Depth: 4}}},
		{D: Augmentation{Stream: &StreamOptions{Ways: 4, Depth: 4}}},
		ImprovedSystem(),
	}
}

// resultBits is a Results with every float field moved into its bit
// pattern, so == compares Float64bits-exactly (stricter than comparing
// the floats, which would let -0 and NaN slip by).
type resultBits struct {
	r                    Results
	iRate, dRate, potPct uint64
}

func bitsOf(r Results) resultBits {
	b := resultBits{r: r, iRate: math.Float64bits(r.I.MissRate),
		dRate: math.Float64bits(r.D.MissRate), potPct: math.Float64bits(r.PercentOfPotential)}
	b.r.I.MissRate, b.r.D.MissRate, b.r.PercentOfPotential = 0, 0, 0
	return b
}

// replayOnce builds one system per configuration, optionally with the
// most intrusive introspection attached, replays src through all of them
// in one Replay call and returns their results.
func replayOnce(t *testing.T, ctx context.Context, src *Source, introspect bool, cfgs ...Config) []Results {
	t.Helper()
	systems := make([]*System, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if introspect {
			sys.AttachIntrospection(fullIntrospection)
		}
		systems[i] = sys
	}
	if err := Replay(ctx, src, systems...); err != nil {
		t.Fatal(err)
	}
	out := make([]Results, len(systems))
	for i, sys := range systems {
		out[i] = sys.Results()
	}
	return out
}

// perReference generates the named workload into one system built from
// cfg, one Ifetch, Load or Store call per reference, with no Replay: the
// reference the chunked replay paths are held to.
func perReference(t *testing.T, name string, scale float64, introspect bool, cfg Config) Results {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if introspect {
		sys.AttachIntrospection(fullIntrospection)
	}
	workload.MustByName(name).Generate(scale, memtrace.SinkFunc(func(a memtrace.Access) {
		switch a.Kind {
		case memtrace.Ifetch:
			sys.Ifetch(uint64(a.Addr))
		case memtrace.Load:
			sys.Load(uint64(a.Addr))
		case memtrace.Store:
			sys.Store(uint64(a.Addr))
		}
	}))
	return sys.Results()
}

// TestReplayPathsBitIdentical pins that every way Replay can run
// produces bit-identical Results for every configuration of a sweep,
// and the same as per-reference generation into each system ("direct",
// the name kept from the one-system path Replay had): one system under
// a context that cannot be cancelled and under one that can (the
// subtest keeps its old name, "goroutine-fed"), fan-out (all systems in
// one pass, detached and under a live trace span), and trace files in
// both formats — each with and without introspection attached.
func TestReplayPathsBitIdentical(t *testing.T) {
	const name, scale = "ccom", 0.05
	cfgs := replayConfigs()
	src, err := Benchmark(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, format := range []string{"jtr", "din"} {
		if _, err := WriteTraceFile(name, scale, filepath.Join(dir, name+"."+format), format); err != nil {
			t.Fatal(err)
		}
	}
	cancellable := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx
	}
	traced := func() context.Context {
		root := trace.New(trace.Options{}).Root("job", "paths", nil)
		t.Cleanup(root.End)
		return trace.ContextWith(context.Background(), root)
	}
	perConfig := func(ctx func() context.Context) func(*testing.T, bool) []Results {
		return func(t *testing.T, introspect bool) []Results {
			var out []Results
			for _, cfg := range cfgs {
				out = append(out, replayOnce(t, ctx(), src, introspect, cfg)...)
			}
			return out
		}
	}
	traceFile := func(format string) func(*testing.T, bool) []Results {
		return func(t *testing.T, introspect bool) []Results {
			var out []Results
			for _, cfg := range cfgs {
				file, err := OpenTrace(filepath.Join(dir, name+"."+format), format)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, replayOnce(t, context.Background(), file, introspect, cfg)...)
				file.Close()
			}
			return out
		}
	}
	paths := []struct {
		name string
		run  func(t *testing.T, introspect bool) []Results
	}{
		{"direct", func(t *testing.T, introspect bool) []Results {
			var out []Results
			for _, cfg := range cfgs {
				out = append(out, perReference(t, name, scale, introspect, cfg))
			}
			return out
		}},
		{"one-system", perConfig(context.Background)},
		{"goroutine-fed", perConfig(cancellable)},
		{"fan-out", func(t *testing.T, introspect bool) []Results {
			return replayOnce(t, context.Background(), src, introspect, cfgs...)
		}},
		{"fan-out-traced", func(t *testing.T, introspect bool) []Results {
			return replayOnce(t, traced(), src, introspect, cfgs...)
		}},
		{"trace-file-jtr", traceFile("jtr")},
		{"trace-file-din", traceFile("din")},
	}
	want := paths[0].run(t, false)
	for _, p := range paths {
		for _, introspect := range []bool{false, true} {
			label := p.name
			if introspect {
				label += "+introspection"
			}
			t.Run(label, func(t *testing.T) {
				got := p.run(t, introspect)
				if len(got) != len(cfgs) {
					t.Fatalf("got %d results for %d configs", len(got), len(cfgs))
				}
				for i := range cfgs {
					if bitsOf(got[i]) != bitsOf(want[i]) {
						t.Errorf("config %d (%s) differs from direct replay:\n got %+v\nwant %+v",
							i, Format(cfgs[i]), got[i], want[i])
					}
				}
			})
		}
	}
}

// TestReplayManyMatchesRunBenchmark is the facade-level bit-identity pin:
// one fan-out Replay across eight configurations must reproduce exactly
// the Results of eight independent RunBenchmark replays. The name is kept
// from the multi-configuration entry point that Replay replaced.
func TestReplayManyMatchesRunBenchmark(t *testing.T) {
	const scale = 0.02
	cfgs := replayConfigs()
	src, err := Benchmark("ccom", scale)
	if err != nil {
		t.Fatal(err)
	}
	got := replayOnce(t, context.Background(), src, false, cfgs...)
	if len(got) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := RunBenchmark("ccom", scale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bitsOf(got[i]) != bitsOf(want) {
			t.Errorf("config %d (%s): fan-out results differ from RunBenchmark:\n got %+v\nwant %+v",
				i, Format(cfg), got[i], want)
		}
	}
}

// TestReplayErrors covers the source and configuration checks.
func TestReplayErrors(t *testing.T) {
	if _, err := Benchmark("ccom", 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Benchmark("no-such-benchmark", 0.1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad := Config{D: Augmentation{MissCacheEntries: 2, VictimCacheEntries: 2}}
	if _, err := NewSystem(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestTracedReplayBitIdentical pins the zero-interference contract of
// the tracing layer and the span a traced replay leaves: the traced
// fan-out replay returns the numbers of untraced replays, and leaves one
// replay span naming its source and carrying the record count and the
// consumer count, with one consumer span per distinct L1 pair (under
// -race this is the fan-out span-emission safety check). Baseline and
// improved systems share the paper's L1s, so four of them are one
// consumer; an 8 KB L1 is a second. It runs on both of the fan-out
// engine's dispatch paths: inline at GOMAXPROCS 1, broadcast at 2.
func TestTracedReplayBitIdentical(t *testing.T) {
	big, err := ParseConfig("size=8192", BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		cfgs      []Config
		consumers int
	}{
		{"one-l1-pair", []Config{BaselineSystem(), ImprovedSystem(), BaselineSystem(), ImprovedSystem()}, 1},
		{"two-l1-pairs", []Config{BaselineSystem(), big, ImprovedSystem()}, 2},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { testTracedReplayBitIdentical(t, c.cfgs, c.consumers) })
			}
		})
	}
}

func testTracedReplayBitIdentical(t *testing.T, cfgs []Config, wantConsumers int) {
	tr := trace.New(trace.Options{})
	root := tr.Root("job", "spans", nil)
	src, err := Benchmark("met", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, trace.ContextWith(context.Background(), root), src, false, cfgs...)
	root.End()
	for i, cfg := range cfgs {
		if want := replayOnce(t, context.Background(), src, false, cfg)[0]; bitsOf(res[i]) != bitsOf(want) {
			t.Errorf("config %d: traced %+v\n  != detached %+v", i, res[i], want)
		}
	}

	td, ok := tr.TraceByID("spans")
	if !ok {
		t.Fatal("no trace retained")
	}
	rsp, ok := td.Span("replay")
	if !ok {
		t.Fatal("no replay span")
	}
	records := res[0].I.Accesses + res[0].D.Accesses
	if rsp.Attr("benchmark") != "met" || rsp.Attr("configs") != strconv.Itoa(len(cfgs)) ||
		rsp.Attr("consumers") != strconv.Itoa(wantConsumers) || rsp.Attr("records") != strconv.FormatUint(records, 10) {
		t.Fatalf("replay attrs = %v, want benchmark met, %d configs, %d consumers, %d records",
			rsp.Attrs, len(cfgs), wantConsumers, records)
	}
	var consumers int
	for _, s := range td.Spans {
		if s.Name == "consumer" {
			consumers++
			if s.Parent != rsp.ID {
				t.Fatalf("consumer parent = %q, want replay %q", s.Parent, rsp.ID)
			}
		}
	}
	if consumers != wantConsumers {
		t.Fatalf("consumer spans = %d, want %d", consumers, wantConsumers)
	}
}

// TestGroupedReplayRestoresSystems pins that a grouped Replay leaves
// every system usable on its own. Three systems on the paper's L1s
// replay twice as one consumer (the second time each counts on from its
// first replay), then one of them takes solo references and a third
// replay alone. Each must equal a twin that never shared a cache: its
// Results, its L1s' contents, replacement state and Stats, and its
// inclusion report.
func TestGroupedReplayRestoresSystems(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testGroupedReplayRestoresSystems(t)
		})
	}
}

func testGroupedReplayRestoresSystems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src, err := Benchmark("met", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := ParseConfig("victim=4", BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{ImprovedSystem(), BaselineSystem(), victim}
	build := func() []*System {
		out := make([]*System, len(cfgs))
		for i, c := range cfgs {
			if out[i], err = NewSystem(c); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	replay := func(systems ...*System) {
		if err := Replay(ctx, src, systems...); err != nil {
			t.Fatal(err)
		}
	}
	grouped, twins := build(), build()
	for range 2 {
		replay(grouped...)
		for _, tw := range twins {
			replay(tw)
		}
	}
	for _, s := range []*System{grouped[0], twins[0]} {
		for i := range uint64(200) {
			s.Ifetch(0x10000 + 4*i)
			s.Load(0x40000 + 16*i)
			s.Store(0x80000 + 64*i)
		}
		replay(s)
	}
	for i, s := range grouped {
		tw := twins[i]
		if got, want := s.Results(), tw.Results(); bitsOf(got) != bitsOf(want) {
			t.Errorf("config %d: grouped %+v\n  != alone %+v", i, got, want)
		}
		if got, want := s.sys.Inclusion(), tw.sys.Inclusion(); got != want {
			t.Errorf("config %d: inclusion %+v, alone %+v", i, got, want)
		}
		for _, side := range [][2]*cache.Cache{
			{s.sys.IFrontEnd().Cache(), tw.sys.IFrontEnd().Cache()},
			{s.sys.DFrontEnd().Cache(), tw.sys.DFrontEnd().Cache()},
		} {
			if !side[0].SameState(side[1]) {
				t.Errorf("config %d: %s holds %d lines with Stats %+v, alone %d lines with %+v, or other replacement state",
					i, side[0].Config().Name, len(side[0].ResidentLines()), side[0].Stats(),
					len(side[1].ResidentLines()), side[1].Stats())
			}
		}
	}
}

// cancelAfter is a Source that delivers n records, cancels its
// replay's context and ends.
type cancelAfter struct {
	src    memtrace.Source
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (memtrace.Access, bool) {
	if c.n == 0 {
		c.cancel()
		return memtrace.Access{}, false
	}
	c.n--
	return c.src.Next()
}

// TestCancelledGroupedReplayRestoresSystems pins that a grouped Replay
// cut short by its context still gives every system its own L1s back.
// The cancel lands in the fourth chunk, so the three systems saw three
// chunks: they must hold equal L1s, and one that did not own the shared
// caches must then replay the rest of the trace alone to the numbers of
// a twin that replayed the whole trace alone in the same two parts.
func TestCancelledGroupedReplayRestoresSystems(t *testing.T) {
	const seen = 3 * 4096 // the fan-out engine's chunk size
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := workload.GenerateTrace(workload.MustByName("met"), 0.02)
	systems := make([]*System, 3)
	for i, c := range []Config{ImprovedSystem(), BaselineSystem(), ImprovedSystem()} {
		var err error
		if systems[i], err = NewSystem(c); err != nil {
			t.Fatal(err)
		}
	}
	src := Stream(&cancelAfter{src: tr.Source(), n: seen + 100, cancel: cancel})
	if err := Replay(ctx, src, systems...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay = %v, want context.Canceled", err)
	}
	lead := systems[0].sys
	for i, s := range systems[1:] {
		if !s.sys.IFrontEnd().Cache().SameState(lead.IFrontEnd().Cache()) ||
			!s.sys.DFrontEnd().Cache().SameState(lead.DFrontEnd().Cache()) {
			t.Errorf("system %d: its L1s differ from the shared ones after the cancel", i+1)
		}
	}
	twin, err := NewSystem(ImprovedSystem())
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []*memtrace.Trace{tr.Slice(0, seen), tr.Slice(seen, tr.Len())} {
		if err := Replay(context.Background(), Stream(part.Source()), twin); err != nil {
			t.Fatal(err)
		}
	}
	if err := Replay(context.Background(), Stream(tr.Slice(seen, tr.Len()).Source()), systems[2]); err != nil {
		t.Fatal(err)
	}
	got, want := systems[2].sys.Results(0), twin.sys.Results(0)
	if got.I != want.I || got.D != want.D || got.L2I != want.L2I || got.L2D != want.L2D || got.Mem != want.Mem {
		t.Errorf("after the cancel and the rest alone:\n got %+v\nwant %+v", got, want)
	}
}
