package sim

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"jouppi/internal/trace"
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

// TestReplayPathsBitIdentical pins that every way Replay can run
// produces bit-identical Results for every configuration of a sweep:
// direct generation (one system, a context that cannot be cancelled),
// chunked generation (a cancellable context; the subtest keeps its old
// name, "goroutine-fed"), fan-out (all systems in one pass, detached and
// under a live trace span), and trace files in both formats — each with
// and without introspection attached.
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
		{"direct", perConfig(context.Background)},
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
// replay span naming its source and carrying the record count, with one
// consumer span per system (under -race this is the fan-out
// span-emission safety check). It runs on both of the fan-out engine's
// dispatch paths: inline at GOMAXPROCS 1, broadcast at 2.
func TestTracedReplayBitIdentical(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testTracedReplayBitIdentical(t)
		})
	}
}

func testTracedReplayBitIdentical(t *testing.T) {
	tr := trace.New(trace.Options{})
	root := tr.Root("job", "spans", nil)
	src, err := Benchmark("met", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{BaselineSystem(), ImprovedSystem(), BaselineSystem(), ImprovedSystem()}
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
	if rsp.Attr("benchmark") != "met" || rsp.Attr("configs") != "4" || rsp.Attr("records") != strconv.FormatUint(records, 10) {
		t.Fatalf("replay attrs = %v, want benchmark met, 4 configs, %d records", rsp.Attrs, records)
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
	if consumers != len(cfgs) {
		t.Fatalf("consumer spans = %d, want %d", consumers, len(cfgs))
	}
}
