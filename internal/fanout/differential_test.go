// The differential golden suite holds the fan-out engine — the one
// engine that replays many configurations at once — to a sequential
// replay of each configuration on its own.
//
// Every golden-figure shape is replayed both ways over the paper
// workloads, and every counter and every derived float in
// hierarchy.Results must match to the last bit (math.Float64bits, not an
// epsilon).
package fanout_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
)

// diffScale matches the golden snapshot suite's scale, so the traces
// replayed here are exactly the traces whose figures the goldens pin,
// while the full matrix stays fast under -race.
const diffScale = 0.05

// diffTraces caches one generated trace per benchmark; every case
// replays fresh cursors over the same immutable records.
var diffTraces = map[string]*memtrace.Trace{}

func diffTrace(tb testing.TB, name string) *memtrace.Trace {
	if tr, ok := diffTraces[name]; ok {
		return tr
	}
	b, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	tr := workload.GenerateTrace(b, diffScale)
	diffTraces[name] = tr
	return tr
}

// requireBitIdentical walks two hierarchy.Results with reflection and
// fails on the first field whose bits differ. Floats are compared by
// Float64bits — stricter than ==, which would let -0 and NaN slip by.
func requireBitIdentical(t *testing.T, want, got hierarchy.Results) {
	t.Helper()
	diffValue(t, "Results", reflect.ValueOf(want), reflect.ValueOf(got))
}

func diffValue(t *testing.T, path string, want, got reflect.Value) {
	t.Helper()
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			diffValue(t, path+"."+want.Type().Field(i).Name, want.Field(i), got.Field(i))
		}
	case reflect.Float64:
		w, g := want.Float(), got.Float()
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%s: sequential %v (bits %#x) != fan-out %v (bits %#x)",
				path, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	case reflect.Uint64, reflect.Uint, reflect.Uint32:
		if want.Uint() != got.Uint() {
			t.Errorf("%s: sequential %d != fan-out %d", path, want.Uint(), got.Uint())
		}
	default:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			t.Errorf("%s: sequential %v != fan-out %v", path, want.Interface(), got.Interface())
		}
	}
}

// replaySequential is the reference path: one hierarchy.System fed
// straight from the trace, with no engine in between.
func replaySequential(t *testing.T, cfg hierarchy.Config, tr *memtrace.Trace) hierarchy.Results {
	t.Helper()
	sys, err := hierarchy.New(cfg)
	if err != nil {
		t.Fatalf("hierarchy.New: %v", err)
	}
	tr.Each(sys.Access)
	return sys.Results(tr.Instructions())
}

// diffCase is one golden-figure configuration shape.
type diffCase struct {
	name    string
	cfg     hierarchy.Config
	benches []string // nil means ccom+liver
}

func (c diffCase) benchmarks() []string {
	if c.benches == nil {
		return []string{"ccom", "liver"}
	}
	return c.benches
}

func l1(size, line, assoc int) cache.Config {
	return cache.Config{Name: "L1", Size: size, LineSize: line, Assoc: assoc}
}

// goldenCases mirrors the golden snapshot suite's figure configurations
// (internal/experiments/testdata/golden): one differential case per
// figure shape, plus the pure-geometry variants those figures sweep.
func goldenCases() []diffCase {
	mk := func(name string, mut func(*hierarchy.Config)) diffCase {
		c := diffCase{name: name}
		mut(&c.cfg)
		return c
	}
	stream := core.StreamConfig{Ways: 1, Depth: 4}
	return []diffCase{
		// Figure 2-2: the paper baseline, pure direct-mapped. Run all six
		// paper workloads through it; this is the headline pin.
		{name: "fig2-2/baseline", benches: workload.Names()},
		// Figure 2-2's loss bands sweep L1 size implicitly; pin the
		// geometry extremes the golden suite visits.
		mk("fig2-2/l1-1k", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(1024, 16, 1), l1(1024, 16, 1)
		}),
		mk("fig2-2/l1-64k", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(64<<10, 16, 1), l1(64<<10, 16, 1)
		}),
		mk("fig2-2/line-32", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 32, 1), l1(4096, 32, 1)
		}),
		// Figure 3-1: miss caches.
		mk("fig3-1/miss-cache-4", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.MissCache, Entries: 4}
		}),
		// Figure 3-3: victim caches.
		mk("fig3-3/victim-4", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4}
		}),
		// Figure 4-1: instruction stream buffer.
		mk("fig4-1/i-stream", func(c *hierarchy.Config) {
			c.IAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		// Figure 4-3: data stream buffer.
		mk("fig4-3/d-stream", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		// Figure 4-6 sweeps stream-buffer gain over cache size; pin the
		// buffered and the bare cache at one point of that sweep.
		mk("fig4-6/stream-16k", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(16<<10, 16, 1), l1(16<<10, 16, 1)
			c.IAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		mk("fig4-6/bare-16k", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(16<<10, 16, 1), l1(16<<10, 16, 1)
		}),
		// Set-associative L1s.
		mk("assoc/2-way", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 16, 2), l1(4096, 16, 2)
		}),
		mk("assoc/4-way-fifo", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 16, 4), l1(4096, 16, 4)
			c.L1I.Replacement, c.L1D.Replacement = cache.FIFO, cache.FIFO
		}),
		// The L2 victim cache extension.
		mk("l2/victim", func(c *hierarchy.Config) {
			c.L2VictimEntries = 4
		}),
		// Random replacement draws from the cache's own generator, so a
		// consumer's results must not depend on the others beside it.
		mk("random/l1d", func(c *hierarchy.Config) {
			c.L1D = l1(4096, 16, 2)
			c.L1D.Replacement = cache.Random
		}),
	}
}

// replayFanout replays one benchmark's trace once through the fan-out
// engine, with one consumer system per golden case that runs on that
// benchmark, and returns each case's results by name.
func replayFanout(t *testing.T, bench string, cases []diffCase) map[string]hierarchy.Results {
	t.Helper()
	tr := diffTrace(t, bench)
	var names []string
	var systems []*hierarchy.System
	var consumers []fanout.Consumer
	for _, tc := range cases {
		for _, b := range tc.benchmarks() {
			if b != bench {
				continue
			}
			sys, err := hierarchy.New(tc.cfg)
			if err != nil {
				t.Fatalf("%s: hierarchy.New: %v", tc.name, err)
			}
			names = append(names, tc.name)
			systems = append(systems, sys)
			consumers = append(consumers, fanout.Sink(sys))
		}
	}
	if err := fanout.Replay(context.Background(), tr.Source(), consumers...); err != nil {
		t.Fatalf("fan-out replay of %s: %v", bench, err)
	}
	out := make(map[string]hierarchy.Results, len(systems))
	for i, sys := range systems {
		out[names[i]] = sys.Results(tr.Instructions())
	}
	return out
}

// TestDifferentialGoldenSuite replays every golden-figure configuration
// shape sequentially and, alongside every other shape on the same
// benchmark, through one fan-out pass, and requires bit-identical
// results.
func TestDifferentialGoldenSuite(t *testing.T) {
	cases := goldenCases()
	fanned := map[string]map[string]hierarchy.Results{}
	for _, tc := range cases {
		for _, bench := range tc.benchmarks() {
			t.Run(tc.name+"/"+bench, func(t *testing.T) {
				if fanned[bench] == nil {
					fanned[bench] = replayFanout(t, bench, cases)
				}
				want := replaySequential(t, tc.cfg, diffTrace(t, bench))
				requireBitIdentical(t, want, fanned[bench][tc.name])
			})
		}
	}
}
