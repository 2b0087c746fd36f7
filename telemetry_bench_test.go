package jouppi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
	"jouppi/internal/workload"
	"jouppi/sim"
)

// replayImproved drives one full replay of the ccom trace through the
// improved system, optionally with a telemetry registry attached, and
// returns the simulation results.
func replayImproved(tb testing.TB, tr *memtrace.Trace, reg *telemetry.Registry) sim.Results {
	tb.Helper()
	sys, err := sim.NewSystem(sim.ImprovedSystem())
	if err != nil {
		tb.Fatal(err)
	}
	sys.AttachTelemetry(reg)
	tr.Each(func(a memtrace.Access) {
		switch a.Kind {
		case memtrace.Ifetch:
			sys.Ifetch(uint64(a.Addr))
		case memtrace.Load:
			sys.Load(uint64(a.Addr))
		case memtrace.Store:
			sys.Store(uint64(a.Addr))
		}
	})
	return sys.Results()
}

// replayIntrospected is replayImproved with the introspection probe
// attached in its benchmark configuration: default phase windows,
// per-set heatmaps, and every-64th-miss sampling — everything except the
// 3C shadow classifier, whose cost is priced separately and opted into.
func replayIntrospected(tb testing.TB, tr *memtrace.Trace) sim.Results {
	tb.Helper()
	sys, err := sim.NewSystem(sim.ImprovedSystem())
	if err != nil {
		tb.Fatal(err)
	}
	sys.AttachIntrospection(sim.Introspection{Window: 1 << 15, Heatmap: true, MissEvery: 64})
	tr.Each(func(a memtrace.Access) {
		switch a.Kind {
		case memtrace.Ifetch:
			sys.Ifetch(uint64(a.Addr))
		case memtrace.Load:
			sys.Load(uint64(a.Addr))
		case memtrace.Store:
			sys.Store(uint64(a.Addr))
		}
	})
	return sys.Results()
}

// TestTelemetryEquivalence pins the zero-overhead contract from the
// observability layer: attaching a registry must not change any simulated
// number. Both replays walk the same trace; the Results structs must be
// identical field for field.
func TestTelemetryEquivalence(t *testing.T) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	plain := replayImproved(t, tr, nil)
	reg := telemetry.NewRegistry()
	instrumented := replayImproved(t, tr, reg)
	if plain != instrumented {
		t.Errorf("telemetry changed simulation results:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
	// Sanity: the registry actually observed the replay.
	snap := reg.Snapshot()
	if snap["sim_l1i_accesses_total"] == 0 || snap["sim_l1d_accesses_total"] == 0 {
		t.Errorf("registry saw no accesses: %v", snap)
	}
}

// BenchmarkTelemetryReplay compares the replay loop with telemetry
// detached (the nil fast path every production sweep takes by default)
// against the fully instrumented loop. The off case is the one the ≤2%
// overhead budget in the design notes refers to.
func BenchmarkTelemetryReplay(b *testing.B) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	// The registry is shared across iterations (metric registration is
	// idempotent by name) so the on case measures per-access increment
	// cost, not registration.
	bench := func(reg *telemetry.Registry) func(*testing.B) {
		return func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				replayImproved(b, tr, reg)
				total += uint64(tr.Len())
			}
			b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
		}
	}
	b.Run("off", bench(nil))
	b.Run("on", bench(telemetry.NewRegistry()))
	b.Run("introspect", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			replayIntrospected(b, tr)
			total += uint64(tr.Len())
		}
		b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
	})
}

// pairedOverheadPercent estimates how much slower on is than off by
// running the two replays back to back pairs times and taking the
// median of the per-pair time ratios. On a shared, drifting machine
// this is far more stable than comparing two separately measured
// blocks: the drift cancels inside each pair (the replays run
// milliseconds apart) and the median discards the scheduling spikes
// that dominate a mean. The order within a pair alternates because the
// second replay of a pair runs measurably slower (it absorbs the GC
// debt of the first); the geometric mean of the two orders' median
// ratios cancels that position bias — an arm paired against itself
// reads ~0.0% where the one-order median reads ~+0.7%.
func pairedOverheadPercent(pairs int, off, on func()) float64 {
	off()
	on() // warm both paths before timing
	offFirst := make([]float64, 0, (pairs+1)/2)
	onFirst := make([]float64, 0, pairs/2)
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		if i%2 == 0 {
			off()
			t1 := time.Now()
			on()
			if d := t1.Sub(t0); d > 0 {
				offFirst = append(offFirst, float64(time.Since(t1))/float64(d))
			}
		} else {
			on()
			t1 := time.Now()
			off()
			if d := time.Since(t1); d > 0 {
				onFirst = append(onFirst, float64(t1.Sub(t0))/float64(d))
			}
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	return 100 * (math.Sqrt(median(offFirst)*median(onFirst)) - 1)
}

// TestWriteBenchTelemetryJSON measures the off/on replay benchmarks with
// testing.Benchmark and writes the comparison to the file named by the
// BENCH_JSON environment variable (wired up as `make bench-json`). Without
// the variable the test is skipped, so ordinary `go test ./...` runs stay
// fast.
func TestWriteBenchTelemetryJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to write the telemetry benchmark comparison")
	}
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)

	// The file-backed arm decodes the same workload from dinero text every
	// iteration — the shape a captured trace file replays in, and the
	// configuration the allocs/op regression gate watches: the zero-alloc
	// decode path keeps allocations per replay constant instead of
	// per-line.
	din, records := fanoutBenchTrace(t)
	fileCfg := fanoutBenchConfigs()[len(fanoutBenchConfigs())-1] // the full improved system
	replayFile := func(reg *telemetry.Registry) hierarchy.Results {
		counting := memtrace.NewCountingSource(memtrace.NewDineroReader(bytes.NewReader(din)))
		sys := hierarchy.MustNew(fileCfg)
		sys.AttachTelemetry(reg)
		memtrace.Each(counting, sys.Access)
		return sys.Results(counting.Instructions())
	}

	// Every arm is measured benchRuns times and the fastest run kept: on
	// a shared machine the minimum is the closest estimate of the true
	// cost. The rounds are interleaved — off, on, introspect, ... then
	// again — rather than run per arm back to back, so slow drift
	// (thermals, a neighbour tenant) lands on every arm instead of
	// biasing whichever arm happened to run last. These minima feed the
	// descriptive columns (ns/op, allocs/op, MAcc/s); the gated overhead
	// percentages come from pairedOverheadPercent below, which is robust
	// to drift the block comparison cannot cancel.
	const benchRuns = 5
	reg := telemetry.NewRegistry() // shared: prices increments, not registration
	fileReg := telemetry.NewRegistry()
	arms := []func(b *testing.B){
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayImproved(b, tr, nil)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayImproved(b, tr, reg)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayIntrospected(b, tr)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayFile(nil)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayFile(fileReg)
			}
		},
	}
	mins := make([]testing.BenchmarkResult, len(arms))
	for round := 0; round < benchRuns; round++ {
		for i, fn := range arms {
			r := testing.Benchmark(fn)
			if round == 0 || r.NsPerOp() < mins[i].NsPerOp() {
				mins[i] = r
			}
		}
	}
	off, on, introOn, fileOff, fileOn := mins[0], mins[1], mins[2], mins[3], mins[4]

	type entry struct {
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		N           int     `json:"n"`
		MAccPerSec  float64 `json:"macc_per_sec"`
	}
	mk := func(r testing.BenchmarkResult) entry {
		e := entry{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		if r.T > 0 {
			e.MAccPerSec = float64(uint64(r.N)*uint64(tr.Len())) / 1e6 / r.T.Seconds()
		}
		return e
	}
	type fileReplay struct {
		Format    string  `json:"format"`
		Records   int     `json:"records"`
		Off       entry   `json:"telemetry_off"`
		On        entry   `json:"telemetry_on"`
		OverheadP float64 `json:"overhead_percent"`
	}
	report := struct {
		Benchmark  string     `json:"benchmark"`
		Workload   string     `json:"workload"`
		Scale      float64    `json:"scale"`
		Accesses   int        `json:"accesses"`
		Method     string     `json:"overhead_method"`
		Off        entry      `json:"telemetry_off"`
		On         entry      `json:"telemetry_on"`
		OverheadP  float64    `json:"overhead_percent"`
		Intro      entry      `json:"introspect_on"`
		IntroOverP float64    `json:"introspect_overhead_percent"`
		TraceOverP float64    `json:"trace_overhead_percent"`
		File       fileReplay `json:"file_replay"`
	}{
		Benchmark: "TelemetryReplay",
		Workload:  "ccom",
		Scale:     benchScale,
		Accesses:  tr.Len(),
		Method:    "paired-median",
		Off:       mk(off),
		On:        mk(on),
		Intro:     mk(introOn),
		File: fileReplay{
			Format:  "din",
			Records: records,
			Off:     mk(fileOff),
			On:      mk(fileOn),
		},
	}
	report.OverheadP = pairedOverheadPercent(500,
		func() { replayImproved(t, tr, nil) },
		func() { replayImproved(t, tr, reg) })
	report.IntroOverP = pairedOverheadPercent(500,
		func() { replayImproved(t, tr, nil) },
		func() { replayIntrospected(t, tr) })
	report.File.OverheadP = pairedOverheadPercent(250,
		func() { replayFile(nil) },
		func() { replayFile(fileReg) })
	// Trace attachment is priced on the whole fan-out replay path — the
	// exact code a traced cachesimd job runs — against the detached nil
	// fast path. Spans exist only at replay/consumer granularity, so this
	// prices a handful of span closes amortized over a full trace pass.
	tracer := trace.New(trace.Options{Capacity: 4})
	ccom, err := sim.Benchmark("ccom", benchScale)
	if err != nil {
		t.Fatal(err)
	}
	replayTraced := func(attach bool) {
		// A cancellable context, as every cachesimd job carries, keeps
		// the replay on the goroutine-fed path a job runs.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var root *trace.Span
		if attach {
			root = tracer.Root("bench", "", nil)
			ctx = trace.ContextWith(ctx, root)
		}
		sys, err := sim.NewSystem(sim.ImprovedSystem())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Replay(ctx, ccom, sys); err != nil {
			t.Fatal(err)
		}
		root.End()
	}
	report.TraceOverP = pairedOverheadPercent(250,
		func() { replayTraced(false) },
		func() { replayTraced(true) })
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: off %d ns/op (%d allocs), on %d ns/op (%d allocs), overhead %.1f%%; "+
		"introspect on %d ns/op (%d allocs), overhead %.1f%%; trace overhead %.1f%%; "+
		"file replay off %d ns/op (%d allocs), on %d ns/op (%d allocs), overhead %.1f%%",
		out, report.Off.NsPerOp, report.Off.AllocsPerOp,
		report.On.NsPerOp, report.On.AllocsPerOp, report.OverheadP,
		report.Intro.NsPerOp, report.Intro.AllocsPerOp, report.IntroOverP, report.TraceOverP,
		report.File.Off.NsPerOp, report.File.Off.AllocsPerOp,
		report.File.On.NsPerOp, report.File.On.AllocsPerOp, report.File.OverheadP)
}
