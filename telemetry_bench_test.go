package jouppi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
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

// benchHost records what a measurement ran on, so numbers taken on
// different machines or at different commits are not compared blind.
type benchHost struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is `git describe --always --dirty` of the measured tree, or
	// "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

func currentHost() benchHost {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return benchHost{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
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

	// The grouped-replay arm is the sim.Replay rung: a svc-mixed fresh
	// job's generated replay through its four systems, which share one
	// L1I and one L1D, against the same replay of its first system alone.
	mixed := svcMixedConfigs(t)
	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	replayGrouped := func() { generatedReplay(t, jobCtx, mixed) }
	replaySingle := func() { generatedReplay(t, jobCtx, mixed[:1]) }
	// The sweep arm is cachesim -fanout's replay of the paper's sweep
	// (BenchmarkSweepReplay): the eight configurations grouped on their
	// two distinct caches against the same code with a cache each.
	data := ccomData()
	sweepGrouped := func() { replaySweep(sweepGroups(t, true), data) }
	sweepEach := func() { replaySweep(sweepGroups(t, false), data) }
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
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayGrouped()
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replaySingle()
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweepGrouped()
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweepEach()
			}
		},
		BenchmarkUploadSubmit,
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
	off, on, introOn, fileOff, fileOn, grouped, single := mins[0], mins[1], mins[2], mins[3], mins[4], mins[5], mins[6]
	sweepG, sweepE, upload := mins[7], mins[8], mins[9]

	type entry struct {
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		N           int     `json:"n"`
		MAccPerSec  float64 `json:"macc_per_sec"`
	}
	// mkOf makes the entry of an arm whose op replays accesses
	// references; mk, of one that replays the ccom trace.
	mkOf := func(r testing.BenchmarkResult, accesses int) entry {
		e := entry{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		if r.T > 0 {
			e.MAccPerSec = float64(uint64(r.N)*uint64(accesses)) / 1e6 / r.T.Seconds()
		}
		return e
	}
	mk := func(r testing.BenchmarkResult) entry { return mkOf(r, tr.Len()) }
	// The file arm's ratio to the in-memory replay prices the din
	// decode. It is taken paired, like the overheads: two minima of five
	// move apart with the host's speed, and their ratio read 1.32-1.61
	// over four runs of one build.
	type fileReplay struct {
		Format    string  `json:"format"`
		Records   int     `json:"records"`
		Off       entry   `json:"telemetry_off"`
		On        entry   `json:"telemetry_on"`
		OverheadP float64 `json:"overhead_percent"`
		Ratio     float64 `json:"ratio_to_in_memory"`
	}
	// The grouped arm's ratio to the one-system arm is taken paired at
	// GOMAXPROCS 1, where both run inline: it counts the L1 probes the
	// four systems make per access (3.6x one system's time with a probe
	// per system, 1.9x with one per distinct L1, on a 2-CPU host). Both arms run
	// in this binary, so the ratio does not move with code layout. The
	// entries, B/op included, are taken at the host's GOMAXPROCS, where
	// four systems that lost their grouping would be broadcast to, with a
	// ring of chunks each.
	type groupedReplay struct {
		Workload  string  `json:"workload"`
		Systems   int     `json:"systems"`
		Grouped   entry   `json:"grouped"`
		Single    entry   `json:"single"`
		Ratio1CPU float64 `json:"ratio_1cpu"`
	}
	// The sweep arm's grouped to one-per-config ratio is taken the same
	// way: it counts the cache probes and fills the eight configurations
	// make per reference. On a 2-CPU host it read 0.62 with the chunk
	// path's one probe per distinct cache (0.50 with a probe call per
	// reference, which the one-per-config arm paid eight times); a sweep
	// that lost its grouping reads 1.0.
	type sweepReplay struct {
		Workload     string  `json:"workload"`
		Configs      int     `json:"configs"`
		Accesses     int     `json:"accesses"`
		Grouped      entry   `json:"grouped"`
		OnePerConfig entry   `json:"one_per_config"`
		Ratio1CPU    float64 `json:"ratio_1cpu"`
	}
	// The upload arm is BenchmarkUploadSubmit: one cachesimd upload
	// admission, whose B/op and allocs/op are gated (its ns/op is too
	// noisy to gate alone). Its MAcc/s counts the upload's records.
	type uploadSubmit struct {
		Workload string `json:"workload"`
		Submit   entry  `json:"submit"`
	}
	report := struct {
		Benchmark  string        `json:"benchmark"`
		Host       benchHost     `json:"host"`
		Workload   string        `json:"workload"`
		Scale      float64       `json:"scale"`
		Accesses   int           `json:"accesses"`
		Method     string        `json:"overhead_method"`
		Off        entry         `json:"telemetry_off"`
		On         entry         `json:"telemetry_on"`
		OverheadP  float64       `json:"overhead_percent"`
		Intro      entry         `json:"introspect_on"`
		IntroOverP float64       `json:"introspect_overhead_percent"`
		TraceOverP float64       `json:"trace_overhead_percent"`
		File       fileReplay    `json:"file_replay"`
		Grouped    groupedReplay `json:"grouped_replay"`
		Sweep      sweepReplay   `json:"sweep_replay"`
		Upload     uploadSubmit  `json:"upload_submit"`
	}{
		Benchmark: "TelemetryReplay",
		Host:      currentHost(),
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
		Grouped: groupedReplay{
			Workload: "svc-mixed fresh job: ccom, " + svcMixedSpecs,
			Systems:  len(mixed),
			Grouped:  mk(grouped),
			Single:   mk(single),
		},
		Sweep: sweepReplay{
			Workload:     "cachesim -fanout paper sweep: ccom data references, 4096-reference chunks",
			Configs:      len(sweepShapes),
			Accesses:     len(data),
			Grouped:      mkOf(sweepG, len(data)),
			OnePerConfig: mkOf(sweepE, len(data)),
		},
		Upload: uploadSubmit{
			Workload: "cachesimd POST /jobs: a 100000-record din upload, five configurations",
			Submit:   mkOf(upload, 100_000),
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
	report.File.Ratio = 1 + pairedOverheadPercent(250,
		func() { replayImproved(t, tr, nil) },
		func() { replayFile(nil) })/100
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
	report.Grouped.Ratio1CPU = func() float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return 1 + pairedOverheadPercent(250, replaySingle, replayGrouped)/100
	}()
	report.Sweep.Ratio1CPU = func() float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return 1 + pairedOverheadPercent(250, sweepEach, sweepGrouped)/100
	}()
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: off %d ns/op (%d allocs), on %d ns/op (%d allocs), overhead %.1f%%; "+
		"introspect on %d ns/op (%d allocs), overhead %.1f%%; trace overhead %.1f%%; "+
		"file replay off %d ns/op (%d allocs), on %d ns/op (%d allocs), overhead %.1f%%, %.2fx in-memory; "+
		"grouped replay %d ns/op (%d B/op), %.2fx one system at GOMAXPROCS 1; "+
		"sweep grouped %d ns/op, %.2fx one cache per configuration at GOMAXPROCS 1; "+
		"upload submit %d B/op, %d allocs/op",
		out, report.Off.NsPerOp, report.Off.AllocsPerOp,
		report.On.NsPerOp, report.On.AllocsPerOp, report.OverheadP,
		report.Intro.NsPerOp, report.Intro.AllocsPerOp, report.IntroOverP, report.TraceOverP,
		report.File.Off.NsPerOp, report.File.Off.AllocsPerOp,
		report.File.On.NsPerOp, report.File.On.AllocsPerOp, report.File.OverheadP, report.File.Ratio,
		report.Grouped.Grouped.NsPerOp, report.Grouped.Grouped.BytesPerOp, report.Grouped.Ratio1CPU,
		report.Sweep.Grouped.NsPerOp, report.Sweep.Ratio1CPU,
		report.Upload.Submit.BytesPerOp, report.Upload.Submit.AllocsPerOp)
}
