// Command benchgate enforces the telemetry performance budget in CI. It
// compares a freshly measured benchmark artifact (the JSON written by
// TestWriteBenchTelemetryJSON) against the baseline committed in the
// repository and exits non-zero when:
//
//   - the telemetry-on overhead of either replay arm (in-memory or
//     file-backed) exceeds -max-overhead percent, or
//   - the introspection-on overhead of the in-memory replay (phase
//     windows + heatmaps + sampled miss trace, no 3C classifier)
//     exceeds -max-introspect-overhead percent, or
//   - the trace-attached fan-out replay (a root span carried through the
//     context, spans at replay/consumer granularity) runs more than
//     -max-trace-overhead percent slower than the detached path, or
//   - allocations per op on the file-backed replay regress beyond
//     -alloc-slack times the committed baseline — the zero-alloc decode
//     path must stay O(1) allocations per replay, not per line, or
//   - the file-backed replay (din decode plus the same replay) takes more
//     than maxFileRatio (1.6) times the in-memory replay, both with
//     telemetry off. The ratio is the paired median the artifact stores
//     (ratio_to_in_memory), as for the grouped and sweep arms: it prices
//     the decode without depending on the host's speed, where the ratio
//     of the two arms' minimum ns/op moved with a noisy host, or
//   - the grouped replay (a svc-mixed job's four systems on one pair of
//     L1s, in one sim.Replay) takes more than maxGroupedRatio (2.3) times
//     the same replay of one system at GOMAXPROCS 1, or its bytes per op
//     grow beyond bytesSlack times the committed baseline. Four systems
//     that each probe their own L1s took 3.59x; four that lost their
//     grouping are broadcast to at two or more Ps, with a ring of chunks
//     each, or
//   - the sweep replay (cachesim -fanout's eight configurations of the
//     paper's sweep on their two distinct caches, chunk by chunk) takes
//     more than maxSweepRatio (0.8) times the same replay with a cache per
//     configuration at GOMAXPROCS 1. A sweep that lost its grouping reads
//     1.0, or
//   - a cachesimd upload admission (BenchmarkUploadSubmit) grows beyond
//     bytesSlack times the committed baseline's B/op or -alloc-slack
//     times its allocs/op. Its ns/op is not gated: it is too noisy alone.
//
// Run it via `make bench-gate`, which generates the fresh measurement
// first. With no -measured flag it gates the baseline artifact against
// itself, which still catches a committed artifact that violates the
// overhead budget outright.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type entry struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	MAccPerSec  float64 `json:"macc_per_sec"`
}

type fileReplay struct {
	Format    string  `json:"format"`
	Records   int     `json:"records"`
	Off       entry   `json:"telemetry_off"`
	On        entry   `json:"telemetry_on"`
	OverheadP float64 `json:"overhead_percent"`
	Ratio     float64 `json:"ratio_to_in_memory"`
}

type groupedReplay struct {
	Systems   int     `json:"systems"`
	Grouped   entry   `json:"grouped"`
	Single    entry   `json:"single"`
	Ratio1CPU float64 `json:"ratio_1cpu"`
}

type sweepReplay struct {
	Configs      int     `json:"configs"`
	Grouped      entry   `json:"grouped"`
	OnePerConfig entry   `json:"one_per_config"`
	Ratio1CPU    float64 `json:"ratio_1cpu"`
}

type report struct {
	Benchmark  string        `json:"benchmark"`
	Workload   string        `json:"workload"`
	Off        entry         `json:"telemetry_off"`
	On         entry         `json:"telemetry_on"`
	OverheadP  float64       `json:"overhead_percent"`
	Intro      entry         `json:"introspect_on"`
	IntroOverP float64       `json:"introspect_overhead_percent"`
	TraceOverP float64       `json:"trace_overhead_percent"`
	File       fileReplay    `json:"file_replay"`
	Grouped    groupedReplay `json:"grouped_replay"`
	Sweep      sweepReplay   `json:"sweep_replay"`
	Upload     struct {
		Submit entry `json:"submit"`
	} `json:"upload_submit"`
}

func load(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Off.NsPerOp <= 0 || r.File.Off.NsPerOp <= 0 {
		return r, fmt.Errorf("%s: missing or zero measurements", path)
	}
	return r, nil
}

// bounds are the gate's limits, one per flag.
type bounds struct {
	maxOverhead, maxIntrospect, maxTrace, allocSlack float64
}

// defaults are the flags' default bounds.
var defaults = bounds{maxOverhead: 10, maxIntrospect: 5, maxTrace: 5, allocSlack: 1.5}

// maxFileRatio bounds the din file-backed replay's time as a multiple of
// the in-memory replay's: 3.09x before din decode scanned its read
// buffer, 1.71-1.85x with the general scan loop alone, 1.36-1.52x once
// canonical lines took the scan's fixed-window step, on one 2-CPU host.
const maxFileRatio = 1.6

// maxGroupedRatio bounds the grouped replay's time as a multiple of one
// system's, paired at GOMAXPROCS 1: 3.59x with one L1 probe per system,
// 1.86-1.89x with one per distinct L1 and reference, 2.26-2.29x once
// the one system also takes its chunks through one probe loop and only
// the per-system miss resolution is left to scale, on one 2-CPU host.
const maxGroupedRatio = 2.3

// maxSweepRatio bounds the sweep replay's time as a multiple of the same
// replay with one cache per configuration, paired at GOMAXPROCS 1: 0.62
// through the chunk path on one 2-CPU host, 1.0 for a sweep that lost
// its grouping.
const maxSweepRatio = 0.8

// bytesSlack is the allowed multiple of the baseline's bytes per op on
// the grouped replay and the upload admission.
const bytesSlack = 1.25

// check returns one message per bound the measured artifact breaks;
// baseline supplies the allocs/op the alloc bound scales.
func check(baseline, measured report, b bounds) []string {
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	if measured.OverheadP > b.maxOverhead {
		fail("in-memory replay: telemetry-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, on %d ns/op)",
			measured.OverheadP, b.maxOverhead, measured.Off.NsPerOp, measured.On.NsPerOp)
	}
	if measured.File.OverheadP > b.maxOverhead {
		fail("file-backed replay: telemetry-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, on %d ns/op)",
			measured.File.OverheadP, b.maxOverhead, measured.File.Off.NsPerOp, measured.File.On.NsPerOp)
	}
	// The introspection arm is gated only when the artifact carries it, so
	// pre-introspection baselines keep loading.
	if measured.Intro.NsPerOp > 0 && measured.IntroOverP > b.maxIntrospect {
		fail("in-memory replay: introspection-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, introspected %d ns/op)",
			measured.IntroOverP, b.maxIntrospect, measured.Off.NsPerOp, measured.Intro.NsPerOp)
	}
	// Pre-tracing baselines carry no trace column (unmarshals to 0) and
	// pass trivially, so old artifacts keep loading.
	if measured.TraceOverP > b.maxTrace {
		fail("fan-out replay: trace-attached overhead %.1f%% exceeds budget %.1f%%",
			measured.TraceOverP, b.maxTrace)
	}
	// Decode cost: what the din file replay adds over the in-memory one.
	// An artifact without the paired ratio gates nothing.
	if ratio := measured.File.Ratio; ratio > maxFileRatio {
		fail("file-backed replay: %.2fx the in-memory replay exceeds budget %.2fx (paired; file %d ns/op, in-memory %d ns/op, telemetry off)",
			ratio, maxFileRatio, measured.File.Off.NsPerOp, measured.Off.NsPerOp)
	}
	// checkGrowth fails got beyond slack times a baseline's base; a
	// baseline without the arm (base 0) gates nothing.
	checkGrowth := func(what, unit string, base, got int64, slack float64) {
		if limit := int64(float64(base) * slack); base > 0 && got > limit {
			fail("%s: %d %s exceeds %d (baseline %d × slack %.2f)", what, got, unit, limit, base, slack)
		}
	}
	// Alloc regression: the decode path is zero-alloc per record, so
	// allocs/op on a file-backed replay is a small fixed count. A growth
	// beyond slack means someone reintroduced per-line allocation.
	checkGrowth("file-backed replay (telemetry off)", "allocs/op",
		baseline.File.Off.AllocsPerOp, measured.File.Off.AllocsPerOp, b.allocSlack)
	checkGrowth("file-backed replay (telemetry on)", "allocs/op",
		baseline.File.On.AllocsPerOp, measured.File.On.AllocsPerOp, b.allocSlack)
	// The grouped arm is gated only when the artifact carries it, so
	// earlier baselines keep loading.
	g := measured.Grouped
	if g.Ratio1CPU > maxGroupedRatio {
		fail("grouped replay: %.2fx one system exceeds budget %.2fx at GOMAXPROCS 1 (%d systems)",
			g.Ratio1CPU, maxGroupedRatio, g.Systems)
	}
	checkGrowth("grouped replay", "B/op", baseline.Grouped.Grouped.BytesPerOp, g.Grouped.BytesPerOp, bytesSlack)
	// The upload arm too, by B/op and allocs/op alone.
	up, baseUp := measured.Upload.Submit, baseline.Upload.Submit
	checkGrowth("upload submit", "B/op", baseUp.BytesPerOp, up.BytesPerOp, bytesSlack)
	checkGrowth("upload submit", "allocs/op", baseUp.AllocsPerOp, up.AllocsPerOp, b.allocSlack)
	// Like the grouped arm, gated only when the artifact carries it.
	if s := measured.Sweep; s.Ratio1CPU > maxSweepRatio {
		fail("sweep replay: %.2fx one cache per configuration exceeds budget %.2fx at GOMAXPROCS 1 (%d configurations)",
			s.Ratio1CPU, maxSweepRatio, s.Configs)
	}
	return failures
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_telemetry.json",
		"committed baseline artifact")
	measuredPath := flag.String("measured", "",
		"freshly measured artifact (defaults to gating the baseline against itself)")
	var b bounds
	flag.Float64Var(&b.maxOverhead, "max-overhead", defaults.maxOverhead,
		"maximum telemetry-on overhead in percent, per replay arm")
	flag.Float64Var(&b.maxIntrospect, "max-introspect-overhead", defaults.maxIntrospect,
		"maximum introspection-on overhead in percent on the in-memory replay")
	flag.Float64Var(&b.maxTrace, "max-trace-overhead", defaults.maxTrace,
		"maximum trace-attached overhead in percent on the fan-out replay")
	flag.Float64Var(&b.allocSlack, "alloc-slack", defaults.allocSlack,
		"allowed multiple of baseline allocs/op on the file-backed replay and the upload admission")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	measured := baseline
	if *measuredPath != "" {
		measured, err = load(*measuredPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}

	if failures := check(baseline, measured, b); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — in-memory overhead %.1f%%, introspection overhead %.1f%% (budget %.1f%%), "+
		"trace overhead %.1f%% (budget %.1f%%), file-backed overhead %.1f%% (budget %.1f%%); "+
		"file-backed %.2fx in-memory (budget %.2fx); "+
		"file-backed allocs/op off=%d on=%d (baseline %d/%d, slack %.2f); "+
		"grouped replay %.2fx one system (budget %.2fx), %d B/op (baseline %d, slack %.2f); "+
		"sweep replay %.2fx one cache per configuration (budget %.2fx); "+
		"upload submit %d B/op, %d allocs/op (baseline %d/%d)\n",
		measured.OverheadP, measured.IntroOverP, b.maxIntrospect,
		measured.TraceOverP, b.maxTrace,
		measured.File.OverheadP, b.maxOverhead,
		measured.File.Ratio, maxFileRatio,
		measured.File.Off.AllocsPerOp, measured.File.On.AllocsPerOp,
		baseline.File.Off.AllocsPerOp, baseline.File.On.AllocsPerOp, b.allocSlack,
		measured.Grouped.Ratio1CPU, maxGroupedRatio,
		measured.Grouped.Grouped.BytesPerOp, baseline.Grouped.Grouped.BytesPerOp, bytesSlack,
		measured.Sweep.Ratio1CPU, maxSweepRatio,
		measured.Upload.Submit.BytesPerOp, measured.Upload.Submit.AllocsPerOp,
		baseline.Upload.Submit.BytesPerOp, baseline.Upload.Submit.AllocsPerOp)
}
