package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestInputsFollowTheSeed(t *testing.T) {
	enc := func(seed uint64, format string) []byte {
		data, err := encodeTrace(genTrace(seed, streamDin, 5000), format)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, format := range []string{"din", "jtr"} {
		if !bytes.Equal(enc(1, format), enc(1, format)) {
			t.Errorf("%s: seed 1 made different inputs twice", format)
		}
		if bytes.Equal(enc(1, format), enc(2, format)) {
			t.Errorf("%s: seeds 1 and 2 made the same inputs", format)
		}
	}
	if bytes.Equal(enc(1, "din"), func() []byte {
		data, _ := encodeTrace(genTrace(1, streamSweep, 5000), "din")
		return data
	}()) {
		t.Error("two input streams of one seed are the same")
	}
	up := func(seed uint64) []byte { return newUpload(genTrace(seed, streamUpload, 5000), "x").din(nil, 3) }
	if !bytes.Equal(up(1), up(1)) || bytes.Equal(up(1), up(2)) {
		t.Error("upload variants do not follow the seed")
	}
	if mixedDigest(1) != mixedDigest(1) || mixedDigest(1) == mixedDigest(2) {
		t.Error("svc-mixed schedule does not follow the seed")
	}
}

// An upload variant is the base trace with every address moved by a
// multiple of 16 MiB; its din text must say exactly that, and every
// system must give it the base trace's results.
func TestUploadVariantsHaveTheBaseResults(t *testing.T) {
	refs := genTrace(3, streamUpload, 20000)
	u := newUpload(refs, "")
	for _, k := range []uint64{1, 7, 0x1ff} {
		shifted := make([]access, len(refs))
		for i, a := range refs {
			shifted[i] = access{a.addr + k*addrLimit, a.kind}
		}
		want, err := encodeTrace(shifted, "din")
		if err != nil {
			t.Fatal(err)
		}
		if got := u.din(nil, k); !bytes.Equal(got, want) {
			t.Fatalf("variant %d din text differs from the shifted trace", k)
		}
		for _, spec := range uploadSpecs {
			base, err := replaySystem(spec, refs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replaySystem(spec, shifted)
			if err != nil {
				t.Fatal(err)
			}
			if !got.same(base) {
				t.Errorf("variant %d, %s: %+v, base %+v", k, spec, got, base)
			}
		}
	}
}

// Fresh svc-mixed jobs differ from their base job only in the last bits
// of the scale, which must not change the generated trace.
func TestScaleVariantsHaveTheBaseResults(t *testing.T) {
	for _, b := range mixedBenchmarks {
		base, err := runBenchmark(b, mixedScale, "sys=improved")
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []benchJob{{b, 1}, {b, mixedPrewarm}, {b, freshBase + 123456}} {
			if j.scale() == mixedScale {
				t.Fatalf("variant %d has the base scale", j.variant)
			}
			got, err := runBenchmark(b, j.scale(), "sys=improved")
			if err != nil {
				t.Fatal(err)
			}
			if !got.same(base) {
				t.Errorf("%s variant %d: %+v, base %+v", b, j.variant, got, base)
			}
		}
	}
}

// Every block of svc-mixed's schedule has the same mix, so runs of
// different seeds and lengths make the same share of each kind of op.
func TestMixedBlocksHaveTheFixedMix(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for b := uint64(0); b < 4; b++ {
			reads, fresh := 0, map[string]int{}
			for k := b * mixedBlock; k < (b+1)*mixedBlock; k++ {
				j, read := mixedOp(seed, k)
				if read {
					reads++
					continue
				}
				if j.variant != freshBase+k {
					t.Errorf("seed %d op %d: fresh job variant %d", seed, k, j.variant)
				}
				fresh[j.bench]++
			}
			if reads != mixedReads {
				t.Errorf("seed %d block %d: %d reads, want %d", seed, b, reads, mixedReads)
			}
			for _, bench := range mixedBenchmarks {
				if fresh[bench] != (mixedBlock-mixedReads)/len(mixedBenchmarks) {
					t.Errorf("seed %d block %d: fresh jobs %v", seed, b, fresh)
				}
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90,
		199: 90, 200: 95, 300: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := maxPercentile(n); got != want {
			t.Errorf("maxPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %g", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g", got)
	}
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 7.7, 4.4, 9.9}, 2.15, 8.8},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 9, 1.5, 4, 4, 7.25, 3}, 2.5, 7.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// Throughput is ops ÷ summed latency per whole block of ops, the median
// over the blocks: a slow block and a partial one do not move it, and a
// run shorter than a block is taken whole.
func TestThroughputIsTheMedianBlock(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ops []opStat
	add := func(from, to int64, latency time.Duration) {
		for k := from; k < to; k++ {
			ops = append(ops, opStat{seq: k, start: t0, end: t0.Add(latency), simAcc: 1000})
		}
	}
	add(0, blockOps, 10*time.Millisecond)
	add(blockOps, 2*blockOps, 20*time.Millisecond)
	add(2*blockOps, 3*blockOps, 10*time.Millisecond)
	add(3*blockOps, 3*blockOps+5, time.Millisecond)
	wall := func(o opStat) float64 { return ms(o.wall()) }
	if opsPerS, accPerS := throughput(ops, wall); math.Abs(opsPerS-100) > 1e-9 || math.Abs(accPerS-100_000) > 1e-6 {
		t.Errorf("%g ops/s, %g acc/s, want 100 and 100000", opsPerS, accPerS)
	}
	if opsPerS, _ := throughput(ops[3*blockOps:], wall); math.Abs(opsPerS-1000) > 1e-9 {
		t.Errorf("a run shorter than a block: %g ops/s, want 1000", opsPerS)
	}
}

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := [][2]time.Time{{at(5), at(20)}, {at(0), at(10)}, {at(30), at(50)}, {at(12), at(15)}, {at(90), at(200)}}
	if got := covered(at(0), at(100), ivs); got != 50*time.Millisecond {
		t.Errorf("covered = %v, want 50ms", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	spec, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkFile(t *testing.T) {
	spec := readSpec(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		name(w.Name)
		listed = append(listed, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(code, listed) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code runs %v", listed, code)
	}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q or better %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	// Bounds are at most 10%, except set-up time's, the noisiest metric,
	// which has the largest.
	setup := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup <= 0 || setup > 0.25 {
		t.Errorf("setup_s: bound %g outside (0, 0.25]", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Name != "setup_s" && (m.Bound <= 0 || m.Bound > min(0.1, setup)) {
			t.Errorf("metric %s: bound %g outside (0, min(0.1, setup_s bound %g)]", m.Name, m.Bound, setup)
		}
	}
	if spec.RunSeconds != 25 {
		t.Errorf("run_seconds %d differs from the -seconds default 25", spec.RunSeconds)
	}
}

// Only layers.go may import the program's packages, and not the ones due
// to be merged.
func TestOnlyLayersImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "jouppi/") {
				continue
			}
			if f != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may", f, path)
			}
			for _, banned := range []string{"fanout", "shardreplay", "hierarchy", "experiments"} {
				if strings.HasSuffix(path, "/"+banned) {
					t.Errorf("%s imports %s", f, path)
				}
			}
		}
	}
}

func TestParseSingleIgnoresAddedLines(t *testing.T) {
	out := `configuration:   combined-vc4-sb4x4 over 4096B/16B/1-way cache
accesses:        372690
L1 hits:         296406
a new line:      17
L1 misses:       76284 (raw rate 0.2047)
aux hits:        26007 (victim 19909, miss-cache 0, stream 6098)
full misses:     50277 (effective rate 0.1349)
prefetches:      207206 issued, 6098 used (2.9% accuracy)
stall cycles:    1246277 (3.34 per access)
`
	got, err := parseSingle([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := feNums{Accesses: 372690, L1Hits: 296406, L1Misses: 76284, AuxHits: 26007,
		VictimHits: 19909, StreamHits: 6098, FullMisses: 50277,
		PrefetchIssued: 207206, PrefetchUsed: 6098, StallCycles: 1246277}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if _, err := parseSingle([]byte(strings.Replace(out, "L1 hits", "L1 hit", 1))); err == nil {
		t.Error("a missing counter went unnoticed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slightly worse", steady, []float64{104, 105, 103, 104, 106, 102}, "lower", "ok"},
		{"worse", steady, []float64{120, 121, 119, 120, 122, 118}, "lower", "worse"},
		{"worse when higher is better", steady, []float64{80, 81, 79, 80, 82, 78}, "higher", "worse"},
		{"better", steady, []float64{80, 81, 79, 80, 82, 78}, "lower", "ok"},
		{"noisy", []float64{60, 140, 100, 70, 130, 100}, []float64{120, 90, 130, 110, 100, 125}, "lower", "unresolved"},
		{"noisy but every run better", []float64{60, 140, 100, 70, 130, 100}, []float64{50, 51, 52, 53, 54, 55}, "lower", "ok"},
		{"noisy, every run worse by more than the bound", []float64{60, 140, 100, 70, 130, 100}, []float64{160, 170, 155, 165, 158, 162}, "lower", "worse"},
		{"noisy, every run worse but within the bound", []float64{60, 140, 100, 70, 130, 100}, []float64{145, 150, 146, 148, 147, 149}, "lower", "unresolved"},
		{"noisy, every run worse by more than the bound when higher is better", []float64{60, 140, 100, 70, 130, 100}, []float64{50, 51, 52, 53, 50, 52}, "higher", "worse"},
	} {
		if got := compareMetric(c.a, c.b, c.better, 0.1); got.verdict != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.verdict, got, c.want)
		}
	}
}

// A short run of every workload checks every op and emits exactly the
// metrics BENCHMARK.json lists: the end-to-end ones untraced, the
// per-layer ones traced, each from the workload's own ops and the ladder.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	spec := readSpec(t)
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	ctx := context.Background()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, work: t.TempDir(), bin: t.TempDir(), seed: 5, sz: sizes{
		dinRecords: 20_000, sweepRecords: 20_000, uploadRecords: 10_000,
		setups: 2, reps: 1, sample: 3, svcRun: 300 * time.Millisecond,
	}}
	if err := build(ctx, root, e.bin); err != nil {
		t.Fatal(err)
	}
	if err := startGauge(e.bin); err != nil {
		t.Fatal(err)
	}
	defer stopGauge()
	check := func(w workload, traced bool, want []string) {
		rec, err := runWorkload(ctx, e, w, 300*time.Millisecond, traced, filepath.Join(e.work, "spans.json"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed > 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, rec.Failed, rec.Attempted, rec.Errors)
		}
		var got []string
		for k, m := range rec.Metrics {
			got = append(got, k)
			if m.Value != m.Value {
				t.Errorf("%s: %s is NaN", w.name, k)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s traced=%t: emitted %v, BENCHMARK.json lists %v", w.name, traced, got, want)
		}
	}
	for _, w := range workloads {
		check(w, false, names(spec.EndToEnd))
		check(w, true, names(spec.PerLayer))
		data, err := os.ReadFile(filepath.Join(e.work, "spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s spans file: %d spans, %v", w.name, len(spans), err)
		}
	}
}
