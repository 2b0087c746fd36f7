package experiments

import (
	"strconv"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/stats"
)

// These tests assert the paper's headline qualitative claims on the real
// reconstructed workloads, with bands loose enough to tolerate workload
// modelling error but tight enough that a broken mechanism fails.

// §4.1/§4.2: single stream buffer removes ~72% of I misses and ~25% of D
// misses; the 4-way buffer roughly doubles the D number (~43%) and leaves
// the I number nearly unchanged.
func TestPaperStreamBufferHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	cfg := smallCfg()
	names := benchNames()

	avgRemoved := func(ways int, s side) float64 {
		l1s := make([]*cache.Cache, len(names))
		fes := make([]*core.Level, len(names))
		cfg.plan(eachBench(func(b int) []*run {
			l1s[b] = cache.MustNew(l1Config(4096, 16))
			fes[b] = level(l1s[b], core.Aux{Stream: core.StreamConfig{Ways: ways, Depth: 4}})
			return []*run{group(s, nil, fes[b])}
		})...)
		vals := make([]float64, len(names))
		include := make([]bool, len(names))
		for i, l1 := range l1s {
			misses := l1.Stats().Misses
			vals[i] = stats.PercentReduction(float64(misses), float64(fes[i].Stats().FullMisses()))
			include[i] = misses >= minConflictsForAverage
		}
		return meanOver(vals, include)
	}

	singleI := avgRemoved(1, iSide)
	singleD := avgRemoved(1, dSide)
	fourI := avgRemoved(4, iSide)
	fourD := avgRemoved(4, dSide)

	if singleI < 55 || singleI > 90 {
		t.Errorf("single buffer I misses removed = %.1f%%, paper ≈72%%", singleI)
	}
	if singleD < 12 || singleD > 40 {
		t.Errorf("single buffer D misses removed = %.1f%%, paper ≈25%%", singleD)
	}
	if fourD < 30 || fourD > 60 {
		t.Errorf("4-way buffer D misses removed = %.1f%%, paper ≈43%%", fourD)
	}
	if fourD < singleD+10 {
		t.Errorf("4-way D (%.1f%%) should substantially beat single (%.1f%%)", fourD, singleD)
	}
	if diff := fourI - singleI; diff < -5 || diff > 10 {
		t.Errorf("4-way I (%.1f%%) should be nearly unchanged vs single (%.1f%%)", fourI, singleI)
	}
}

// §4.2: liver's data side is the paper's showcase for multi-way buffers
// (7% → 60%).
func TestPaperLiverMultiWayShowcase(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	cfg := smallCfg()
	l1 := cache.MustNew(l1Config(4096, 16))
	fes := []*core.Level{
		level(l1, core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}}),
		level(l1, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4}}),
	}
	cfg.plan(&pass{bench: "liver", runs: []*run{group(dSide, nil, fes...)}})
	removed := func(fe *core.Level) float64 {
		return stats.PercentReduction(float64(l1.Stats().Misses), float64(fe.Stats().FullMisses()))
	}
	single, four := removed(fes[0]), removed(fes[1])
	if single > 20 {
		t.Errorf("liver single-buffer removal = %.1f%%, paper ≈7%%", single)
	}
	if four < 40 {
		t.Errorf("liver 4-way removal = %.1f%%, paper ≈60%%", four)
	}
	if four < single*3 {
		t.Errorf("liver 4-way (%.1f%%) should dwarf single (%.1f%%)", four, single)
	}
}

// §3.2: victim caching beats miss caching on every benchmark and entry
// count, on the real workloads.
func TestPaperVictimBeatsMissCacheOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	res := exhibit(t, "ablation-misscmp").Run(smallCfg())
	if !strings.Contains(res.Text, "violations: 0") {
		t.Errorf("victim-vs-miss-cache violations reported:\n%s", res.Text)
	}
}

// Abstract: "victim caches and stream buffers reduce the miss rate of the
// first level ... by a factor of two to three", and Figure 5-1 reports an
// average system speedup of 143%. Check the improved system lands in the
// right regime.
func TestPaperImprovedSystemHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	res := exhibit(t, "fig5-1").Run(smallCfg())
	// Parse the per-benchmark speedups from the structured rows.
	var speedups []float64
	for _, row := range res.Rows {
		s := strings.TrimSuffix(row[3], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
		speedups = append(speedups, v)
	}
	if len(speedups) != 6 {
		t.Fatalf("expected 6 benchmarks, got %d", len(speedups))
	}
	mean := stats.Mean(speedups)
	if mean < 1.4 || mean > 3.5 {
		t.Errorf("mean speedup %.2fx outside the paper's regime (≈2.4x)", mean)
	}
	for i, v := range speedups {
		if v < 1.0 {
			t.Errorf("benchmark %s slowed down: %.2fx", res.Rows[i][0], v)
		}
	}
}

// §5: victim-cache hits and stream-buffer hits barely overlap (≈2.5%).
func TestPaperOverlapIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	res := exhibit(t, "overlap").Run(smallCfg())
	avgRow := res.Rows[len(res.Rows)-1]
	if avgRow[0] != "average" {
		t.Fatalf("last row is %v, want average", avgRow)
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(avgRow[3], "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if pct > 12 {
		t.Errorf("average overlap %.1f%%, paper ≈2.5%%", pct)
	}
}

// Figure 3-1: conflict misses average ≈39% of data misses and ≈29% of
// instruction misses; met has the highest data conflict fraction.
func TestPaperConflictFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	res := exhibit(t, "fig3-1").Run(smallCfg())
	get := func(name string, col int) float64 {
		for _, row := range res.Rows {
			if row[0] == name {
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
				if err != nil {
					t.Fatalf("bad cell %q", row[col])
				}
				return v
			}
		}
		t.Fatalf("row %q not found", name)
		return 0
	}
	avgD := get("average", 2)
	if avgD < 20 || avgD > 60 {
		t.Errorf("average D conflict fraction %.1f%%, paper ≈39%%", avgD)
	}
	metD := get("met", 2)
	for _, other := range []string{"ccom", "grr", "yacc", "linpack", "liver"} {
		if get(other, 2) >= metD {
			t.Errorf("met should have the highest D conflict fraction; %s has %.1f%% ≥ %.1f%%",
				other, get(other, 2), metD)
		}
	}
}

// §4: tagged prefetch needs its lines back within a few instructions on
// ccom's I-stream (the Figure 4-1 argument for stream buffers).
func TestPaperPrefetchTimeIsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape tests skipped in -short mode")
	}
	res := exhibit(t, "fig4-1").Run(smallCfg())
	// Find the cumulative percentage at 8 instructions for prefetch on
	// miss: a large share of prefetches must already be needed.
	for _, row := range res.Rows {
		if row[0] == "8" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 40 {
				t.Errorf("only %.1f%% of on-miss prefetches needed within 8 instructions; paper expects most", v)
			}
			return
		}
	}
	t.Fatal("row for 8 instructions not found")
}
