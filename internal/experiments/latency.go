package experiments

import (
	"fmt"

	"jouppi/internal/hierarchy"
	"jouppi/internal/perfmodel"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// ablationLatency tests the paper's opening argument (Table 1-1): as the
// gap between processor and memory speed grows, the memory hierarchy eats
// an ever larger share of performance — and the victim-cache/stream-buffer
// techniques recover an ever larger speedup. The sweep scales the paper's
// baseline penalties (24/320 instruction times) down and up.
func ablationLatency(cfg Config) *Result {
	names := benchNames()

	type point struct {
		l1Pen, l2Pen int
	}
	points := []point{
		{6, 80},    // VAX-era ratio
		{12, 160},  // half the baseline
		{24, 320},  // the paper's baseline system
		{48, 640},  // projected
		{96, 1280}, // deep-future projection (≳100 instr times)
	}

	type cell struct {
		basePct float64 // mean % of potential, baseline
		impPct  float64 // mean % of potential, improved
		speedup float64 // mean speedup
	}
	mk := func(pt point, base hierarchy.Config) hierarchy.Config {
		base.Timing.MissPenalty = pt.l1Pen
		base.Timing.FillLatency = pt.l1Pen
		base.Timing.AuxPenalty = 1
		base.Timing.FillInterval = 4
		base.Perf = perfmodel.Params{
			L1MissPenalty: pt.l1Pen,
			L2MissPenalty: pt.l2Pen,
			AuxHitPenalty: 1,
		}
		return base
	}
	// One pass per benchmark: a baseline and an improved system
	// at every latency point.
	var sysCfgs []hierarchy.Config
	for _, pt := range points {
		sysCfgs = append(sysCfgs, mk(pt, hierarchy.Config{}), mk(pt, improvedConfig()))
	}
	rs := cfg.benchResults(sysCfgs...)
	out := make([]cell, len(points))
	for pi := range points {
		var basePcts, impPcts, speedups []float64
		for b := range names {
			rb, ri := rs[b][2*pi], rs[b][2*pi+1]
			basePcts = append(basePcts, rb.Breakdown.PercentOfPotential())
			impPcts = append(impPcts, ri.Breakdown.PercentOfPotential())
			speedups = append(speedups, perfmodel.Speedup(rb.Breakdown, ri.Breakdown))
		}
		out[pi] = cell{
			basePct: stats.Mean(basePcts),
			impPct:  stats.Mean(impPcts),
			speedup: stats.Mean(speedups),
		}
	}

	headers := []string{"L1/L2 penalty", "baseline % potential", "improved % potential", "mean speedup"}
	var rows [][]string
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for pi, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d/%d", pt.l1Pen, pt.l2Pen),
			fmtPct(out[pi].basePct),
			fmtPct(out[pi].impPct),
			fmt.Sprintf("%.2fx", out[pi].speedup),
		})
		xs[pi] = float64(pt.l1Pen)
		ys[pi] = out[pi].speedup
	}
	series := []textplot.Series{{Name: "mean speedup of improved system", X: xs, Y: ys}}
	text := textplot.Lines(
		"Speedup of victim caches + stream buffers vs first-level miss penalty",
		"L1 miss penalty (instruction times)", "speedup", series, 60, 12) +
		"\n" + textplot.Table(headers, rows) +
		"\n(the paper's Table 1-1 trend: as memory latency grows from VAX-era to\n" +
		" projected 100+-instruction-time misses, the baseline loses most of its\n" +
		" performance and the paper's hardware recovers an increasing multiple)\n"
	return &Result{ID: "ablation-latency", Title: "Benefit vs memory latency",
		Text: text, Series: series, Headers: headers, Rows: rows}
}
