package experiments

import (
	"fmt"

	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/perfmodel"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// improvedConfig is the paper's §5 improved system: a single stream
// buffer on the instruction cache; a 4-entry victim cache plus a 4-way
// stream buffer on the data cache.
func improvedConfig() hierarchy.Config {
	return hierarchy.Config{
		IAugment: core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}},
		DAugment: core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}},
	}
}

// fig51 reproduces Figure 5-1: system performance of the baseline versus
// the improved system with a data victim cache, an instruction stream
// buffer, and a four-way data stream buffer.
func fig51(cfg Config) *Result {
	names := benchNames()

	out := cfg.benchResults(hierarchy.Config{}, improvedConfig())

	headers := []string{"program", "base perf %", "improved perf %", "speedup",
		"base missrate I/D", "improved missrate I/D"}
	var rows [][]string
	var speedups, missReductions []float64
	var bands []perfmodel.Bands
	var labels []string
	for i, name := range names {
		b, im := out[i][0], out[i][1]
		sp := perfmodel.Speedup(b.Breakdown, im.Breakdown)
		speedups = append(speedups, sp)
		baseMR := b.I.MissRate() + b.D.MissRate()
		imMR := im.I.MissRate() + im.D.MissRate()
		missReductions = append(missReductions, stats.PercentReduction(baseMR, imMR))
		rows = append(rows, []string{
			name,
			fmtPct(b.Breakdown.PercentOfPotential()),
			fmtPct(im.Breakdown.PercentOfPotential()),
			fmt.Sprintf("%.2fx", sp),
			fmt.Sprintf("%s/%s", fmtRate(b.I.MissRate()), fmtRate(b.D.MissRate())),
			fmt.Sprintf("%s/%s", fmtRate(im.I.MissRate()), fmtRate(im.D.MissRate())),
		})
		labels = append(labels, name+" base", name+" +vc/sb")
		bands = append(bands, b.Breakdown.LossBands(), im.Breakdown.LossBands())
	}

	avgSpeedup := stats.Mean(speedups)
	avgImprovementPct := (avgSpeedup - 1) * 100
	text := textplot.StackedBars(
		"Figure 5-1: share of potential performance, baseline vs improved system",
		labels, bandsRows(bands), 60) +
		"\n" + textplot.Table(headers, rows) +
		fmt.Sprintf("\naverage system performance improvement: %.0f%% (mean speedup %.2fx)\n",
			avgImprovementPct, avgSpeedup) +
		fmt.Sprintf("average L1 miss-rate reduction: %.0f%% (paper: factor of two to three)\n",
			stats.Mean(missReductions))
	return &Result{ID: "fig5-1", Title: "Figure 5-1: Improved system performance",
		Text: text, Headers: headers, Rows: rows}
}
