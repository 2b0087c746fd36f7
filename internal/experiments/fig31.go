package experiments

import (
	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// Fig31 reproduces Figure 3-1: the percentage of misses due to mapping
// conflicts for 4KB instruction and data caches with 16B lines.
func Fig31() Experiment {
	return Experiment{
		ID:    "fig3-1",
		Title: "Figure 3-1: Conflict misses, 4KB I and D caches, 16B lines",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
			names := benchNames()
			type pcts struct{ i, d float64 }
			out := make([]pcts, len(names))
			// One trace pass per benchmark feeds both sides' classifiers.
			cfg.parallelFor(len(names), func(idx int) {
				l1i, cli := cache.MustNew(l1Config(4096, 16)), classify.MustNew(4096, 16)
				l1d, cld := cache.MustNew(l1Config(4096, 16)), classify.MustNew(4096, 16)
				cfg.replay(cfg.Traces.Source(names[idx]), feedL1(iSide, l1i, cli), feedL1(dSide, l1d, cld))
				out[idx].i = stats.Percent(float64(cli.Counts().Conflict), float64(l1i.Stats().Misses))
				out[idx].d = stats.Percent(float64(cld.Counts().Conflict), float64(l1d.Stats().Misses))
			})

			headers := []string{"program", "I conflict %", "D conflict %"}
			var rows [][]string
			var iVals, dVals []float64
			for i, name := range names {
				rows = append(rows, []string{name, fmtPct(out[i].i), fmtPct(out[i].d)})
				iVals = append(iVals, out[i].i)
				dVals = append(dVals, out[i].d)
			}
			rows = append(rows, []string{"average", fmtPct(stats.Mean(iVals)), fmtPct(stats.Mean(dVals))})

			labels := make([]string, 0, len(names)*2)
			vals := make([]float64, 0, len(names)*2)
			for i, name := range names {
				labels = append(labels, name+" (I)", name+" (D)")
				vals = append(vals, out[i].i, out[i].d)
			}
			// Full-precision conflict percentages (X is the benchmark index
			// in paper order) for the golden snapshot suite.
			xs := make([]float64, len(names))
			for i := range xs {
				xs[i] = float64(i)
			}
			series := []textplot.Series{
				{Name: "I conflict %", X: xs, Y: iVals},
				{Name: "D conflict %", X: xs, Y: dVals},
			}
			text := textplot.Bars("Percent of misses due to conflicts", "%", labels, vals, 50) +
				"\n" + textplot.Table(headers, rows)
			return &Result{ID: "fig3-1", Title: "Figure 3-1: Conflict misses, 4KB I and D, 16B lines",
				Text: text, Series: series, Headers: headers, Rows: rows}
		},
	}
}
