package experiments

import (
	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// fig31 reproduces Figure 3-1: the percentage of misses due to mapping
// conflicts for 4KB instruction and data caches with 16B lines.
func fig31(cfg Config) *Result {
	names := benchNames()
	type classified struct {
		l1 [2]*cache.Cache
		cl [2]*classify.Classifier
	}
	l1s := make([]classified, len(names))
	// One trace pass per benchmark feeds both sides' classifiers.
	cfg.plan(eachBench(func(b int) []*run {
		c := &l1s[b]
		var runs []*run
		for s := iSide; s <= dSide; s++ {
			c.l1[s], c.cl[s] = cache.MustNew(l1Config(4096, 16)), classify.MustNew(4096, 16)
			runs = append(runs, feedL1(s, c.l1[s], c.cl[s]))
		}
		return runs
	})...)
	conflictPct := func(c classified, s side) float64 {
		return stats.Percent(float64(c.cl[s].Counts().Conflict), float64(c.l1[s].Stats().Misses))
	}

	headers := []string{"program", "I conflict %", "D conflict %"}
	var rows [][]string
	var iVals, dVals []float64
	for i, name := range names {
		iv, dv := conflictPct(l1s[i], iSide), conflictPct(l1s[i], dSide)
		rows = append(rows, []string{name, fmtPct(iv), fmtPct(dv)})
		iVals = append(iVals, iv)
		dVals = append(dVals, dv)
	}
	rows = append(rows, []string{"average", fmtPct(stats.Mean(iVals)), fmtPct(stats.Mean(dVals))})

	labels := make([]string, 0, len(names)*2)
	vals := make([]float64, 0, len(names)*2)
	for i, name := range names {
		labels = append(labels, name+" (I)", name+" (D)")
		vals = append(vals, iVals[i], dVals[i])
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
}
