package experiments

import (
	"fmt"

	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// overlap reproduces the §5 overlap statistic: how many data-cache misses
// that hit in a 4-entry victim cache would also have hit in a 4-way
// stream buffer. The paper reports ≈2.5% on average for five of the six
// benchmarks, with linpack at ≈50% (but only 4% of linpack's misses hit
// the victim cache at all), concluding victim caches and stream buffers
// are essentially orthogonal.
func overlap(cfg Config) *Result {
	names := benchNames()

	fes := make([]*core.Level, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		fes[b] = level(4096, 16, core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}})
		return []*run{feedLevel(dSide, fes[b])}
	})...)

	headers := []string{"program", "victim hits", "overlap hits", "overlap %",
		"VC hit share of misses"}
	var rows [][]string
	var overlapPcts []float64
	for i, name := range names {
		st := fes[i].Stats()
		op := stats.Percent(float64(st.OverlapHits), float64(st.VictimHits))
		overlapPcts = append(overlapPcts, op)
		rows = append(rows, []string{name,
			fmt.Sprint(st.VictimHits), fmt.Sprint(st.OverlapHits), fmtPct(op),
			fmtPct(stats.Percent(float64(st.VictimHits), float64(st.L1Misses)))})
	}
	rows = append(rows, []string{"average", "", "", fmtPct(stats.Mean(overlapPcts)), ""})
	text := textplot.Table(headers, rows) +
		"\n(paper: ≈2.5% average overlap excluding linpack; linpack ≈50% but with few victim hits)\n"
	return &Result{ID: "overlap", Title: "Victim-cache / stream-buffer overlap",
		Text: text, Headers: headers, Rows: rows}
}
