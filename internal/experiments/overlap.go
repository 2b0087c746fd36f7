package experiments

import (
	"fmt"

	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// Overlap reproduces the §5 overlap statistic: how many data-cache misses
// that hit in a 4-entry victim cache would also have hit in a 4-way
// stream buffer. The paper reports ≈2.5% on average for five of the six
// benchmarks, with linpack at ≈50% (but only 4% of linpack's misses hit
// the victim cache at all), concluding victim caches and stream buffers
// are essentially orthogonal.
func Overlap() Experiment {
	return Experiment{
		ID:    "overlap",
		Title: "Section 5: victim-cache / stream-buffer overlap",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
			names := benchNames()

			type row struct {
				victimHits, overlap, misses uint64
			}
			out := make([]row, len(names))
			cfg.parallelFor(len(names), func(i int) {
				fe := level(4096, 16, core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}})
				cfg.replay(cfg.Traces.Source(names[i]), feedLevel(dSide, fe))
				st := fe.Stats()
				out[i] = row{st.VictimHits, st.OverlapHits, st.L1Misses}
			})

			headers := []string{"program", "victim hits", "overlap hits", "overlap %",
				"VC hit share of misses"}
			var rows [][]string
			var overlapPcts []float64
			for i, name := range names {
				r := out[i]
				op := stats.Percent(float64(r.overlap), float64(r.victimHits))
				overlapPcts = append(overlapPcts, op)
				rows = append(rows, []string{name,
					fmt.Sprint(r.victimHits), fmt.Sprint(r.overlap), fmtPct(op),
					fmtPct(stats.Percent(float64(r.victimHits), float64(r.misses)))})
			}
			rows = append(rows, []string{"average", "", "", fmtPct(stats.Mean(overlapPcts)), ""})
			text := textplot.Table(headers, rows) +
				"\n(paper: ≈2.5% average overlap excluding linpack; linpack ≈50% but with few victim hits)\n"
			return &Result{ID: "overlap", Title: "Victim-cache / stream-buffer overlap",
				Text: text, Headers: headers, Rows: rows}
		},
	}
}
