package experiments

import (
	"fmt"

	"jouppi/internal/hierarchy"
	"jouppi/internal/perfmodel"
	"jouppi/internal/textplot"
)

// bandsRows renders per-benchmark performance bands as stacked bars.
func bandsRows(bands []perfmodel.Bands) [][]textplot.Segment {
	rows := make([][]textplot.Segment, len(bands))
	for i, b := range bands {
		rows[i] = []textplot.Segment{
			{Name: "net", Glyph: '=', Value: b.Net},
			{Name: "aux", Glyph: '+', Value: b.Aux},
			{Name: "L1I", Glyph: 'i', Value: b.L1I},
			{Name: "L1D", Glyph: 'd', Value: b.L1D},
			{Name: "L2", Glyph: '2', Value: b.L2},
		}
	}
	return rows
}

// fig22 reproduces Figure 2-2: baseline design performance — the share of
// potential performance achieved by each benchmark and where the rest is
// lost (L1 instruction misses, L1 data misses, L2 misses).
func fig22(cfg Config) *Result {
	names := benchNames()
	bands := make([]perfmodel.Bands, len(names))
	for b, rs := range cfg.benchResults(hierarchy.Config{}) {
		bands[b] = rs[0].Breakdown.LossBands()
	}

	headers := []string{"program", "net perf %", "lost L1I %", "lost L1D %", "lost L2 %"}
	var rows [][]string
	for i, name := range names {
		b := bands[i]
		rows = append(rows, []string{name, fmtPct(b.Net), fmtPct(b.L1I),
			fmtPct(b.L1D), fmtPct(b.L2)})
	}
	// Full-precision per-benchmark bands (X is the benchmark index in
	// paper order), so downstream consumers — including the golden
	// snapshot suite — see the exact simulated numbers, not the
	// one-decimal renderings in Rows.
	xs := make([]float64, len(names))
	band := func(pick func(perfmodel.Bands) float64) []float64 {
		ys := make([]float64, len(bands))
		for i, b := range bands {
			xs[i] = float64(i)
			ys[i] = pick(b)
		}
		return ys
	}
	series := []textplot.Series{
		{Name: "net", X: xs, Y: band(func(b perfmodel.Bands) float64 { return b.Net })},
		{Name: "lost L1I", X: xs, Y: band(func(b perfmodel.Bands) float64 { return b.L1I })},
		{Name: "lost L1D", X: xs, Y: band(func(b perfmodel.Bands) float64 { return b.L1D })},
		{Name: "lost L2", X: xs, Y: band(func(b perfmodel.Bands) float64 { return b.L2 })},
	}
	text := textplot.StackedBars(
		"Percent of potential performance (= useful) and losses per benchmark",
		names, bandsRows(bands), 60) +
		"\n" + textplot.Table(headers, rows) +
		fmt.Sprintf("\n(baseline: 4KB split I/D, 16B lines, penalties 24/320 instruction times)\n")
	return &Result{ID: "fig2-2", Title: "Figure 2-2: Baseline design performance",
		Text: text, Series: series, Headers: headers, Rows: rows}
}
