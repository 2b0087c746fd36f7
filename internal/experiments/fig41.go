package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/memtrace"
	"jouppi/internal/prefetch"
	"jouppi/internal/textplot"
)

// fig41 reproduces Figure 4-1: how little time there is between issuing a
// prefetch and needing its data, measured on ccom's instruction stream
// with 16B lines for the three classic prefetch techniques. The paper's
// point: with four instructions per line, prefetched lines are needed
// within about four instruction issues on straight-line code, so
// single-line-lookahead prefetching cannot hide a 24-cycle fill.
func fig41(cfg Config) *Result {
	const buckets = 27

	policies := []prefetch.Policy{prefetch.OnMiss, prefetch.Tagged, prefetch.Always}
	// One pass over ccom feeds all three prefetchers.
	hists := make([]*prefetch.TimeToUse, len(policies))
	runs := make([]*run, len(policies))
	for i, pol := range policies {
		hists[i] = prefetch.NewTimeToUse(buckets)
		pf := prefetch.New(cache.MustNew(l1Config(4096, 16)), pol,
			prefetch.Timing{MissPenalty: 24, FillLatency: 24}, hists[i])
		runs[i] = feedFunc(iSide, func(a memtrace.Access) { pf.Access(uint64(a.Addr), a.Kind == memtrace.Store) })
	}
	cfg.plan(&pass{bench: "ccom", runs: runs})

	xs := make([]float64, buckets)
	for i := range xs {
		xs[i] = float64(i)
	}
	var series []textplot.Series
	for i, p := range policies {
		series = append(series, textplot.Series{
			Name: p.String(), X: xs, Y: hists[i].CumulativePercent()})
	}

	headers := []string{"instr. until needed", "on-miss cum%", "tagged cum%", "always cum%"}
	var rows [][]string
	cums := [][]float64{hists[0].CumulativePercent(), hists[1].CumulativePercent(),
		hists[2].CumulativePercent()}
	for x := 0; x < buckets; x += 2 {
		rows = append(rows, []string{fmt.Sprint(x),
			fmtPct(cums[0][x]), fmtPct(cums[1][x]), fmtPct(cums[2][x])})
	}
	text := textplot.Lines(
		"Figure 4-1: Cumulative % of used prefetches needed within N instruction issues",
		"instruction issues until line needed", "cumulative % of used prefetches",
		series, 60, 14) + "\n" + textplot.Table(headers, rows) +
		fmt.Sprintf("\n(used prefetches: on-miss %d, tagged %d, always %d; never-used evictions: %d / %d / %d)\n",
			hists[0].Total(), hists[1].Total(), hists[2].Total(),
			hists[0].Never, hists[1].Never, hists[2].Never)
	return &Result{ID: "fig4-1", Title: "Figure 4-1: Limited time for prefetch",
		Text: text, Series: series, Headers: headers, Rows: rows}
}
