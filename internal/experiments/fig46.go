package experiments

import (
	"fmt"
	"math"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// streamParamSweep implements Figures 4-6 and 4-7: percentage of misses
// removed by single and 4-way stream buffers, swept over a cache
// parameter (size or line size), for both the instruction and data sides.
func streamParamSweep(cfg Config, id, title, xLabel string,
	params []int, mkGeom func(p int) (size, line int)) *Result {
	names := benchNames()
	ways := []int{1, 4}

	// results[sideIdx][wayIdx][paramIdx]
	var results [2][2][]float64
	for s := 0; s < 2; s++ {
		for w := 0; w < 2; w++ {
			results[s][w] = make([]float64, len(params))
		}
	}

	// cell is one benchmark, side and parameter value: a level per
	// stream-buffer way count, grouped on the baseline cache.
	type cell struct {
		l1  *cache.Cache
		fes [2]*core.Level
	}
	cells := make([][2][]cell, len(names)) // [bench][side][param]
	// One pass per benchmark feeds every parameter value on both sides.
	cfg.plan(eachBench(func(b int) []*run {
		cells[b] = [2][]cell{make([]cell, len(params)), make([]cell, len(params))}
		var runs []*run
		for pi, p := range params {
			size, line := mkGeom(p)
			for s := iSide; s <= dSide; s++ {
				c := &cells[b][s][pi]
				c.l1 = cache.MustNew(l1Config(size, line))
				for wi, w := range ways {
					c.fes[wi] = level(c.l1, core.Aux{Stream: core.StreamConfig{Ways: w, Depth: 4}})
				}
				runs = append(runs, group(s, nil, c.fes[:]...))
			}
		}
		return runs
	})...)
	for pi := range params {
		for s := 0; s < 2; s++ {
			include := make([]bool, len(names))
			for b := range names {
				include[b] = cells[b][s][pi].l1.Stats().Misses >= minConflictsForAverage
			}
			for wi := range ways {
				vals := make([]float64, len(names))
				for b := range names {
					c := cells[b][s][pi]
					vals[b] = stats.PercentReduction(float64(c.l1.Stats().Misses), float64(c.fes[wi].Stats().FullMisses()))
				}
				results[s][wi][pi] = meanOver(vals, include)
			}
		}
	}

	xs := make([]float64, len(params))
	for i, p := range params {
		xs[i] = math.Log2(float64(p))
	}
	var series []textplot.Series
	for s := 0; s < 2; s++ {
		for wi, w := range ways {
			kind := "single"
			if w == 4 {
				kind = "4-way"
			}
			series = append(series, textplot.Series{
				Name: fmt.Sprintf("%s buffer, %s", kind, side(s)),
				X:    xs, Y: results[s][wi],
			})
		}
	}

	headers := []string{xLabel, "single I", "4-way I", "single D", "4-way D"}
	var rows [][]string
	for pi, p := range params {
		rows = append(rows, []string{fmt.Sprint(p),
			fmtPct(results[0][0][pi]), fmtPct(results[0][1][pi]),
			fmtPct(results[1][0][pi]), fmtPct(results[1][1][pi])})
	}
	text := textplot.Lines(title, "log2("+xLabel+")", "% misses removed", series, 60, 14) +
		"\n" + textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// fig46 reproduces Figure 4-6: stream buffer performance vs cache size
// (1KB to 128KB, 16B lines).
func fig46(cfg Config) *Result {
	return streamParamSweep(cfg, "fig4-6",
		"Figure 4-6: Stream buffer performance vs cache size (16B lines)",
		"cache size (KB)",
		[]int{1, 2, 4, 8, 16, 32, 64, 128},
		func(kb int) (int, int) { return kb * 1024, 16 })
}

// fig47 reproduces Figure 4-7: stream buffer performance vs line size
// (8B to 256B, 4KB caches). The stream buffer's line size follows the
// cache's.
func fig47(cfg Config) *Result {
	return streamParamSweep(cfg, "fig4-7",
		"Figure 4-7: Stream buffer performance vs line size (4KB caches)",
		"line size (B)",
		[]int{8, 16, 32, 64, 128, 256},
		func(line int) (int, int) { return 4096, line })
}
