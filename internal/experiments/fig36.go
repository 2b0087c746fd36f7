package experiments

import (
	"fmt"
	"math"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// victimVsParamSweep implements the shared shape of Figures 3-6 and 3-7:
// the percentage of data-cache conflict misses removed by victim caches of
// 1, 2, 4, and 15 entries, swept over a cache parameter (size or line
// size), plus the percentage of misses that are conflicts at each point.
func victimVsParamSweep(cfg Config, id, title, xLabel string,
	params []int, mkGeom func(p int) (size, line int)) *Result {
	names := benchNames()
	entries := []int{1, 2, 4, 15}

	type point struct {
		removed  [4]float64 // average % conflict misses removed per entry count
		conflict float64    // average % of misses that are conflicts
	}
	points := make([]point, len(params))

	// cell is one benchmark at one parameter value: a victim-cached
	// level per entry count, grouped on one classified baseline cache.
	type cell struct {
		l1  *cache.Cache
		cl  *classify.Classifier
		fes [4]*core.Level
	}
	cells := make([][]cell, len(names)) // [bench][param]
	// One pass per benchmark covers every parameter value.
	cfg.plan(eachBench(func(b int) []*run {
		cells[b] = make([]cell, len(params))
		var runs []*run
		for pi, p := range params {
			size, line := mkGeom(p)
			c := &cells[b][pi]
			c.l1, c.cl = cache.MustNew(l1Config(size, line)), classify.MustNew(size, line)
			for ei, e := range entries {
				c.fes[ei] = level(c.l1, core.Aux{Victim: e})
			}
			runs = append(runs, group(dSide, c.cl, c.fes[:]...))
		}
		return runs
	})...)

	for pi := range params {
		include := make([]bool, len(names))
		conflictPcts := make([]float64, len(names))
		var removed [4][]float64 // [entryIdx][bench]
		for ei := range removed {
			removed[ei] = make([]float64, len(names))
		}
		for b := range names {
			c := cells[b][pi]
			misses, conflicts := c.l1.Stats().Misses, c.cl.Counts().Conflict
			include[b] = conflicts >= minConflictsForAverage
			conflictPcts[b] = stats.Percent(float64(conflicts), float64(misses))
			for ei, fe := range c.fes {
				removedMisses := float64(misses) - float64(fe.Stats().FullMisses())
				removed[ei][b] = min(100, stats.Percent(removedMisses, float64(conflicts)))
			}
		}
		points[pi].conflict = stats.Mean(conflictPcts)
		for ei := range entries {
			points[pi].removed[ei] = meanOver(removed[ei], include)
		}
	}

	xs := make([]float64, len(params))
	for i, p := range params {
		xs[i] = math.Log2(float64(p))
	}
	var series []textplot.Series
	for ei, e := range entries {
		ys := make([]float64, len(params))
		for pi := range params {
			ys[pi] = points[pi].removed[ei]
		}
		series = append(series, textplot.Series{
			Name: fmt.Sprintf("%d-entry victim cache", e), X: xs, Y: ys})
	}
	confYs := make([]float64, len(params))
	for pi := range params {
		confYs[pi] = points[pi].conflict
	}
	series = append(series, textplot.Series{Name: "% conflict misses", X: xs, Y: confYs})

	headers := []string{xLabel, "1-entry", "2-entry", "4-entry", "15-entry", "% conflicts"}
	var rows [][]string
	for pi, p := range params {
		rows = append(rows, []string{
			fmt.Sprint(p),
			fmtPct(points[pi].removed[0]), fmtPct(points[pi].removed[1]),
			fmtPct(points[pi].removed[2]), fmtPct(points[pi].removed[3]),
			fmtPct(points[pi].conflict),
		})
	}
	text := textplot.Lines(title, "log2("+xLabel+")", "% D conflict misses removed",
		series, 60, 14) + "\n" + textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// fig36 reproduces Figure 3-6: victim cache performance as the
// direct-mapped data cache size varies from 1KB to 128KB (16B lines).
func fig36(cfg Config) *Result {
	return victimVsParamSweep(cfg, "fig3-6",
		"Figure 3-6: Victim cache performance vs data cache size (16B lines)",
		"cache size (KB)",
		[]int{1, 2, 4, 8, 16, 32, 64, 128},
		func(kb int) (int, int) { return kb * 1024, 16 })
}

// fig37 reproduces Figure 3-7: victim cache performance as the data cache
// line size varies from 8B to 256B (4KB cache).
func fig37(cfg Config) *Result {
	return victimVsParamSweep(cfg, "fig3-7",
		"Figure 3-7: Victim cache performance vs line size (4KB cache)",
		"line size (B)",
		[]int{8, 16, 32, 64, 128, 256},
		func(line int) (int, int) { return 4096, line })
}
