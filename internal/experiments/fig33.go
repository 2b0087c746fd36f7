package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// conflictRemovalSweep runs the Figure 3-3/3-5 methodology: for each
// benchmark, side, and entry count, the percentage of the baseline's
// conflict misses removed by the structure aux(entries) declares.
// Benchmarks with almost no conflict misses on a side (liver/linpack
// instruction caches) are excluded from the cross-benchmark average,
// mirroring the paper's treatment of programs whose miss rates it reports
// as 0.000.
func conflictRemovalSweep(cfg Config, id, title string, aux func(entries int) core.Aux,
	entries []int, cacheSize, lineSize int) *Result {
	names := benchNames()

	// Per benchmark and side: the classified baseline and a level per
	// entry count, all fed by one pass over the benchmark.
	type sweep struct {
		l1  [2]*cache.Cache
		cl  [2]*classify.Classifier
		fes [2][]*core.Level
	}
	sweeps := make([]sweep, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		sw := &sweeps[b]
		var runs []*run
		for s := iSide; s <= dSide; s++ {
			sw.l1[s], sw.cl[s] = cache.MustNew(l1Config(cacheSize, lineSize)), classify.MustNew(cacheSize, lineSize)
			runs = append(runs, feedL1(s, sw.l1[s], sw.cl[s]))
			for _, e := range entries {
				fe := level(cacheSize, lineSize, aux(e))
				sw.fes[s] = append(sw.fes[s], fe)
				runs = append(runs, feedLevel(s, fe))
			}
		}
		return runs
	})...)

	// Per (side, entry count, benchmark) → percent of conflict misses
	// removed, and the cross-benchmark averages with the low-conflict
	// exclusion.
	removed := make([][]float64, 2)    // [side][entryIdx] average
	perBench := make([][][]float64, 2) // [side][entryIdx][bench]
	for s := 0; s < 2; s++ {
		perBench[s] = make([][]float64, len(entries))
		for e := range entries {
			perBench[s][e] = make([]float64, len(names))
		}
		include := make([]bool, len(names))
		for b, sw := range sweeps {
			misses, conflict := sw.l1[s].Stats().Misses, sw.cl[s].Counts().Conflict
			include[b] = conflict >= minConflictsForAverage
			for e, fe := range sw.fes[s] {
				removedMisses := float64(misses) - float64(fe.Stats().FullMisses())
				// A large victim cache adds real capacity, so on benchmarks
				// with few conflict misses (liver) it can remove more misses
				// than the baseline had conflicts; clamp to 100% as the
				// figure's metric is a share of conflict misses.
				perBench[s][e][b] = min(100, stats.Percent(removedMisses, float64(conflict)))
			}
		}
		removed[s] = make([]float64, len(entries))
		for e := range entries {
			removed[s][e] = meanOver(perBench[s][e], include)
		}
	}

	xs := make([]float64, len(entries))
	for i, e := range entries {
		xs[i] = float64(e)
	}
	series := []textplot.Series{
		{Name: "L1 I-cache (avg)", X: xs, Y: removed[0]},
		{Name: "L1 D-cache (avg)", X: xs, Y: removed[1]},
	}

	headers := []string{"program", "side"}
	for _, e := range entries {
		headers = append(headers, fmt.Sprintf("%d", e))
	}
	var rows [][]string
	for b, name := range names {
		for s := 0; s < 2; s++ {
			row := []string{name, map[int]string{0: "I", 1: "D"}[s]}
			for e := range entries {
				row = append(row, fmtPct(perBench[s][e][b]))
			}
			rows = append(rows, row)
		}
	}

	text := textplot.Lines(title+fmt.Sprintf(" (%dKB caches, %dB lines)", cacheSize/1024, lineSize),
		"entries", "% conflict misses removed", series, 60, 14) +
		"\nPer-benchmark percentage of conflict misses removed vs entries:\n" +
		textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// fig33 reproduces Figure 3-3: conflict misses removed by miss caching as
// the number of entries grows from 1 to 15.
func fig33(cfg Config) *Result {
	return conflictRemovalSweep(cfg, "fig3-3", "Figure 3-3: Conflict misses removed by miss caching",
		func(e int) core.Aux { return core.Aux{MissCache: e} },
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
}

// fig35 reproduces Figure 3-5: conflict misses removed by victim caching.
func fig35(cfg Config) *Result {
	return conflictRemovalSweep(cfg, "fig3-5", "Figure 3-5: Conflict misses removed by victim caching",
		func(e int) core.Aux { return core.Aux{Victim: e} },
		[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
}
