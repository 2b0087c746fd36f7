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
	cfg = cfg.withDefaults()
	names := benchNames()

	// Per (benchmark, side, entry count) → percent of conflict misses
	// removed, and each baseline's conflict count.
	removed := make([][]float64, 2) // [side][entryIdx] average
	perBench := make([][][]float64, 2)
	conflicts := make([][]uint64, 2) // [side][bench]
	for s := 0; s < 2; s++ {
		removed[s] = make([]float64, len(entries))
		perBench[s] = make([][]float64, len(entries))
		for e := range entries {
			perBench[s][e] = make([]float64, len(names))
		}
		conflicts[s] = make([]uint64, len(names))
	}

	// One pass per benchmark: both sides' classified baselines and every
	// entry count.
	cfg.parallelFor(len(names), func(b int) {
		var runs []*run
		var l1s [2]*cache.Cache
		var cls [2]*classify.Classifier
		var fes [2][]*core.Level
		for s := iSide; s <= dSide; s++ {
			l1s[s], cls[s] = cache.MustNew(l1Config(cacheSize, lineSize)), classify.MustNew(cacheSize, lineSize)
			runs = append(runs, feedL1(s, l1s[s], cls[s]))
			for _, e := range entries {
				fe := level(cacheSize, lineSize, aux(e))
				fes[s] = append(fes[s], fe)
				runs = append(runs, feedLevel(s, fe))
			}
		}
		cfg.replay(cfg.Traces.Source(names[b]), runs...)
		for s := range fes {
			misses, conflict := l1s[s].Stats().Misses, cls[s].Counts().Conflict
			conflicts[s][b] = conflict
			for e, fe := range fes[s] {
				removedMisses := float64(misses) - float64(fe.Stats().FullMisses())
				// A large victim cache adds real capacity, so on benchmarks
				// with few conflict misses (liver) it can remove more misses
				// than the baseline had conflicts; clamp to 100% as the
				// figure's metric is a share of conflict misses.
				perBench[s][e][b] = min(100, stats.Percent(removedMisses, float64(conflict)))
			}
		}
	})

	// Cross-benchmark averages with the low-conflict exclusion.
	include := make([][]bool, 2)
	for s := 0; s < 2; s++ {
		include[s] = make([]bool, len(names))
		for b := range names {
			include[s][b] = conflicts[s][b] >= minConflictsForAverage
		}
		for e := range entries {
			removed[s][e] = meanOver(perBench[s][e], include[s])
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

// Fig33 reproduces Figure 3-3: conflict misses removed by miss caching as
// the number of entries grows from 1 to 15.
func Fig33() Experiment {
	return Experiment{
		ID:    "fig3-3",
		Title: "Figure 3-3: Conflict misses removed by miss caching",
		Run: func(cfg Config) *Result {
			return conflictRemovalSweep(cfg, "fig3-3", "Figure 3-3: Conflict misses removed by miss caching",
				func(e int) core.Aux { return core.Aux{MissCache: e} },
				[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
		},
	}
}

// Fig35 reproduces Figure 3-5: conflict misses removed by victim caching.
func Fig35() Experiment {
	return Experiment{
		ID:    "fig3-5",
		Title: "Figure 3-5: Conflict misses removed by victim caching",
		Run: func(cfg Config) *Result {
			return conflictRemovalSweep(cfg, "fig3-5", "Figure 3-5: Conflict misses removed by victim caching",
				func(e int) core.Aux { return core.Aux{Victim: e} },
				[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
		},
	}
}
