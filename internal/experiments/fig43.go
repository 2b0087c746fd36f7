package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// streamRunSweep implements Figures 4-3 and 4-5: cumulative percentage of
// misses removed by a stream buffer as a function of how many lines it
// may prefetch past the allocating miss ("length of stream run"). Unlike
// the §3 figures, the denominator here is all baseline misses, not just
// conflicts.
func streamRunSweep(cfg Config, id, title string, ways int) *Result {
	names := benchNames()
	limits := []int{0, 1, 2, 4, 6, 8, 10, 12, 16}

	// One pass per benchmark: both sides' baselines and a stream buffer
	// per run limit. A run limit of 0 is no prefetching at all: the
	// baseline itself.
	type sweep struct {
		l1  [2]*cache.Cache
		fes [2][]*core.Level
	}
	sweeps := make([]sweep, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		sw := &sweeps[b]
		var runs []*run
		for s := iSide; s <= dSide; s++ {
			sw.l1[s] = cache.MustNew(l1Config(4096, 16))
			runs = append(runs, feedL1(s, sw.l1[s], nil))
			for _, r := range limits[1:] {
				fe := level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: ways, Depth: 4, RunLimit: r}})
				sw.fes[s] = append(sw.fes[s], fe)
				runs = append(runs, feedLevel(s, fe))
			}
		}
		return runs
	})...)

	perBench := make([][][]float64, 2) // [side][runIdx][bench]
	baseMisses := make([][]uint64, 2)  // [side][bench]
	for s := 0; s < 2; s++ {
		perBench[s] = make([][]float64, len(limits))
		for r := range limits {
			perBench[s][r] = make([]float64, len(names))
		}
		baseMisses[s] = make([]uint64, len(names))
		for b, sw := range sweeps {
			base := sw.l1[s].Stats().Misses
			baseMisses[s][b] = base
			perBench[s][0][b] = stats.PercentReduction(float64(base), float64(base))
			for r, fe := range sw.fes[s] {
				perBench[s][r+1][b] = stats.PercentReduction(float64(base), float64(fe.Stats().FullMisses()))
			}
		}
	}

	xs := make([]float64, len(limits))
	for i, r := range limits {
		xs[i] = float64(r)
	}
	avg := func(s int) []float64 {
		ys := make([]float64, len(limits))
		include := make([]bool, len(names))
		for b := range names {
			include[b] = baseMisses[s][b] >= minConflictsForAverage
		}
		for r := range limits {
			ys[r] = meanOver(perBench[s][r], include)
		}
		return ys
	}
	series := []textplot.Series{
		{Name: "L1 I-cache (avg)", X: xs, Y: avg(0)},
		{Name: "L1 D-cache (avg)", X: xs, Y: avg(1)},
	}

	headers := []string{"program", "side"}
	for _, r := range limits {
		headers = append(headers, fmt.Sprint(r))
	}
	var rows [][]string
	for b, name := range names {
		for s := 0; s < 2; s++ {
			row := []string{name, map[int]string{0: "I", 1: "D"}[s]}
			for r := range limits {
				row = append(row, fmtPct(perBench[s][r][b]))
			}
			rows = append(rows, row)
		}
	}
	text := textplot.Lines(title, "length of stream run (lines prefetched past miss)",
		"% misses removed (cumulative)", series, 60, 14) +
		"\nPer-benchmark percentage of misses removed vs run length:\n" +
		textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// fig43 reproduces Figure 4-3: sequential (single) stream buffer
// performance, 4KB caches with 16B lines.
func fig43(cfg Config) *Result {
	return streamRunSweep(cfg, "fig4-3",
		"Figure 4-3: Single 4-entry stream buffer: misses removed vs stream run length", 1)
}

// fig45 reproduces Figure 4-5: four-way stream buffer performance.
func fig45(cfg Config) *Result {
	return streamRunSweep(cfg, "fig4-5",
		"Figure 4-5: Four-way 4-entry stream buffers: misses removed vs stream run length", 4)
}
