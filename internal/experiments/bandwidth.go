package experiments

import (
	"fmt"

	"jouppi/internal/memtrace"
	"jouppi/internal/textplot"
)

// ablationBandwidth reproduces §2's store-bandwidth argument for a
// pipelined second-level cache: with a write-through first level, every
// store goes to the L2, so an unpipelined L2 with an access time of N
// instruction times needs storeRate × N ≤ 1 to keep up — "an unpipelined
// external cache would not have even enough bandwidth to handle the store
// traffic for access times greater than seven instruction times". The
// exhibit computes each benchmark's measured store rate and the implied
// L2 utilization across access times.
func ablationBandwidth(cfg Config) *Result {
	names := benchNames()
	accessTimes := []int{2, 4, 7, 16, 30} // the paper's 4–30 instr-time L2 range

	stores := make([]*uint64, len(names))
	passes := eachBench(func(b int) []*run {
		n := new(uint64)
		stores[b] = n
		return []*run{feedFunc(func(a memtrace.Access) {
			if a.Kind == memtrace.Store {
				*n++
			}
		})}
	})
	cfg.plan(passes...)
	rates := make([]float64, len(names))
	for b, p := range passes {
		rates[b] = float64(*stores[b]) / float64(p.instrs)
	}

	headers := []string{"program", "stores/instr"}
	for _, at := range accessTimes {
		headers = append(headers, fmt.Sprintf("util @%d", at))
	}
	var rows [][]string
	saturated := 0
	for i, name := range names {
		row := []string{name, fmt.Sprintf("%.3f", rates[i])}
		for _, at := range accessTimes {
			util := rates[i] * float64(at)
			cell := fmt.Sprintf("%.0f%%", util*100)
			if util > 1 {
				cell += " (!)"
				saturated++
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	text := textplot.Table(headers, rows) +
		fmt.Sprintf("\n(utilization of an UNPIPELINED L2 from write-through store traffic\n"+
			" alone, at L2 access times of 2–30 instruction times; (!) marks\n"+
			" saturation. %d benchmark×latency points exceed 100%% — the paper's §2\n"+
			" argument that the second level must be pipelined. The paper quotes a\n"+
			" typical store rate of 1-in-6–7 instructions; the suite's rates bracket\n"+
			" that.)\n", saturated)
	return &Result{ID: "ablation-bandwidth",
		Title: "Write-through store bandwidth vs unpipelined L2",
		Text:  text, Headers: headers, Rows: rows}
}
