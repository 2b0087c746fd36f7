package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// table11 reproduces Table 1-1: the increasing cost of cache misses. The
// first three columns are the paper's machine parameters; the last two
// are derived (miss cost in cycles = memory time / cycle time; miss cost
// in instructions = miss cycles / CPI), demonstrating the trend the paper
// opens with.
func table11(Config) *Result {
	machines := []struct {
		name    string
		cpi     float64
		cycleNs float64
		memNs   float64
	}{
		{"VAX 11/780", 10.0, 200, 1200},
		{"WRL Titan", 1.4, 45, 540},
		{"? (projected)", 0.5, 4, 280},
	}
	headers := []string{"machine", "cycles/instr", "cycle (ns)", "mem (ns)",
		"miss cost (cycles)", "miss cost (instr)"}
	var rows [][]string
	for _, m := range machines {
		missCycles := m.memNs / m.cycleNs
		missInstr := missCycles / m.cpi
		rows = append(rows, []string{
			m.name,
			fmt.Sprintf("%.1f", m.cpi),
			fmt.Sprintf("%.0f", m.cycleNs),
			fmt.Sprintf("%.0f", m.memNs),
			fmt.Sprintf("%.0f", missCycles),
			fmt.Sprintf("%.1f", missInstr),
		})
	}
	return &Result{
		ID:      "table1-1",
		Title:   "Table 1-1: The increasing cost of cache misses",
		Text:    textplot.Table(headers, rows),
		Headers: headers,
		Rows:    rows,
	}
}

// table21 reproduces Table 2-1: test program characteristics.
func table21(cfg Config) *Result {
	headers := []string{"program", "dynamic instr.", "data refs.", "total refs.", "program type"}
	var rows [][]string
	var ti, td, tt uint64
	for _, name := range benchNames() {
		tr := cfg.Traces.Get(name)
		b := workload.MustByName(name)
		ti += tr.Instructions()
		td += tr.DataRefs()
		tt += tr.Instructions() + tr.DataRefs()
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1fM", float64(tr.Instructions())/1e6),
			fmt.Sprintf("%.1fM", float64(tr.DataRefs())/1e6),
			fmt.Sprintf("%.1fM", float64(tr.Instructions()+tr.DataRefs())/1e6),
			b.Description(),
		})
	}
	rows = append(rows, []string{"total",
		fmt.Sprintf("%.1fM", float64(ti)/1e6),
		fmt.Sprintf("%.1fM", float64(td)/1e6),
		fmt.Sprintf("%.1fM", float64(tt)/1e6), ""})
	text := textplot.Table(headers, rows) +
		fmt.Sprintf("\n(workload scale %.2f; the paper's traces are 31–145M instructions)\n", cfg.Scale)
	return &Result{ID: "table2-1", Title: "Table 2-1: Test program characteristics",
		Text: text, Headers: headers, Rows: rows}
}

// table22 reproduces Table 2-2: baseline first-level cache miss rates on
// the paper's 4KB direct-mapped split caches with 16B lines.
func table22(cfg Config) *Result {
	names := benchNames()
	l1s := make([][2]*cache.Cache, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		l1s[b] = [2]*cache.Cache{cache.MustNew(l1Config(4096, 16)), cache.MustNew(l1Config(4096, 16))}
		return []*run{feedL1(iSide, l1s[b][iSide], nil), feedL1(dSide, l1s[b][dSide], nil)}
	})...)
	headers := []string{"program", "instr. miss rate", "data miss rate"}
	var rows [][]string
	for b, name := range names {
		rows = append(rows, []string{name,
			fmtRate(l1s[b][iSide].Stats().MissRate()), fmtRate(l1s[b][dSide].Stats().MissRate())})
	}
	return &Result{ID: "table2-2",
		Title:   "Table 2-2: Baseline system first-level cache miss rates",
		Text:    textplot.Table(headers, rows),
		Headers: headers, Rows: rows}
}
