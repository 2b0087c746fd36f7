package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// Table11 reproduces Table 1-1: the increasing cost of cache misses. The
// first three columns are the paper's machine parameters; the last two
// are derived (miss cost in cycles = memory time / cycle time; miss cost
// in instructions = miss cycles / CPI), demonstrating the trend the paper
// opens with.
func Table11() Experiment {
	return Experiment{
		ID:    "table1-1",
		Title: "Table 1-1: The increasing cost of cache misses",
		Run: func(cfg Config) *Result {
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
		},
	}
}

// Table21 reproduces Table 2-1: test program characteristics.
func Table21() Experiment {
	return Experiment{
		ID:    "table2-1",
		Title: "Table 2-1: Test program characteristics",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
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
		},
	}
}

// Table22 reproduces Table 2-2: baseline first-level cache miss rates on
// the paper's 4KB direct-mapped split caches with 16B lines.
func Table22() Experiment {
	return Experiment{
		ID:    "table2-2",
		Title: "Table 2-2: Baseline system first-level cache miss rates",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
			names := benchNames()
			type rates struct{ i, d float64 }
			out := make([]rates, len(names))
			cfg.parallelFor(len(names), func(idx int) {
				l1i := cache.MustNew(l1Config(4096, 16))
				l1d := cache.MustNew(l1Config(4096, 16))
				cfg.replay(cfg.Traces.Source(names[idx]), feedL1(iSide, l1i, nil), feedL1(dSide, l1d, nil))
				out[idx] = rates{l1i.Stats().MissRate(), l1d.Stats().MissRate()}
			})
			headers := []string{"program", "instr. miss rate", "data miss rate"}
			var rows [][]string
			for i, name := range names {
				rows = append(rows, []string{name, fmtRate(out[i].i), fmtRate(out[i].d)})
			}
			return &Result{ID: "table2-2",
				Title:   "Table 2-2: Baseline system first-level cache miss rates",
				Text:    textplot.Table(headers, rows),
				Headers: headers, Rows: rows}
		},
	}
}
