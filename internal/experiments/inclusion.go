package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/textplot"
)

// AblationInclusion quantifies the §3.5 observation that victim caches
// (and mismatched line sizes) violate multilevel inclusion: after each
// benchmark runs, the fraction of lines resident in the first-level
// structures that are absent from the second-level cache. A small L2
// makes the effect visible on short traces; the paper's 1MB L2 rarely
// evicts, so violations there come mostly from victim-cache retention.
func AblationInclusion() Experiment {
	return Experiment{
		ID:    "ablation-inclusion",
		Title: "Ablation: inclusion violations (plain vs victim-cached L1)",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
			names := benchNames()

			smallL2 := cache.Config{Name: "L2", Size: 32 << 10, LineSize: 128, Assoc: 1}
			mkPlain := func() hierarchy.Config {
				return hierarchy.Config{L2: smallL2}
			}
			mkVictim := func() hierarchy.Config {
				return hierarchy.Config{
					L2:       smallL2,
					DAugment: core.Aux{Victim: 15},
				}
			}

			type row struct {
				plain, victim hierarchy.InclusionReport
			}
			out := make([]row, len(names))
			cfg.parallelFor(len(names)*2, func(k int) {
				i, v := k/2, k%2
				tr := cfg.Traces.Get(names[i])
				sysCfg := mkPlain()
				if v == 1 {
					sysCfg = mkVictim()
				}
				sys := hierarchy.MustNew(sysCfg)
				replayGroup(cfg, tr.Source(), fanout.Sink(sys))
				if v == 0 {
					out[i].plain = sys.Inclusion()
				} else {
					out[i].victim = sys.Inclusion()
				}
			})

			pct := func(violations, lines int) string {
				if lines == 0 {
					return "-"
				}
				return fmt.Sprintf("%d (%.0f%%)", violations,
					100*float64(violations)/float64(lines))
			}
			headers := []string{"program", "plain D violations", "victim-cached D violations"}
			var rows [][]string
			for i, name := range names {
				rows = append(rows, []string{name,
					pct(out[i].plain.DViolations, out[i].plain.DLines),
					pct(out[i].victim.DViolations, out[i].victim.DLines)})
			}
			text := textplot.Table(headers, rows) +
				"\n(final-state scan with a deliberately small 32KB L2 so second-level\n" +
				" evictions occur. Even the plain hierarchy violates inclusion — 16B L1\n" +
				" lines inside evicted 128B L2 lines are not back-invalidated — and a\n" +
				" 15-entry victim cache retains further lines the L2 has dropped,\n" +
				" the property §3.5 notes victim caches give up.)\n"
			return &Result{ID: "ablation-inclusion", Title: "Inclusion-property ablation",
				Text: text, Headers: headers, Rows: rows}
		},
	}
}
