package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/textplot"
)

// ablationInclusion quantifies the §3.5 observation that victim caches
// (and mismatched line sizes) violate multilevel inclusion: after each
// benchmark runs, the fraction of lines resident in the first-level
// structures that are absent from the second-level cache. A small L2
// makes the effect visible on short traces; the paper's 1MB L2 rarely
// evicts, so violations there come mostly from victim-cache retention.
func ablationInclusion(cfg Config) *Result {
	names := benchNames()

	smallL2 := cache.Config{Name: "L2", Size: 32 << 10, LineSize: 128, Assoc: 1}
	plain, victim := hierarchy.Config{L2: smallL2}, hierarchy.Config{L2: smallL2, DAugment: core.Aux{Victim: 15}}

	systems := make([][]*hierarchy.System, len(names)) // plain, victim-cached
	cfg.plan(eachBench(func(b int) []*run {
		systems[b] = newSystems(plain, victim)
		return clustered(systems[b]...)
	})...)

	pct := func(r hierarchy.InclusionReport) string {
		if r.DLines == 0 {
			return "-"
		}
		return fmt.Sprintf("%d (%.0f%%)", r.DViolations,
			100*float64(r.DViolations)/float64(r.DLines))
	}
	headers := []string{"program", "plain D violations", "victim-cached D violations"}
	var rows [][]string
	for i, name := range names {
		rows = append(rows, []string{name,
			pct(systems[i][0].Inclusion()), pct(systems[i][1].Inclusion())})
	}
	text := textplot.Table(headers, rows) +
		"\n(final-state scan with a deliberately small 32KB L2 so second-level\n" +
		" evictions occur. Even the plain hierarchy violates inclusion — 16B L1\n" +
		" lines inside evicted 128B L2 lines are not back-invalidated — and a\n" +
		" 15-entry victim cache retains further lines the L2 has dropped,\n" +
		" the property §3.5 notes victim caches give up.)\n"
	return &Result{ID: "ablation-inclusion", Title: "Inclusion-property ablation",
		Text: text, Headers: headers, Rows: rows}
}
