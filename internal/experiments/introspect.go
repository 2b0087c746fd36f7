package experiments

import (
	"fmt"

	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/introspect"
	"jouppi/internal/textplot"
)

// introspectPhase is the time/space-resolved exhibit: it replays ccom
// once through a baseline system and a system with a 4-entry data-side
// victim cache (fan-out, one trace pass), probing both, and shows (a)
// the data-cache miss rate per phase window for the two configurations
// overlaid and (b) the per-set conflict-eviction heatmap the victim
// cache flattens. This is the paper's §3.2 argument made visible: the
// aggregate miss-rate delta comes from specific conflicting sets and
// specific phases, not a uniform improvement.
func introspectPhase(cfg Config) *Result {
	tr := cfg.Traces.Get("ccom")

	// ~64 windows across the data-reference stream, whatever the scale,
	// so the plot's resolution does not depend on Config.Scale.
	window := int(tr.DataRefs() / 64)
	if window < 1024 {
		window = 1024
	}
	opts := introspect.Options{Window: window, Heatmap: true}

	names := []string{"baseline", "victim-4"}
	sysCfgs := []hierarchy.Config{
		{},
		{DAugment: core.Aux{Victim: 4}},
	}
	systems, runs := feedSystems(sysCfgs...)
	probes := make([]*introspect.SystemProbe, len(systems))
	for i, sys := range systems {
		probes[i] = introspect.Attach(sys, opts)
	}
	cfg.plan(&pass{bench: "ccom", runs: runs})
	// Results flushes each system, syncing the probes to the final count.
	baseStats, victStats := systems[0].Results(tr.Instructions()), systems[1].Results(tr.Instructions())

	series := make([]textplot.Series, len(probes))
	for i, p := range probes {
		series[i] = introspect.PhaseSeries(names[i], p.D.Windows())
	}
	text := introspect.RenderPhases(
		fmt.Sprintf("ccom D-cache miss rate per %d-access window", window),
		series, 72, 16)

	baseHeat, victHeat := probes[0].D.Heat(), probes[1].D.Heat()
	text += "\n" + introspect.RenderHeat("baseline D-cache conflict evictions per set",
		baseHeat, introspect.HeatEvictions, 64)
	text += "\n" + introspect.RenderHeat("victim-4 D-cache conflict evictions per set",
		victHeat, introspect.HeatEvictions, 64)

	// The hottest baseline sets, with the victim cache's effect on each:
	// full misses are what the victim cache removes (its hits turn would-be
	// demand fetches into one-cycle swaps).
	headers := []string{"set", "accesses", "base evictions", "base full-miss%", "victim full-miss%"}
	var rows [][]string
	for _, s := range introspect.TopSets(baseHeat, introspect.HeatEvictions, 8) {
		b, v := baseHeat[s], victHeat[s]
		rows = append(rows, []string{
			fmt.Sprint(s),
			fmt.Sprint(b.Accesses),
			fmt.Sprint(b.Evictions),
			fmtPct(pct(b.Misses, b.Accesses)),
			fmtPct(pct(victFullMisses(v, victStats), v.Accesses)),
		})
	}
	text += "\n" + textplot.Table(headers, rows)
	text += fmt.Sprintf("\naggregate D miss rate: baseline %s, victim-4 %s (%d victim hits)\n",
		fmtRate(baseStats.DMissRate()), fmtRate(victStats.DMissRate()), victStats.D.VictimHits)

	return &Result{
		ID:      "introspect-phase",
		Title:   "Phase and set-pressure introspection: ccom data cache, baseline vs 4-entry victim cache",
		Text:    text,
		Series:  series,
		Headers: headers,
		Rows:    rows,
	}
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

// victFullMisses approximates a set's post-victim-cache miss traffic:
// the probe counts raw L1 misses per set; the victim cache's hits are
// not set-resolved, so scale the set's misses by the side's overall
// full-miss/raw-miss ratio. Good enough to show relief on hot sets.
func victFullMisses(h introspect.SetCounts, r hierarchy.Results) uint64 {
	if r.D.L1Misses == 0 {
		return h.Misses
	}
	return h.Misses * r.D.FullMisses() / r.D.L1Misses
}
