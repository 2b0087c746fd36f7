package introspect

import (
	"fmt"
	"sort"

	"jouppi/internal/textplot"
)

// This file turns probe state into the text artifacts the CLIs and
// experiments print: phase curves, per-set heat grids, and hottest-set
// tables. Rendering reads probe copies (Windows/Heat), so it can run at
// any time without disturbing an ongoing replay.

// HeatMetric selects which SetCounts field a heatmap or set ranking
// reads.
type HeatMetric uint8

// The renderable per-set counters.
const (
	HeatAccesses HeatMetric = iota
	HeatMisses
	HeatEvictions
)

// String returns the metric name.
func (m HeatMetric) String() string {
	switch m {
	case HeatAccesses:
		return "accesses"
	case HeatMisses:
		return "misses"
	case HeatEvictions:
		return "evictions"
	default:
		return fmt.Sprintf("HeatMetric(%d)", uint8(m))
	}
}

func (m HeatMetric) of(h SetCounts) float64 {
	switch m {
	case HeatAccesses:
		return float64(h.Accesses)
	case HeatMisses:
		return float64(h.Misses)
	default:
		return float64(h.Evictions)
	}
}

// PhaseSeries converts phase windows into one plot line: X is the
// window's starting access index, Y its effective miss rate in percent.
func PhaseSeries(name string, windows []Window) textplot.Series {
	s := textplot.Series{Name: name}
	for _, w := range windows {
		s.X = append(s.X, float64(w.Start))
		s.Y = append(s.Y, w.MissRate()*100)
	}
	return s
}

// RenderPhases renders one or more phase curves on a shared grid. Build
// each series with PhaseSeries so configurations can be overlaid.
func RenderPhases(title string, series []textplot.Series, width, height int) string {
	return textplot.Lines(title, "access index (window start)", "miss rate %", series, width, height)
}

// RenderHeat renders the per-set grid for one metric, cols sets per row.
func RenderHeat(title string, heat []SetCounts, m HeatMetric, cols int) string {
	values := make([]float64, len(heat))
	for i, h := range heat {
		values[i] = m.of(h)
	}
	return textplot.HeatMap(title, values, cols)
}

// TopSets returns the indices of the n sets with the largest metric,
// descending (ties broken by lower set index). Sets with a zero metric
// are omitted, so fewer than n entries may come back.
func TopSets(heat []SetCounts, m HeatMetric, n int) []int {
	idx := make([]int, 0, len(heat))
	for i, h := range heat {
		if m.of(h) > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := m.of(heat[idx[a]]), m.of(heat[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	if len(idx) > n {
		idx = idx[:n]
	}
	return idx
}

// TopSetsTable renders the n sets hottest by m with all three per-set
// counters — the "which sets does the victim cache relieve" report.
func TopSetsTable(heat []SetCounts, m HeatMetric, n int) string {
	rows := make([][]string, 0, n)
	for _, i := range TopSets(heat, m, n) {
		h := heat[i]
		rows = append(rows, []string{
			fmt.Sprint(i),
			fmt.Sprint(h.Accesses),
			fmt.Sprint(h.Misses),
			fmt.Sprint(h.Evictions),
		})
	}
	return textplot.Table([]string{"set", "accesses", "misses", "evictions"}, rows)
}
