// Package stats provides the small statistical helpers the experiments
// share. The paper's cross-benchmark aggregation (footnote 1) is the
// Mean of per-benchmark PercentReductions: it deliberately weights each
// benchmark equally rather than weighting by miss count.
package stats

// Percent returns part/whole × 100, or 0 when whole is 0.
func Percent(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

// PercentReduction returns the percentage by which improved undercuts
// base: (base − improved)/base × 100. A negative result means improved is
// worse. It returns 0 when base is 0 (no misses to remove).
func PercentReduction(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - improved) / base * 100
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
