package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercent(t *testing.T) {
	if got := Percent(1, 4); !almost(got, 25) {
		t.Errorf("Percent(1,4) = %v, want 25", got)
	}
	if got := Percent(3, 0); got != 0 {
		t.Errorf("Percent(3,0) = %v, want 0", got)
	}
}

func TestPercentReduction(t *testing.T) {
	cases := []struct{ base, improved, want float64 }{
		{100, 50, 50},
		{100, 100, 0},
		{100, 0, 100},
		{100, 150, -50},
		{0, 10, 0},
	}
	for _, c := range cases {
		if got := PercentReduction(c.base, c.improved); !almost(got, c.want) {
			t.Errorf("PercentReduction(%v,%v) = %v, want %v", c.base, c.improved, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); !almost(got, 4) {
		t.Errorf("Mean = %v, want 4", got)
	}
}

// Property: reduction is antisymmetric around equal values and bounded by
// 100 for non-negative improved counts.
func TestPercentReductionProperties(t *testing.T) {
	f := func(base, improved uint32) bool {
		r := PercentReduction(float64(base), float64(improved))
		if base == 0 {
			return r == 0
		}
		if improved == 0 {
			return almost(r, 100)
		}
		if improved == base {
			return almost(r, 0)
		}
		return r <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
