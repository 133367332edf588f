package main

import (
	"math/rand"
	"slices"
	"testing"
)

// The schedule must be bursty (inter-arrival squared coefficient of
// variation above one, which a Poisson stream has exactly) and offer
// the rate it claims, for the seeds the acceptance runs use.
func TestMMPPSchedule(t *testing.T) {
	const n, rate = 3 * elReferenceRate, elReferenceRate
	for _, seed := range []int64{1, 2} {
		due := mmppSchedule(rand.New(rand.NewSource(seed)), n, rate)
		if len(due) != n || !slices.IsSorted(due) || due[0] < 0 {
			t.Fatalf("seed %d: %d due times, sorted %v, first %d", seed, len(due), slices.IsSorted(due), due[0])
		}
		realised := float64(n) / (float64(due[n-1]) / 1e9)
		if realised < 0.98*rate || realised > 1.02*rate {
			t.Errorf("seed %d: realised rate %.0f/s, offered %.0f/s", seed, realised, float64(rate))
		}
		var sum, sumSq float64
		prev := int64(0)
		for _, d := range due {
			gap := float64(d - prev)
			sum, sumSq, prev = sum+gap, sumSq+gap*gap, d
		}
		mean := sum / n
		scv := (sumSq/n - mean*mean) / (mean * mean)
		if scv <= 1 {
			t.Errorf("seed %d: inter-arrival SCV %.3f, want > 1", seed, scv)
		}
		again := mmppSchedule(rand.New(rand.NewSource(seed)), n, rate)
		if !slices.Equal(due, again) {
			t.Errorf("seed %d: the same seed gave another schedule", seed)
		}
	}
}
