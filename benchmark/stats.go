package main

import (
	"math"
	"slices"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method — Python's statistics.quantiles(xs, n=4),
// which is what the acceptance runs are judged with — except that the
// quartiles of two samples are the samples, where Python extrapolates
// beyond them. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python computes it
		q := (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		return min(max(q, s[0]), s[n-1])
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p'th percentile (0 < p ≤ 1) of
// sorted latency samples, in the samples' unit.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// ratio is a/b, and 0 when b is 0: a per-message count on a repetition
// that sent nothing of that kind.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
