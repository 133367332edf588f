package main

import "math/rand"

// The open-loop arrival process: a two-state Markov-modulated Poisson
// process. In the burst state arrivals come four times as fast as in
// the calm state; sojourns are exponential with means 2 ms and 8 ms.
// Its inter-arrival squared coefficient of variation exceeds one, so it
// produces the bursts a Poisson stream of the same mean rate does not.
const (
	burstOverCalm = 4.0
	burstSojourn  = 2e6 // ns
	calmSojourn   = 8e6 // ns
)

// mmppSchedule returns the due times, in ns from the start, of the
// first n arrivals of the process whose mean rate is rate per second.
// The sample path is left as drawn: how long n arrivals take, and so the
// rate a repetition realises, varies with the seed by a percent or two.
func mmppSchedule(rng *rand.Rand, n int, rate float64) []int64 {
	// Mean rate = (burst share)·burst rate + (calm share)·calm rate.
	burstShare := burstSojourn / (burstSojourn + calmSojourn)
	calmRate := rate / 1e9 / (burstShare*burstOverCalm + 1 - burstShare) // per ns
	gap := [2]float64{1 / calmRate, 1 / (calmRate * burstOverCalm)}
	sojourn := [2]float64{calmSojourn, burstSojourn}

	state := 0
	if rng.Float64() < burstShare {
		state = 1
	}
	t, stateEnd := 0.0, rng.ExpFloat64()*sojourn[state]
	due := make([]int64, n)
	for i := 0; i < n; {
		next := t + rng.ExpFloat64()*gap[state]
		if next > stateEnd {
			// The state changes first; the exponential gap starts afresh.
			t, state = stateEnd, 1-state
			stateEnd = t + rng.ExpFloat64()*sojourn[state]
			continue
		}
		t, due[i] = next, int64(next)
		i++
	}
	return due
}
