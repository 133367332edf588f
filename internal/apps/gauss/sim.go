package gauss

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/internal/sim"
)

// This file runs the Gauss-Jordan solver on the simulated Balance 21000
// to regenerate paper Figure 7 ("Speedup vs. Processes", one curve per
// matrix size), and times the sequential and shared-memory solvers
// there too.

// SimSolve solves Ax = b as SolveMPF does — the same arbiter and worker
// processes — on the simulated machine m, where each process's
// arithmetic costs m's software floating point, and returns the
// solution with the simulated seconds the solve took.
func SimSolve(m *balance.Machine, workers int, a [][]float64, b []float64) ([]float64, float64, error) {
	s := apps.Simulated(m)
	x, err := solve(s, workers, a, b)
	return x, s.Seconds(), err
}

// ownerOf maps a global row to the worker owning it under partition.
func ownerOf(n, workers, row int) int {
	for w := 0; w < workers; w++ {
		lo, hi := partition(n, workers, w)
		if row >= lo && row < hi {
			return w
		}
	}
	return workers - 1
}

// SimSeqTime returns the simulated seconds for the sequential solver on
// the same machine: per iteration, an n-row pivot search plus an
// (n-1)×(n+1-k) sweep at flopsPerUpdate each, plus the final divisions.
func SimSeqTime(m *balance.Machine, n int) float64 {
	t := 0.0
	for k := 0; k < n; k++ {
		t += m.FlopsTime(n - k)                                  // search over unmarked rows
		t += m.FlopsTime((n - 1) * (n + 1 - k) * flopsPerUpdate) // sweep
	}
	t += m.FlopsTime(n) // back-substitution divisions
	return t
}

// SimSharedTime returns the simulated seconds for the *shared-memory*
// parallel Gauss-Jordan (SolveShared's structure: same row partition,
// shared candidate array, barriers instead of circuits) on the same
// machine. Together with SimSolve it answers the research question the
// paper's conclusion poses — "the effect of the parallel programming
// paradigm (message passing or shared memory) on application
// performance" — on the paper's own hardware model.
func SimSharedTime(m *balance.Machine, n, workers int) (float64, error) {
	if workers < 1 || n < 1 {
		return 0, fmt.Errorf("gauss: SimSharedTime(n=%d, workers=%d)", n, workers)
	}
	if workers > n {
		workers = n
	}
	k := sim.NewKernel(1)
	bar := sim.NewBarrier(k, workers, m.LockOverhead, m.LockOverhead)

	for w := 0; w < workers; w++ {
		w := w
		lo, hi := partition(n, workers, w)
		k.Spawn(fmt.Sprintf("shared%d", w), func(p *sim.Proc) {
			local := hi - lo
			markedCount := 0
			for it := 0; it < n; it++ {
				// Local search writes one candidate to the shared array.
				p.Advance(m.FlopsTime(local - markedCount))
				bar.Wait(p)
				if w == 0 {
					// Worker 0 reduces the P candidates.
					p.Advance(m.FlopsTime(workers))
				}
				bar.Wait(p)
				owner := ownerOf(n, workers, it%n)
				if owner == w {
					markedCount++
				}
				rowsToSweep := local
				if owner == w {
					rowsToSweep--
				}
				width := n + 1 - it
				// The pivot row is read directly from shared memory —
				// no broadcast copy, the paradigm's whole advantage.
				p.Advance(m.FlopsTime(rowsToSweep * width * flopsPerUpdate))
				bar.Wait(p)
			}
			p.Advance(m.FlopsTime(local)) // solution divisions
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return k.Now(), nil
}
