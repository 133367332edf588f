package sor

import (
	"repro/internal/apps"
	"repro/internal/balance"
)

// This file runs the SOR solvers on the simulated Balance 21000, where
// each process's arithmetic costs m's software floating point, a halo
// copy m's copy cost and a barrier one lock per arrival and wakeup:
// paper Figure 8 ("Per Iteration Speedup vs. Dimension (N)") and the
// paradigm ablation. Figure 8 plots *per-iteration* speedup relative to
// the 4-process solver (N=2) — the paper had no sequential solver to
// compare against — so its caller divides a solve's time by its
// iterations.

// SimSolve solves pr as SolveMPF does on the simulated machine m, and
// returns the grid and iteration count with the simulated seconds the
// solve took.
func SimSolve(m *balance.Machine, n int, pr Problem) ([][]float64, int, float64, error) {
	s := apps.Simulated(m)
	g, iters, err := RunMPF(s, n, pr)
	return g, iters, s.Seconds(), err
}

// SimSolveShared solves pr as SolveShared does on the simulated machine
// m, and returns the grid and iteration count with the simulated seconds
// the solve took.
func SimSolveShared(m *balance.Machine, n int, pr Problem) ([][]float64, int, float64, error) {
	s := apps.Simulated(m)
	g, iters, err := RunShared(s, n, pr)
	return g, iters, s.Seconds(), err
}
