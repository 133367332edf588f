package gauss

import (
	"repro/internal/apps"
	"repro/internal/balance"
)

// This file runs the Gauss-Jordan solvers on the simulated Balance
// 21000, where each process's arithmetic costs m's software floating
// point, a barrier one lock per arrival and wakeup: paper Figure 7
// ("Speedup vs. Processes", one curve per matrix size) and the
// paradigm ablation.

// SimSolve solves Ax = b as SolveMPF does on the simulated machine m,
// and returns the solution with the simulated seconds the solve took.
func SimSolve(m *balance.Machine, workers int, a [][]float64, b []float64) ([]float64, float64, error) {
	s := apps.Simulated(m)
	x, err := RunMPF(s, workers, a, b)
	return x, s.Seconds(), err
}

// SimSolveShared solves Ax = b as SolveShared does on the simulated
// machine m, and returns the solution with the simulated seconds the
// solve took.
func SimSolveShared(m *balance.Machine, workers int, a [][]float64, b []float64) ([]float64, float64, error) {
	s := apps.Simulated(m)
	x, err := RunShared(s, workers, a, b)
	return x, s.Seconds(), err
}
