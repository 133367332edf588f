package sor

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/internal/sim"
)

// This file runs the SOR solver on the simulated Balance 21000 to
// regenerate paper Figure 8 ("Per Iteration Speedup vs. Dimension (N)"),
// and times the shared-memory solver there too. Figure 8 plots
// *per-iteration* speedup relative to the 4-process solver (N=2) — the
// paper had no sequential solver to compare against — so its caller
// divides a solve's time by its iterations.

// SimSolve solves pr as SolveMPF does — the same monitor and N×N worker
// processes — on the simulated machine m, where each process's
// arithmetic costs m's software floating point, and returns the grid and
// iteration count with the simulated seconds the solve took.
func SimSolve(m *balance.Machine, n int, pr Problem) ([][]float64, int, float64, error) {
	s := apps.Simulated(m)
	g, iters, err := solve(s, n, pr)
	return g, iters, s.Seconds(), err
}

// SimSharedIterTime returns the simulated seconds per iteration for the
// shared-memory SOR (SolveShared's structure: private halo copies and
// barriers instead of circuits) on an n×n mesh of the machine model.
// Halo values are copied from shared memory at ordinary copy cost but
// without MPF's per-message fixed overhead or block handling — the
// paradigm comparison for the paper's second application.
func SimSharedIterTime(m *balance.Machine, p, n, iters int) (float64, error) {
	if p < 1 || n < 1 || n > p {
		return 0, fmt.Errorf("sor: SimSharedIterTime(p=%d, n=%d)", p, n)
	}
	if iters < 1 {
		iters = 1
	}
	k := sim.NewKernel(1)
	workers := n * n
	bar := sim.NewBarrier(k, workers, m.LockOverhead, m.LockOverhead)

	for w := 0; w < workers; w++ {
		w := w
		bi, bj := w/n, w%n
		rlo, rhi := blockRange(p, n, bi)
		clo, chi := blockRange(p, n, bj)
		height, width := rhi-rlo, chi-clo
		perimeter := 0
		if bi > 0 {
			perimeter += width
		}
		if bi < n-1 {
			perimeter += width
		}
		if bj > 0 {
			perimeter += height
		}
		if bj < n-1 {
			perimeter += height
		}
		k.Spawn(fmt.Sprintf("shared%d", w), func(pp *sim.Proc) {
			for it := 0; it < iters; it++ {
				// Copy halos out of shared memory (one plain copy, no
				// message machinery).
				pp.Advance(float64(perimeter*8) * m.CopyPerByte)
				bar.Wait(pp)
				pp.Advance(m.FlopsTime(height * width * flopsPerPoint))
				// Convergence reduction: one shared write + worker 0's
				// max scan, bracketed by barriers.
				bar.Wait(pp)
				if w == 0 {
					pp.Advance(m.FlopsTime(workers))
				}
				bar.Wait(pp)
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return k.Now() / float64(iters), nil
}
