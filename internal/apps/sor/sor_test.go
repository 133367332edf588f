package sor

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/mpf"
)

func newFacility(t *testing.T, procs int) *mpf.Facility {
	t.Helper()
	f, err := mpf.New(
		mpf.WithMaxProcesses(procs),
		mpf.WithMaxLNVCs(256),
		mpf.WithBlocksPerProcess(4096),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func TestSequentialConvergesToAnalytic(t *testing.T) {
	pr := DefaultProblem(17)
	g, iters, err := SolveSequential(pr)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 2 {
		t.Fatalf("converged suspiciously fast: %d iterations", iters)
	}
	// Discretization error is O(h²); h = 1/18 so h² ≈ 0.003.
	if e := MaxError(pr, g); e > 0.02 {
		t.Fatalf("max error vs analytic = %g", e)
	}
}

func TestSequentialErrorShrinksWithResolution(t *testing.T) {
	coarse := DefaultProblem(9)
	fine := DefaultProblem(33)
	gc, _, err := SolveSequential(coarse)
	if err != nil {
		t.Fatal(err)
	}
	gf, _, err := SolveSequential(fine)
	if err != nil {
		t.Fatal(err)
	}
	if MaxError(fine, gf) >= MaxError(coarse, gc) {
		t.Fatalf("finer grid not more accurate: %g vs %g",
			MaxError(fine, gf), MaxError(coarse, gc))
	}
}

func TestValidation(t *testing.T) {
	pr := DefaultProblem(9)
	pr.Omega = 2.5
	if _, _, err := SolveSequential(pr); err == nil {
		t.Fatal("omega 2.5 accepted")
	}
	pr = DefaultProblem(0)
	if _, _, err := SolveSequential(pr); err == nil {
		t.Fatal("empty grid accepted")
	}
	pr = DefaultProblem(9)
	pr.F = nil
	if _, _, err := SolveSequential(pr); err == nil {
		t.Fatal("nil F accepted")
	}
	pr = DefaultProblem(9)
	if _, _, err := SolveMPF(nil, 0, pr); err == nil {
		t.Fatal("n=0 accepted")
	}
	fac := newFacility(t, 2)
	if _, _, err := SolveMPF(fac, 100, pr); err == nil {
		t.Fatal("more processes than grid points accepted")
	}
	if _, _, err := SolveShared(nil, 0, pr); err == nil {
		t.Fatal("shared n=0 accepted")
	}
}

func TestDivergenceDetected(t *testing.T) {
	pr := DefaultProblem(9)
	pr.MaxIter = 2
	pr.Tol = 1e-15
	if _, _, err := SolveSequential(pr); !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	fac := newFacility(t, 5)
	if _, _, err := SolveShared(fac, 2, pr); !errors.Is(err, ErrDiverged) {
		t.Fatalf("shared err = %v, want ErrDiverged", err)
	}
	if _, _, err := SolveMPF(fac, 2, pr); !errors.Is(err, ErrDiverged) {
		t.Fatalf("mpf err = %v, want ErrDiverged", err)
	}
	// On the simulated clock every process ends on the abort: a process
	// left blocked would be the kernel's deadlock error instead.
	if _, _, err := RunMPF(apps.Simulated(balance.Balance21000()), 2, pr); !errors.Is(err, ErrDiverged) {
		t.Fatalf("simulated err = %v, want ErrDiverged", err)
	}
}

func TestMPFMatchesSequential(t *testing.T) {
	for _, cfg := range []struct{ p, n int }{
		{9, 1}, {9, 2}, {9, 3}, {17, 2}, {17, 4},
	} {
		pr := DefaultProblem(cfg.p)
		seq, _, err := SolveSequential(pr)
		if err != nil {
			t.Fatal(err)
		}
		fac := newFacility(t, cfg.n*cfg.n+1)
		par, iters, err := SolveMPF(fac, cfg.n, pr)
		if err != nil {
			t.Fatalf("p=%d n=%d: %v", cfg.p, cfg.n, err)
		}
		if iters < 1 {
			t.Fatalf("p=%d n=%d: %d iterations", cfg.p, cfg.n, iters)
		}
		// Parallel block-SOR converges to the same discrete solution,
		// though along a different trajectory; both are within Tol-level
		// agreement.
		if d := GridDiff(pr, seq, par); d > 100*pr.Tol {
			t.Fatalf("p=%d n=%d: grids differ by %g", cfg.p, cfg.n, d)
		}
		if e := MaxError(pr, par); e > 0.05 {
			t.Fatalf("p=%d n=%d: max error vs analytic %g", cfg.p, cfg.n, e)
		}
	}
}

func TestMPFUnevenPartition(t *testing.T) {
	// 9 interior points over 2 blocks: 4/5 split must still converge.
	pr := DefaultProblem(9)
	fac := newFacility(t, 5)
	g, _, err := SolveMPF(fac, 2, pr)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxError(pr, g); e > 0.05 {
		t.Fatalf("max error %g", e)
	}
}

func TestSharedMatchesSequential(t *testing.T) {
	for _, cfg := range []struct{ p, n int }{
		{9, 1}, {9, 3}, {17, 2},
	} {
		pr := DefaultProblem(cfg.p)
		seq, _, err := SolveSequential(pr)
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := SolveShared(newFacility(t, cfg.n*cfg.n), cfg.n, pr)
		if err != nil {
			t.Fatalf("p=%d n=%d: %v", cfg.p, cfg.n, err)
		}
		if d := GridDiff(pr, seq, par); d > 100*pr.Tol {
			t.Fatalf("p=%d n=%d: grids differ by %g", cfg.p, cfg.n, d)
		}
	}
}

func TestBlockRangeCoversInterior(t *testing.T) {
	for _, p := range []int{9, 17, 33, 65} {
		for n := 1; n <= 4; n++ {
			prev := 1
			for b := 0; b < n; b++ {
				lo, hi := blockRange(p, n, b)
				if lo != prev {
					t.Fatalf("p=%d n=%d b=%d: gap", p, n, b)
				}
				prev = hi
			}
			if prev != p+1 {
				t.Fatalf("p=%d n=%d: covers to %d, want %d", p, n, prev, p+1)
			}
		}
	}
}

// simIterTimes memoizes simIterTime: a 65×65 solve runs ~2500
// iterations, and two tests read the same ones.
var simIterTimes = map[[2]int]float64{}

// simIterTime returns RunMPF's simulated seconds per iteration for
// DefaultProblem(p) on an n×n mesh of the Balance 21000.
func simIterTime(t *testing.T, p, n int) float64 {
	t.Helper()
	if secs, ok := simIterTimes[[2]int{p, n}]; ok {
		return secs
	}
	s := apps.Simulated(balance.Balance21000())
	_, iters, err := RunMPF(s, n, DefaultProblem(p))
	if err != nil {
		t.Fatal(err)
	}
	simIterTimes[[2]int{p, n}] = s.Seconds() / float64(iters)
	return s.Seconds() / float64(iters)
}

func TestSimIterTimeScales(t *testing.T) {
	t2 := simIterTime(t, 65, 2)
	t4 := simIterTime(t, 65, 4)
	// 65×65 has enough work that 16 processes beat 4 per iteration
	// (Figure 8's top curve).
	if t4 >= t2 {
		t.Fatalf("N=4 (%g) not faster than N=2 (%g) on 65×65", t4, t2)
	}
	speedup := t2 / t4
	if speedup > 4 {
		t.Fatalf("speedup %g exceeds process ratio", speedup)
	}
}

func TestSimSmallGridScalesWorse(t *testing.T) {
	// The paper's bottom curve: a 9×9 grid gains little or nothing from
	// more processes — communication dominates.
	sp := func(p int) float64 {
		return simIterTime(t, p, 2) / simIterTime(t, p, 4)
	}
	small, large := sp(9), sp(65)
	if small >= large {
		t.Fatalf("9×9 speedup (%g) not below 65×65 speedup (%g)", small, large)
	}
}

func TestSimValidation(t *testing.T) {
	m := balance.Balance21000()
	if _, _, err := RunMPF(apps.Simulated(m), 2, DefaultProblem(0)); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, _, err := RunMPF(apps.Simulated(m), 0, DefaultProblem(9)); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := RunMPF(apps.Simulated(m), 9, DefaultProblem(4)); err == nil {
		t.Fatal("n>p accepted")
	}
}
