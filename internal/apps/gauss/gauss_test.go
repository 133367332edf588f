package gauss

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/mpf"
)

func newFacility(t *testing.T, procs int) *mpf.Facility {
	t.Helper()
	f, err := mpf.New(
		mpf.WithMaxProcesses(procs),
		mpf.WithMaxLNVCs(16),
		mpf.WithBlocksPerProcess(2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func TestSequentialKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1.
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveSequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v, want [2 1]", x)
	}
}

func TestSequentialNeedsPivoting(t *testing.T) {
	// A zero in the leading position forces a row pivot.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{3, 7}
	x, err := SolveSequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestSequentialSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveSequential(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSequentialValidation(t *testing.T) {
	if _, err := SolveSequential(nil, nil); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := SolveSequential([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched b accepted")
	}
	if _, err := SolveSequential([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestSequentialDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := NewSystem(8, rng)
	a0 := append([]float64(nil), a[0]...)
	b0 := append([]float64(nil), b...)
	if _, err := SolveSequential(a, b); err != nil {
		t.Fatal(err)
	}
	for j := range a0 {
		if a[0][j] != a0[j] {
			t.Fatal("A mutated")
		}
	}
	for i := range b0 {
		if b[i] != b0[i] {
			t.Fatal("b mutated")
		}
	}
}

func TestMPFMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 16, 33} {
		for _, workers := range []int{1, 2, 4, 7} {
			a, b := NewSystem(n, rng)
			want, err := SolveSequential(a, b)
			if err != nil {
				t.Fatal(err)
			}
			fac := newFacility(t, workers+1)
			got, err := SolveMPF(fac, workers, a, b)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d workers=%d: x[%d] = %v, want %v", n, workers, i, got[i], want[i])
				}
			}
			if r := Residual(a, b, got); r > 1e-9 {
				t.Fatalf("n=%d workers=%d: residual %g", n, workers, r)
			}
		}
	}
}

func TestMPFSingular(t *testing.T) {
	a := [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}
	b := []float64{1, 2, 3}
	fac := newFacility(t, 3)
	if _, err := SolveMPF(fac, 2, a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// On the simulated clock every process ends on the abort: a process
	// left blocked would be the kernel's deadlock error instead.
	if _, err := RunMPF(apps.Simulated(balance.Balance21000()), 2, a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("simulated err = %v, want ErrSingular", err)
	}
}

func TestMPFWorkerClamp(t *testing.T) {
	// More workers than rows must not break (clamped internally).
	rng := rand.New(rand.NewSource(11))
	a, b := NewSystem(3, rng)
	fac := newFacility(t, 9)
	x, err := SolveMPF(fac, 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, b, x); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestSharedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 4, 17, 32} {
		for _, workers := range []int{1, 3, 8} {
			a, b := NewSystem(n, rng)
			want, err := SolveSequential(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveShared(newFacility(t, workers), workers, a, b)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d workers=%d: x[%d] mismatch", n, workers, i)
				}
			}
		}
	}
}

func TestSharedSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {2, 2}}
	b := []float64{1, 2}
	if _, err := SolveShared(newFacility(t, 2), 2, a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionCoversAllRows(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for p := 1; p <= 10; p++ {
			covered := 0
			prevHi := 0
			for w := 0; w < p; w++ {
				lo, hi := partition(n, p, w)
				if lo != prevHi {
					t.Fatalf("n=%d p=%d w=%d: gap (lo=%d, prevHi=%d)", n, p, w, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d p=%d: covered %d rows", n, p, covered)
			}
		}
	}
}

// Property: the solver inverts NewSystem for random sizes and seeds.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%24) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := NewSystem(n, rng)
		x, err := SolveSequential(a, b)
		if err != nil {
			return false
		}
		return Residual(a, b, x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// seqTime returns RunSequential's simulated seconds on NewSystem(n).
func seqTime(t *testing.T, m *balance.Machine, n int) float64 {
	t.Helper()
	a, b := NewSystem(n, rand.New(rand.NewSource(int64(n))))
	s := apps.Simulated(m)
	if _, err := RunSequential(s, a, b); err != nil {
		t.Fatal(err)
	}
	return s.Seconds()
}

// simTime returns RunMPF's simulated seconds on NewSystem(n).
func simTime(t *testing.T, m *balance.Machine, n, workers int) float64 {
	t.Helper()
	a, b := NewSystem(n, rand.New(rand.NewSource(int64(n))))
	s := apps.Simulated(m)
	if _, err := RunMPF(s, workers, a, b); err != nil {
		t.Fatal(err)
	}
	return s.Seconds()
}

func TestSimTimesReasonable(t *testing.T) {
	m := balance.Balance21000()
	seq := seqTime(t, m, 32)
	if seq <= 0 {
		t.Fatal("non-positive sequential time")
	}
	t1 := simTime(t, m, 32, 1)
	t8 := simTime(t, m, 32, 8)
	if t8 >= t1 {
		t.Fatalf("8 workers (%g) not faster than 1 (%g)", t8, t1)
	}
	// Speedup must be positive and below the worker count.
	sp := seq / t8
	if sp <= 1 || sp > 8 {
		t.Fatalf("speedup = %g, want in (1, 8]", sp)
	}
}

func TestSimSpeedupGrowsWithMatrixSize(t *testing.T) {
	// The paper's central Figure 7 observation: larger matrices permit
	// effective use of more processors.
	m := balance.Balance21000()
	speedup := func(n, workers int) float64 {
		return seqTime(t, m, n) / simTime(t, m, n, workers)
	}
	s32 := speedup(32, 16)
	s96 := speedup(96, 16)
	if s96 <= s32 {
		t.Fatalf("speedup(96,16)=%g not above speedup(32,16)=%g", s96, s32)
	}
}

func TestSimValidation(t *testing.T) {
	m := balance.Balance21000()
	if _, err := RunMPF(apps.Simulated(m), 4, nil, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	a, b := NewSystem(8, rand.New(rand.NewSource(8)))
	if _, err := RunMPF(apps.Simulated(m), 0, a, b); err == nil {
		t.Fatal("workers=0 accepted")
	}
}
