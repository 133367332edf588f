package gauss

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/internal/wire"
	"repro/mpf"
)

// TestMessageCountMatchesProtocol pins the communication volume of the
// MPF solver to the paper's protocol structure: per iteration each of W
// workers sends one pivot candidate (W·n total), the arbiter announces
// one winner (n), the winner broadcasts one pivot row (n), and at the
// end each pivot row yields one solution pair (n). Any change that adds
// or drops traffic — double sends, retries, lost rendezvous — breaks
// this count. Each configuration runs on both backends, which must
// carry exactly this traffic and compute the same solution, bit for
// bit.
func TestMessageCountMatchesProtocol(t *testing.T) {
	for _, cfg := range []struct{ n, workers int }{
		{8, 1}, {16, 2}, {16, 4}, {32, 8}, {33, 5},
	} {
		fac, err := mpf.New(
			mpf.WithMaxProcesses(cfg.workers+1),
			mpf.WithBlocksPerProcess(2048),
		)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(cfg.n)))
		a, b := NewSystem(cfg.n, rng)
		x, err := SolveMPF(fac, cfg.workers, a, b)
		if err != nil {
			t.Fatal(err)
		}
		st := fac.Stats()
		fac.Shutdown()
		// Conservation: everything sent was consumed (broadcast messages
		// count once per consuming receiver).
		if st.MessagesDropped != 0 {
			t.Errorf("n=%d W=%d: %d messages dropped", cfg.n, cfg.workers, st.MessagesDropped)
		}

		s := apps.Simulated(balance.Balance21000())
		simX, err := RunMPF(s, cfg.workers, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(simX, x) {
			t.Errorf("n=%d W=%d: simulated solution differs from native", cfg.n, cfg.workers)
		}

		n, w := uint64(cfg.n), uint64(cfg.workers)
		const cand, sel, pair = wire.PivotCandSize, 2 * wire.Uint32Size, wire.Uint32Size + wire.Float64Size
		row := (n + 1) * wire.Float64Size
		// Receives: the arbiter consumes W·n candidates and n pairs;
		// every worker consumes n winner announcements and n pivot rows.
		want := [4]uint64{
			n*w + 3*n,
			n*w + n + 2*n*w,
			n*w*cand + n*sel + n*row + n*pair,
			n*w*cand + n*pair + n*w*(sel+row),
		}
		var sim [4]uint64
		sim[0], sim[2] = s.Facility().Sent()
		sim[1], sim[3] = s.Facility().Delivered()
		for _, got := range []struct {
			backend string
			counts  [4]uint64
		}{
			{"native", [4]uint64{st.Sends, st.Receives, st.BytesSent, st.BytesRecvd}},
			{"simulated", sim},
		} {
			if got.counts != want {
				t.Errorf("n=%d W=%d %s: sends, receives, bytes sent, bytes received = %v, want %v",
					cfg.n, cfg.workers, got.backend, got.counts, want)
			}
		}
	}
}

// TestSharedMatchesAcrossBackends holds the shared-memory program to
// one answer on both backends, bit for bit, and to the same error on a
// singular system.
func TestSharedMatchesAcrossBackends(t *testing.T) {
	const n, workers = 17, 3
	a, b := NewSystem(n, rand.New(rand.NewSource(n)))
	fac, err := mpf.New(mpf.WithMaxProcesses(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	x, err := SolveShared(fac, workers, a, b)
	if err != nil {
		t.Fatal(err)
	}
	simX, err := RunShared(apps.Simulated(balance.Balance21000()), workers, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(simX, x) {
		t.Errorf("simulated solution differs from native:\n%v\n%v", simX, x)
	}

	a = [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}
	b = []float64{1, 2, 3}
	if _, err := SolveShared(fac, workers, a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("native err = %v, want ErrSingular", err)
	}
	if _, err := RunShared(apps.Simulated(balance.Balance21000()), workers, a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("simulated err = %v, want ErrSingular", err)
	}
}

// TestSimSecondsMatchFormula pins the sequential and shared-memory
// programs' simulated seconds to the closed-form model they replaced —
// per iteration a search over the unmarked rows, worker 0's reduction,
// the sweep, a lock per barrier arrival and wakeup, and the final
// divisions — whose values, printed at full precision, are the
// literals.
func TestSimSecondsMatchFormula(t *testing.T) {
	m := balance.Balance21000()
	for _, c := range []struct {
		n, workers int // workers 0: the sequential program
		want       float64
	}{
		{32, 0, 5.292},
		{96, 0, 136.14480000000003},
		{32, 1, 5.301599999999989},
		{32, 4, 1.4246500000000155},
		{48, 7, 2.7378000000000067},
		{96, 16, 9.205499999999747},
	} {
		a, b := NewSystem(c.n, rand.New(rand.NewSource(int64(c.n))))
		s := apps.Simulated(m)
		var x []float64
		var err error
		if c.workers == 0 {
			x, err = RunSequential(s, a, b)
		} else {
			x, err = RunShared(s, c.workers, a, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Seconds(); got != c.want {
			t.Errorf("n=%d workers=%d: %v simulated seconds, want %v", c.n, c.workers, got, c.want)
		}
		if r := Residual(a, b, x); r > 1e-12 {
			t.Errorf("n=%d workers=%d: residual %g", c.n, c.workers, r)
		}
	}
}

// TestCommunicationScalesWithWorkers confirms the paper's Figure 7
// analysis mechanically: candidate traffic grows linearly with workers
// while row-broadcast bytes stay fixed, so communication per unit of
// computation rises as the partition shrinks.
func TestCommunicationScalesWithWorkers(t *testing.T) {
	const n = 32
	bytesFor := func(workers int) uint64 {
		fac, err := mpf.New(mpf.WithMaxProcesses(workers+1), mpf.WithBlocksPerProcess(2048))
		if err != nil {
			t.Fatal(err)
		}
		defer fac.Shutdown()
		rng := rand.New(rand.NewSource(7))
		a, b := NewSystem(n, rng)
		if _, err := SolveMPF(fac, workers, a, b); err != nil {
			t.Fatal(err)
		}
		return fac.Stats().BytesSent
	}
	b2, b8 := bytesFor(2), bytesFor(8)
	if b8 <= b2 {
		t.Fatalf("bytes sent with 8 workers (%d) not above 2 workers (%d)", b8, b2)
	}
	// The growth is the candidate traffic: 6 extra candidates per
	// iteration at PivotCandSize bytes each.
	wantDelta := uint64(6 * n * 16)
	if got := b8 - b2; got != wantDelta {
		t.Fatalf("traffic delta = %d bytes, want %d (candidates only)", got, wantDelta)
	}
}
