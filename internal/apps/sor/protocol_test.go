package sor

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/internal/wire"
	"repro/mpf"
)

// TestMessageCountMatchesProtocol pins the SOR solver's traffic to the
// paper's structure: per iteration every directed neighbour edge
// carries one halo message (4·n·(n−1) edges on an n×n mesh), every
// worker sends one status message (n²) and the monitor one verdict (1);
// at the end each worker ships one result block (n²). Each
// configuration runs on both backends, which must carry exactly this
// traffic and compute the same grid in as many iterations, bit for bit.
func TestMessageCountMatchesProtocol(t *testing.T) {
	for _, cfg := range []struct{ p, n int }{
		{9, 2}, {9, 3}, {17, 2}, {17, 3},
	} {
		workers := cfg.n * cfg.n
		fac, err := mpf.New(
			mpf.WithMaxProcesses(workers+1),
			mpf.WithMaxLNVCs(256),
			mpf.WithBlocksPerProcess(4096),
		)
		if err != nil {
			t.Fatal(err)
		}
		pr := DefaultProblem(cfg.p)
		g, iters, err := SolveMPF(fac, cfg.n, pr)
		if err != nil {
			t.Fatal(err)
		}
		st := fac.Stats()
		fac.Shutdown()
		if st.MessagesDropped != 0 {
			t.Errorf("p=%d n=%d: %d messages dropped", cfg.p, cfg.n, st.MessagesDropped)
		}

		s := apps.Simulated(balance.Balance21000())
		simG, simIters, err := RunMPF(s, cfg.n, pr)
		if err != nil {
			t.Fatal(err)
		}
		if simIters != iters || !slices.EqualFunc(simG, g, slices.Equal) {
			t.Errorf("p=%d n=%d: simulated solve (%d iterations) differs from native (%d)",
				cfg.p, cfg.n, simIters, iters)
		}

		it, w, n, p := uint64(iters), uint64(workers), uint64(cfg.n), uint64(cfg.p)
		edges := 4 * n * (n - 1)
		// A halo is as long as the block's side, so the 2·(n−1) messages
		// across one line of the mesh carry the grid's whole width; a
		// result block is its (rlo, rhi, clo, chi) header and its points.
		haloBytes := 4 * (n - 1) * p * wire.Float64Size
		resultBytes := w*4*wire.Uint32Size + p*p*wire.Float64Size
		// Receives: halos are FCFS (consumed once); ctl is broadcast to
		// all workers; status and results are FCFS at the monitor.
		want := [4]uint64{
			it*(edges+w+1) + w,
			it*(edges+w+w) + w,
			it*(haloBytes+w*wire.Float64Size+1) + resultBytes,
			it*(haloBytes+w*wire.Float64Size+w) + resultBytes,
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
				t.Errorf("p=%d n=%d iters=%d %s: sends, receives, bytes sent, bytes received = %v, want %v",
					cfg.p, cfg.n, iters, got.backend, got.counts, want)
			}
		}
	}
}

// TestSharedMatchesAcrossBackends holds the shared-memory program to
// one grid in as many iterations on both backends, bit for bit, and to
// the same error when it cannot converge.
func TestSharedMatchesAcrossBackends(t *testing.T) {
	const n = 3
	fac, err := mpf.New(mpf.WithMaxProcesses(n * n))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	pr := DefaultProblem(9)
	g, iters, err := SolveShared(fac, n, pr)
	if err != nil {
		t.Fatal(err)
	}
	simG, simIters, err := RunShared(apps.Simulated(balance.Balance21000()), n, pr)
	if err != nil {
		t.Fatal(err)
	}
	if simIters != iters || !slices.EqualFunc(simG, g, slices.Equal) {
		t.Errorf("simulated solve (%d iterations) differs from native (%d)", simIters, iters)
	}

	pr.MaxIter, pr.Tol = 2, 1e-15
	if _, _, err := SolveShared(fac, n, pr); !errors.Is(err, ErrDiverged) {
		t.Errorf("native err = %v, want ErrDiverged", err)
	}
	if _, _, err := RunShared(apps.Simulated(balance.Balance21000()), n, pr); !errors.Is(err, ErrDiverged) {
		t.Errorf("simulated err = %v, want ErrDiverged", err)
	}
}

// TestSimSecondsMatchFormula pins the shared-memory program's simulated
// seconds per iteration to the closed-form model it replaced — per
// iteration a copy of the halo cells other blocks own, the sweep,
// worker 0's reduction and a lock per barrier arrival and wakeup —
// whose values, printed at full precision, are the literals. The
// iteration counts are the message-passing solve's.
func TestSimSecondsMatchFormula(t *testing.T) {
	m := balance.Balance21000()
	for _, c := range []struct {
		p, n, iters int
		want        float64
	}{
		{9, 1, 79, 0.07319999999999974},
		{9, 3, 115, 0.012210000000000228},
		{17, 2, 271, 0.075610000000002},
		{33, 4, 860, 0.08046000000000411},
	} {
		s := apps.Simulated(m)
		_, iters, err := RunShared(s, c.n, DefaultProblem(c.p))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Seconds() / float64(iters); iters != c.iters || got != c.want {
			t.Errorf("p=%d n=%d: %d iterations of %v simulated seconds, want %d of %v",
				c.p, c.n, iters, got, c.iters, c.want)
		}
	}
}

// TestPerimeterVsAreaTraffic verifies the computation/communication knob
// the paper turns in Figure 8: per iteration, halo bytes grow with the
// mesh dimension while the grid stays fixed.
func TestPerimeterVsAreaTraffic(t *testing.T) {
	const p = 33
	bytesPerIter := func(n int) float64 {
		workers := n * n
		fac, err := mpf.New(
			mpf.WithMaxProcesses(workers+1),
			mpf.WithMaxLNVCs(256),
			mpf.WithBlocksPerProcess(4096),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer fac.Shutdown()
		pr := DefaultProblem(p)
		_, iters, err := SolveMPF(fac, n, pr)
		if err != nil {
			t.Fatal(err)
		}
		return float64(fac.Stats().BytesSent) / float64(iters)
	}
	b2, b4 := bytesPerIter(2), bytesPerIter(4)
	if b4 <= b2 {
		t.Fatalf("halo traffic per iteration: n=4 (%.0f B) not above n=2 (%.0f B)", b4, b2)
	}
}
