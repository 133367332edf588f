package gauss

import (
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
		simX, err := solve(s, cfg.workers, a, b)
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
