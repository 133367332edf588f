//go:build linux && (amd64 || arm64)

package mpf

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shm"
)

func xprocPair(t *testing.T) (*net.UnixConn, *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fd int) *net.UnixConn {
		f := os.NewFile(uintptr(fd), "xproc-test")
		defer f.Close()
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.UnixConn)
	}
	a, b := mk(fds[0]), mk(fds[1])
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestProcServeAttachRoundTrip runs the full cross-process protocol —
// fd passing, independent mapping, the slot's incarnation, both bridge phases —
// inside one test process. The attached client maps the memfd a second
// time at a different base address, so offset resolution is exercised
// exactly as it is between real processes.
func TestProcServeAttachRoundTrip(t *testing.T) {
	srv, err := ServeProc(ServeConfig{
		Children: 2,
		RingCap:  8,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(256)},
	})
	if errors.Is(err, ErrNoSharedBackend) {
		t.Skip("no shared backend")
	}
	if err != nil {
		t.Fatal(err)
	}

	const msgs, size = 200, 300
	var wg sync.WaitGroup
	clients := make([]*ProcClient, 2)
	for slot := 0; slot < 2; slot++ {
		parent, child := xprocPair(t)
		if err := srv.SendSegmentTo(parent, slot); err != nil {
			t.Fatal(err)
		}
		cl, err := AttachProcConn(child)
		if err != nil {
			t.Fatal(err)
		}
		clients[slot] = cl
		if cl.Slot() != slot {
			t.Fatalf("client given slot %d, want %d", cl.Slot(), slot)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Serve(); err != nil {
				t.Error(err)
			}
		}()
	}

	for slot := 0; slot < 2; slot++ {
		if n, err := srv.BridgeDown(slot, msgs, size); err != nil || n != msgs {
			t.Fatalf("slot %d down: %d round trips, %v", slot, n, err)
		}
		if n, err := srv.BridgeUp(slot, msgs, size); err != nil || n != msgs {
			t.Fatalf("slot %d up: %d round trips, %v", slot, n, err)
		}
		if err := srv.FinishSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for slot, cl := range clients {
		if cl.Served() != 2*msgs {
			t.Fatalf("slot %d served %d records, want %d", slot, cl.Served(), 2*msgs)
		}
		if s := srv.Table().SlotState(slot); s != core.SlotFree {
			t.Fatalf("slot %d state %d after FinishSlot, want free", slot, s)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("client %d close: %v", slot, err)
		}
	}

	// The whole exchange crossed the process boundary by reference:
	// the ledger must show every message on the batched zero-copy
	// planes and not one payload byte copied.
	st := srv.Facility().Stats()
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		t.Fatalf("payload copies: in=%d out=%d, want 0/0", st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
	if want := uint64(2 * 2 * msgs); st.LoanBatchSends != want || st.HarvestedViews != want {
		t.Fatalf("ledger: batched loans=%d harvested views=%d, want %d each", st.LoanBatchSends, st.HarvestedViews, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server close (unmap): %v", err)
	}
}

// TestProcAttachStaleGeneration forges a handshake with a wrong
// generation and checks the attach is refused at the table, not
// misread.
func TestProcAttachStaleGeneration(t *testing.T) {
	srv, err := ServeProc(ServeConfig{Children: 1})
	if errors.Is(err, ErrNoSharedBackend) {
		t.Skip("no shared backend")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	parent, child := xprocPair(t)
	h := srv.Handshake(0)
	h.Generation++ // a handshake from a previous serve instance
	if err := shm.SendSegment(parent, srv.Segment(), h); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachProcConn(child); !errors.Is(err, core.ErrGenerationMismatch) {
		t.Fatalf("stale attach: %v, want ErrGenerationMismatch", err)
	}
}

// TestProcReclaimSlot kills a child (in spirit) mid-round-trip: the
// "child" pops a VIEW record and then vanishes without acking or
// finishing. The bridge is parked waiting for the acks with its window
// of views pinned and credit debited; ReclaimSlot must unpark it with
// ErrPeerDead,
// restore every pin and credit block, reformat the rings and free the
// slot — after which a second incarnation attaches and completes a full
// workload over the same slot.
func TestProcReclaimSlot(t *testing.T) {
	srv, err := ServeProc(ServeConfig{
		Children: 1,
		RingCap:  8,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(64), WithCredit(16)},
	})
	if errors.Is(err, ErrNoSharedBackend) {
		t.Skip("no shared backend")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arena := srv.Facility().Core().Arena()
	totalBlocks := arena.FreeBlocks()

	parent, child := xprocPair(t)
	if err := srv.SendSegmentTo(parent, 0); err != nil {
		t.Fatal(err)
	}
	cl, err := AttachProcConn(child)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gen := cl.Gen()

	// The bridge pushes its window of VIEWs (all 5: the credit budget
	// covers them) and parks for the acks.
	bridgeErr := make(chan error, 1)
	go func() {
		_, err := srv.BridgeDown(0, 5, 256)
		bridgeErr <- err
	}()

	// The child consumes the record... and dies. No ack, no done echo.
	down, _ := srv.Table().Rings(0)
	for {
		if _, ok, err := down.TryPop(); err != nil || ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	rep, ok := srv.ReclaimSlot(0, gen)
	if !ok {
		t.Fatal("ReclaimSlot refused the dead incarnation")
	}
	if err := <-bridgeErr; !errors.Is(err, ErrPeerDead) {
		t.Fatalf("parked bridge returned %v, want ErrPeerDead", err)
	}

	// Stale generations cannot double-reclaim.
	if _, ok := srv.ReclaimSlot(0, gen); ok {
		t.Fatal("second ReclaimSlot of the same generation succeeded")
	}

	// Everything the dead incarnation held is back: slot free, ledger
	// quiescent, zero leaked pins (all arena blocks returned).
	if s := srv.Table().SlotState(0); s != core.SlotFree {
		t.Fatalf("slot state %d after reclaim, want free", s)
	}
	st := srv.Facility().Stats()
	if st.PeerDeaths != 1 {
		t.Fatalf("PeerDeaths = %d, want 1", st.PeerDeaths)
	}
	if st.CreditsHeld != 0 {
		t.Fatalf("credit leak: %d blocks still held after reclaim", st.CreditsHeld)
	}
	if free := arena.FreeBlocks(); free != totalBlocks {
		t.Fatalf("pin leak: %d of %d blocks free after reclaim", free, totalBlocks)
	}
	if rep.Gen != gen || rep.Elapsed <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if st.ReclaimLatencyNanos == 0 {
		t.Fatal("reclaim latency not recorded")
	}

	// The slot is genuinely reusable: a new incarnation runs the full
	// protocol over the reformatted rings.
	parent2, child2 := xprocPair(t)
	if err := srv.SendSegmentTo(parent2, 0); err != nil {
		t.Fatal(err)
	}
	cl2, err := AttachProcConn(child2)
	if err != nil {
		t.Fatalf("re-attach after reclaim: %v", err)
	}
	defer cl2.Close()
	if cl2.Gen() != gen+1 {
		t.Fatalf("second incarnation gen %d, want %d", cl2.Gen(), gen+1)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- cl2.Serve() }()
	if n, err := srv.BridgeDown(0, 20, 256); err != nil || n != 20 {
		t.Fatalf("post-reclaim down: %d, %v", n, err)
	}
	if n, err := srv.BridgeUp(0, 20, 256); err != nil || n != 20 {
		t.Fatalf("post-reclaim up: %d, %v", n, err)
	}
	if err := srv.FinishSlot(0); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if st := srv.Facility().Stats(); st.CreditsHeld != 0 {
		t.Fatalf("ledger not quiescent after second incarnation: %d held", st.CreditsHeld)
	}
}

// TestPeerDeathChurnRace churns incarnations on every slot at once:
// in-process peers are begun with SendSegmentTo, bridged, and either
// finished with FinishSlot or "killed" — their death handed to a reaper
// goroutine that calls ReclaimSlot while the slot's bridge call is in
// flight, and hands it every death a second time, by then stale. The
// begin of the next incarnation races that reaper. Every death must be
// reclaimed exactly once, the stale ones refused; every slot must end
// free, no credit held and the arena intact. Run under -race in CI.
func TestPeerDeathChurnRace(t *testing.T) {
	const nSlots, rounds = 4, 12
	srv := serveOrSkip(t, ServeConfig{
		Children: nSlots,
		RingCap:  8,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(256), WithCredit(32)},
	})
	arena := srv.Facility().Core().Arena()
	free := arena.FreeBlocks()
	type pair struct{ parent, child *net.UnixConn }
	pairs := make([][rounds]pair, nSlots)
	for slot := range pairs {
		for r := range pairs[slot] {
			pairs[slot][r].parent, pairs[slot][r].child = xprocPair(t)
		}
	}

	deaths := make(chan ReclaimReport, 2*nSlots*rounds)
	var reclaimed, died atomic.Int64
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for d := range deaths {
			if _, ok := srv.ReclaimSlot(d.Slot, d.Gen); ok {
				reclaimed.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for slot := 0; slot < nSlots; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// The last incarnation's reclaim may still be queued.
				for srv.SendSegmentTo(pairs[slot][r].parent, slot) != nil {
					time.Sleep(100 * time.Microsecond)
				}
				cl, err := AttachProcConn(pairs[slot][r].child)
				if err != nil {
					t.Error(err)
					return
				}
				served := make(chan error, 1)
				go func() { served <- cl.Serve() }()
				if (slot+r)%3 == 0 {
					died.Add(1)
					death := ReclaimReport{Slot: slot, Gen: cl.Gen()}
					deaths <- death
					if _, err := srv.BridgeDown(slot, 20, 200); err != nil && !errors.Is(err, ErrPeerDead) {
						t.Errorf("slot %d: a call racing the reclaim: %v", slot, err)
					}
					if err := <-served; err == nil {
						t.Errorf("slot %d: the reclaimed worker returned no error", slot)
					}
					deaths <- death // stale by now
				} else {
					if n, err := srv.BridgeDown(slot, 20, 200); err != nil || n != 20 {
						t.Errorf("slot %d down: %d, %v", slot, n, err)
					}
					if n, err := srv.BridgeUp(slot, 20, 200); err != nil || n != 20 {
						t.Errorf("slot %d up: %d, %v", slot, n, err)
					}
					if err := srv.FinishSlot(slot); err != nil {
						t.Errorf("slot %d finish: %v", slot, err)
					}
					if err := <-served; err != nil {
						t.Errorf("slot %d worker: %v", slot, err)
					}
				}
				cl.Close()
			}
		}()
	}
	wg.Wait()
	close(deaths)
	<-reaped

	if got, want := reclaimed.Load(), died.Load(); got != want {
		t.Fatalf("%d reclaims for %d deaths", got, want)
	}
	if n := srv.Facility().Stats().PeerDeaths; n != uint64(died.Load()) {
		t.Fatalf("PeerDeaths = %d, want %d", n, died.Load())
	}
	for slot := 0; slot < nSlots; slot++ {
		if st := srv.Table().SlotState(slot); st != core.SlotFree {
			t.Fatalf("slot %d state %d after the churn, want free", slot, st)
		}
	}
	quiescent(t, srv, free)
	if err := arena.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}
