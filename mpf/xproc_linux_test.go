//go:build linux && (amd64 || arm64)

package mpf

import (
	"errors"
	"net"
	"os"
	"sync"
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
// fd passing, independent mapping, slot claim, both bridge phases —
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
			t.Fatalf("client claimed slot %d, want %d", cl.Slot(), slot)
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
		if s := srv.Table().SlotState(slot); s != core.SlotDetached {
			t.Fatalf("slot %d state %d after Serve, want detached", slot, s)
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
// detaching. The bridge is parked waiting for the acks with its window
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

	// The child consumes the record... and dies. No ack, no detach.
	down, err := srv.Table().DownRing(0)
	if err != nil {
		t.Fatal(err)
	}
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

// TestProcSupervisorProbe covers the liveness sweep for peers the
// server did not spawn: a slot claimed under a pid that does not exist
// is confirmed dead over two sweeps and reclaimed; a slot owned by a
// live pid (this test process) is left alone.
func TestProcSupervisorProbe(t *testing.T) {
	srv, err := ServeProc(ServeConfig{Children: 2, RingCap: 8})
	if errors.Is(err, ErrNoSharedBackend) {
		t.Skip("no shared backend")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Slot 0: owner is this (live) process. Slot 1: a pid that cannot
	// exist (beyond any kernel.pid_max).
	if err := srv.Table().Claim(0, uint32(os.Getpid())); err != nil {
		t.Fatal(err)
	}
	if err := srv.Table().Claim(1, 1<<31-7); err != nil {
		t.Fatal(err)
	}

	deaths := make(chan ReclaimReport, 4)
	sup := srv.Supervise(nil, SuperviseConfig{
		ProbeInterval: 5 * time.Millisecond,
		OnDeath:       func(r ReclaimReport) { deaths <- r },
	})
	defer sup.Stop()

	select {
	case r := <-deaths:
		if r.Slot != 1 {
			t.Fatalf("probe reclaimed slot %d, want 1", r.Slot)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe never reclaimed the dead-pid slot")
	}
	if s := srv.Table().SlotState(1); s != core.SlotFree {
		t.Fatalf("slot 1 state %d after probe reclaim", s)
	}
	// Give the sweep a few more rounds: the live slot must survive.
	time.Sleep(50 * time.Millisecond)
	if s := srv.Table().SlotState(0); s != core.SlotAttached {
		t.Fatalf("live-owner slot reclaimed (state %d)", s)
	}
	if n := srv.Facility().Stats().PeerDeaths; n != 1 {
		t.Fatalf("PeerDeaths = %d, want 1", n)
	}
}
