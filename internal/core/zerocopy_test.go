package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func zcFacility(t *testing.T, classic bool) *Facility {
	t.Helper()
	f, err := Init(Config{
		MaxLNVCs:      8,
		MaxProcesses:  16,
		BlockSize:     64,
		ClassicChains: classic,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func zcPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 5)
	}
	return b
}

func assertAllFree(t *testing.T, f *Facility, when string) {
	t.Helper()
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("%s: %d of %d blocks free (leak)", when, free, total)
	}
}

func TestLoanCommitRoundtrip(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "zc")
	rid, _ := f.OpenReceive(1, "zc", FCFS)

	payload := zcPattern(1000)
	ln, err := f.SendLoan(0, sid, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if ln.Len() != len(payload) {
		t.Fatalf("loan length %d, want %d", ln.Len(), len(payload))
	}
	b, ok := ln.Bytes()
	if !ok {
		t.Fatal("span-mode loan not contiguous")
	}
	copy(b, payload) // the caller's in-place produce step
	if err := ln.Commit(); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, len(payload))
	n, err := f.Receive(1, rid, buf)
	if err != nil || n != len(payload) {
		t.Fatalf("receive: %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("loan payload corrupted in transit")
	}
	st := f.Stats()
	if st.LoanSends != 1 {
		t.Errorf("LoanSends = %d, want 1", st.LoanSends)
	}
	if st.PayloadCopiesIn != 0 {
		t.Errorf("PayloadCopiesIn = %d, want 0 (loan path copies nothing in)", st.PayloadCopiesIn)
	}
	assertAllFree(t, f, "after loan roundtrip")
}

func TestReceiveViewZeroCopy(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "zc")
	rid, _ := f.OpenReceive(1, "zc", FCFS)

	payload := zcPattern(500)
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 500 || v.Sender() != 0 {
		t.Fatalf("view Len=%d Sender=%d", v.Len(), v.Sender())
	}
	b, ok := v.Bytes()
	if !ok {
		t.Fatal("span-mode view not contiguous")
	}
	if !bytes.Equal(b, payload) {
		t.Fatal("view shows wrong bytes")
	}
	if got := f.Stats().PayloadCopiesOut; got != 0 {
		t.Errorf("PayloadCopiesOut = %d, want 0 before Release", got)
	}
	if got := f.Stats().ViewReceives; got != 1 {
		t.Errorf("ViewReceives = %d, want 1", got)
	}
	v.Release()
	assertAllFree(t, f, "after view release")

	// The claim semantics are Receive's: the message is consumed.
	if ok, _ := f.CheckReceive(1, rid); ok {
		t.Fatal("message still available after view claim")
	}
}

func TestBroadcastViewsShareOnePayload(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "bcast")
	const nRecv = 4
	rids := make([]ID, nRecv)
	for i := 0; i < nRecv; i++ {
		id, err := f.OpenReceive(1+i, "bcast", Broadcast)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = id
	}
	payload := zcPattern(800)
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	views := make([]*View, nRecv)
	var first []byte
	for i := 0; i < nRecv; i++ {
		v, ok, err := f.TryReceiveView(1+i, rids[i])
		if err != nil || !ok {
			t.Fatalf("receiver %d: ok=%v err=%v", i, ok, err)
		}
		b, ok2 := v.Bytes()
		if !ok2 || !bytes.Equal(b, payload) {
			t.Fatalf("receiver %d sees wrong payload", i)
		}
		if i == 0 {
			first = b
		} else if &b[0] != &first[0] {
			t.Fatal("BROADCAST views do not alias one shared payload instance")
		}
		views[i] = v
	}
	if got := f.Stats().PayloadCopiesOut; got != 0 {
		t.Errorf("PayloadCopiesOut = %d, want 0: fan-out must not copy", got)
	}
	// Releases in arbitrary order; blocks return only after the last.
	views[2].Release()
	views[0].Release()
	views[3].Release()
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free == total {
		t.Fatal("blocks recycled while a view is still live")
	}
	views[1].Release()
	assertAllFree(t, f, "after last broadcast release")
}

func TestLoanAbortReturnsBlocks(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "zc")
	f.OpenReceive(1, "zc", FCFS)
	ln, err := f.SendLoan(0, sid, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free == total {
		t.Fatal("loan did not take blocks")
	}
	ln.Abort()
	assertAllFree(t, f, "after abort")

	// Commit after Abort must refuse, not enqueue freed blocks.
	if err := ln.Commit(); !errors.Is(err, ErrLoanDone) {
		t.Fatalf("Commit after Abort = %v, want ErrLoanDone", err)
	}
	// Double Abort and Abort after Commit are no-ops.
	ln.Abort()
	ln2, _ := f.SendLoan(0, sid, 10)
	if err := ln2.Commit(); err != nil {
		t.Fatal(err)
	}
	ln2.Abort()
	if err := ln2.Commit(); !errors.Is(err, ErrLoanDone) {
		t.Fatalf("second Commit = %v, want ErrLoanDone", err)
	}
}

func TestLoanCommitOnDeadCircuit(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "dies")
	ln, err := f.SendLoan(0, sid, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	if err := ln.Commit(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("Commit on dead circuit = %v, want ErrNotConnected", err)
	}
	assertAllFree(t, f, "after failed commit")
}

func TestViewDoubleReleaseIsNoOp(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "zc")
	rid, _ := f.OpenReceive(1, "zc", FCFS)
	f.Send(0, sid, zcPattern(100))
	f.Send(0, sid, zcPattern(100))
	v1, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	// A second claimed-and-pinned message guards against the double
	// release manifesting as a negative pin count that would let the
	// reclaim scan free it early.
	v2, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	v1.Release()
	v1.Release() // must not double-unpin
	if _, ok := v2.Bytes(); !ok {
		t.Fatal("live view lost its payload after sibling double release")
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free == total {
		t.Fatal("blocks recycled while v2 is still live")
	}
	if b, _ := v1.Bytes(); b != nil {
		t.Fatal("released view still exposes payload")
	}
	if v1.CopyTo(make([]byte, 10)) != 0 {
		t.Fatal("released view still copies")
	}
	if v1.Len() != 0 || v1.Sender() != -1 {
		t.Fatalf("released view still reads its header: Len %d, Sender %d", v1.Len(), v1.Sender())
	}
	v2.Release()
	assertAllFree(t, f, "after all releases")
}

func TestViewSurvivesCloseReceive(t *testing.T) {
	f := zcFacility(t, false)
	payload := zcPattern(600)
	sid, _ := f.OpenSend(0, "orphan")
	rid, _ := f.OpenReceive(1, "orphan", FCFS)
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the circuit entirely while the view is held: the message is
	// orphaned to the pin holder, not recycled.
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	b, ok := v.Bytes()
	if !ok || !bytes.Equal(b, payload) {
		t.Fatal("view invalidated by circuit deletion")
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free == total {
		t.Fatal("orphaned blocks recycled under a live view")
	}
	v.Release()
	assertAllFree(t, f, "after orphan release")
}

func TestUnreadPinnedMessageOrphanedAtDeletion(t *testing.T) {
	f := zcFacility(t, false)
	sid, _ := f.OpenSend(0, "orphan2")
	rid, _ := f.OpenReceive(1, "orphan2", Broadcast)
	// Two messages; the receiver views the first, never reads the second.
	if err := f.Send(0, sid, zcPattern(100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, sid, zcPattern(100)); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	f.CloseReceive(1, rid)
	f.CloseSend(0, sid)
	// The unread message was released at deletion; the viewed one lives.
	if b, ok := v.Bytes(); !ok || len(b) != 100 {
		t.Fatal("view invalidated by deletion")
	}
	st := f.Stats()
	if st.MessagesDropped != 2 {
		t.Errorf("MessagesDropped = %d, want 2 (both left the queue at deletion)", st.MessagesDropped)
	}
	v.Release()
	assertAllFree(t, f, "after release")
}

func TestViewSurvivesShutdown(t *testing.T) {
	f := zcFacility(t, false)
	payload := zcPattern(300)
	sid, _ := f.OpenSend(0, "down")
	rid, _ := f.OpenReceive(1, "down", FCFS)
	f.Send(0, sid, payload)
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	b, ok := v.Bytes()
	if !ok || !bytes.Equal(b, payload) {
		t.Fatal("view invalidated by shutdown")
	}
	v.Release() // must not panic, must return the blocks
	assertAllFree(t, f, "after post-shutdown release")
}

func TestReceiveViewDeadline(t *testing.T) {
	f := zcFacility(t, false)
	f.OpenSend(0, "idle")
	rid, _ := f.OpenReceive(1, "idle", FCFS)
	if _, err := f.ReceiveViewDeadline(1, rid, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if _, err := f.ReceiveViewDeadline(1, rid, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("zero deadline err = %v, want ErrTimeout", err)
	}
}

func TestClassicChainsMultiSegmentView(t *testing.T) {
	f := zcFacility(t, true) // paper layout: 64-byte blocks, 60 payload each
	sid, _ := f.OpenSend(0, "classic")
	rid, _ := f.OpenReceive(1, "classic", FCFS)
	payload := zcPattern(200) // 4 blocks
	ln, err := f.SendLoan(0, sid, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ln.Bytes(); ok {
		t.Fatal("classic-chain multi-block loan claims contiguity")
	}
	if n := ln.View().CopyFrom(payload); n != len(payload) {
		t.Fatalf("CopyFrom wrote %d", n)
	}
	if err := ln.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Bytes(); ok {
		t.Fatal("classic-chain multi-block view claims contiguity")
	}
	var got []byte
	v.Segments(func(seg []byte) bool {
		got = append(got, seg...)
		return true
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("segment walk corrupts classic-chain payload")
	}
	out := make([]byte, len(payload))
	if n := v.CopyTo(out); n != len(payload) || !bytes.Equal(out, payload) {
		t.Fatal("CopyTo escape hatch corrupts payload")
	}
	if got := f.Stats().PayloadCopiesOut; got != 1 {
		t.Errorf("PayloadCopiesOut = %d, want 1 (the explicit CopyTo)", got)
	}
	v.Release()
	assertAllFree(t, f, "after classic roundtrip")
}

// TestViewChurnRace races loan sends, view receives with held views,
// copying receives, and receiver close/reopen churn, for the race
// detector; the invariant checks (no leak, no premature recycle) are
// the fuzz test's, here under real concurrency.
func TestViewChurnRace(t *testing.T) {
	f := zcFacility(t, false)
	const (
		senders = 2
		viewers = 3
		rounds  = 300
	)
	sids := make([]ID, senders)
	for i := range sids {
		id, err := f.OpenSend(i, "churn")
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = id
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			payload := zcPattern(256)
			for r := 0; r < rounds; r++ {
				if r%2 == 0 {
					ln, err := f.SendLoan(pid, sids[pid], len(payload))
					if err != nil {
						t.Errorf("sender %d: %v", pid, err)
						return
					}
					ln.View().CopyFrom(payload)
					if r%10 == 0 {
						ln.Abort()
						continue
					}
					if err := ln.Commit(); err != nil {
						t.Errorf("sender %d commit: %v", pid, err)
						return
					}
				} else if err := f.Send(pid, sids[pid], payload); err != nil {
					t.Errorf("sender %d send: %v", pid, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			buf := make([]byte, 256)
			for r := 0; r < rounds; r++ {
				rid, err := f.OpenReceive(pid, "churn", Broadcast)
				if err != nil {
					t.Errorf("viewer %d open: %v", pid, err)
					return
				}
				for k := 0; k < 4; k++ {
					if k%2 == 0 {
						v, ok, err := f.TryReceiveView(pid, rid)
						if err != nil {
							t.Errorf("viewer %d: %v", pid, err)
							return
						}
						if ok {
							if v.Len() != 256 {
								t.Errorf("viewer %d: short view %d", pid, v.Len())
							}
							v.Segments(func(seg []byte) bool { _ = seg[0]; return true })
							v.Release()
							v.Release()
						}
					} else if _, _, err := f.TryReceive(pid, rid, buf); err != nil {
						t.Errorf("viewer %d copy: %v", pid, err)
						return
					}
				}
				if err := f.CloseReceive(pid, rid); err != nil {
					t.Errorf("viewer %d close: %v", pid, err)
					return
				}
			}
		}(senders + i)
	}
	wg.Wait()
	for i := range sids {
		if err := f.CloseSend(i, sids[i]); err != nil {
			t.Fatal(err)
		}
	}
	assertAllFree(t, f, "after churn race")
}
