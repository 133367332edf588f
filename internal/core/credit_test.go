package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// creditFacility builds a small credited facility: 64-byte blocks (60
// payload), so an 8-byte payload costs exactly one accounted block.
func creditFacility(t *testing.T, budget int, policy SendPolicy) *Facility {
	t.Helper()
	fac, err := Init(Config{
		MaxLNVCs:         4,
		MaxProcesses:     8,
		BlocksPerProcess: 64,
		SendPolicy:       policy,
		CreditBlocks:     budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fac.Shutdown)
	return fac
}

func creditInfo(t *testing.T, fac *Facility, id ID) Info {
	t.Helper()
	info, err := fac.LNVCInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestCreditDebitGrant exercises the ledger's core cycle under
// FailFast: sends debit one block each until the budget is exhausted
// (ErrNoCredit), a receive re-grants, and the ledger plus the
// facility gauge track every step.
func TestCreditDebitGrant(t *testing.T) {
	fac := creditFacility(t, 4, FailFast)
	sid, err := fac.OpenSend(0, "credit")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := fac.OpenReceive(1, "credit", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	for i := 0; i < 4; i++ {
		if err := fac.Send(0, sid, payload); err != nil {
			t.Fatalf("send %d within budget: %v", i, err)
		}
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 4 || got.CreditCap != 4 {
		t.Fatalf("ledger after 4 sends: used %d cap %d, want 4/4", got.CreditUsed, got.CreditCap)
	}
	if st := fac.Stats(); st.CreditsHeld != 4 {
		t.Fatalf("gauge after 4 sends: %d, want 4", st.CreditsHeld)
	}
	err = fac.Send(0, sid, payload)
	if !errors.Is(err, ErrNoCredit) {
		t.Fatalf("overdraw send: %v, want ErrNoCredit", err)
	}
	buf := make([]byte, 8)
	if _, err := fac.Receive(1, rid, buf); err != nil {
		t.Fatal(err)
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 3 {
		t.Fatalf("ledger after receive: used %d, want 3", got.CreditUsed)
	}
	if err := fac.Send(0, sid, payload); err != nil {
		t.Fatalf("send after re-grant: %v", err)
	}
	// Drain everything: the ledger and gauge return to zero.
	for i := 0; i < 4; i++ {
		if _, err := fac.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 0 {
		t.Fatalf("ledger after drain: used %d, want 0", got.CreditUsed)
	}
	if st := fac.Stats(); st.CreditsHeld != 0 {
		t.Fatalf("gauge after drain: %d, want 0", st.CreditsHeld)
	}
}

// TestCreditOversizeMessage: a message whose accounted demand exceeds
// the whole budget can never be granted, so it fails with ErrNoCredit
// under either send policy instead of parking forever.
func TestCreditOversizeMessage(t *testing.T) {
	for _, policy := range []SendPolicy{BlockUntilFree, FailFast} {
		fac := creditFacility(t, 2, policy)
		sid, err := fac.OpenSend(0, "big")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fac.OpenReceive(1, "big", FCFS); err != nil {
			t.Fatal(err)
		}
		big := make([]byte, 60*3) // 3 accounted blocks > budget of 2
		if err := fac.Send(0, sid, big); !errors.Is(err, ErrNoCredit) {
			t.Fatalf("policy %v: oversize send: %v, want ErrNoCredit", policy, err)
		}
		if _, err := fac.SendLoan(0, sid, len(big)); !errors.Is(err, ErrNoCredit) {
			t.Fatalf("policy %v: oversize loan: %v, want ErrNoCredit", policy, err)
		}
		if _, err := fac.LoanBatch(0, sid, []int{60, 60, 60}); !errors.Is(err, ErrNoCredit) {
			t.Fatalf("policy %v: oversize batch: %v, want ErrNoCredit", policy, err)
		}
	}
}

// TestCreditStallAndGrant: under BlockUntilFree an overdrawing sender
// parks on the circuit's condition variable and a receive's reclaim
// wakes it — the stall is visible in Stats.CreditStalls.
func TestCreditStallAndGrant(t *testing.T) {
	fac := creditFacility(t, 2, BlockUntilFree)
	sid, err := fac.OpenSend(0, "stall")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := fac.OpenReceive(1, "stall", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	for i := 0; i < 2; i++ {
		if err := fac.Send(0, sid, payload); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- fac.Send(0, sid, payload) }()
	select {
	case err := <-done:
		t.Fatalf("overdraw send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	buf := make([]byte, 8)
	if _, err := fac.Receive(1, rid, buf); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked send after grant: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked send not woken by the receive's grant")
	}
	if st := fac.Stats(); st.CreditStalls == 0 {
		t.Fatal("no credit stall recorded for the parked send")
	}
}

// TestCreditLoanAbortRestores: a loan debits at allocation and an
// abort refunds the never-enqueued demand.
func TestCreditLoanAbortRestores(t *testing.T) {
	fac := creditFacility(t, 4, FailFast)
	sid, err := fac.OpenSend(0, "loan")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.OpenReceive(1, "loan", FCFS); err != nil {
		t.Fatal(err)
	}
	ln, err := fac.SendLoan(0, sid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 1 {
		t.Fatalf("ledger after loan: used %d, want 1", got.CreditUsed)
	}
	ln.Abort()
	if got := creditInfo(t, fac, sid); got.CreditUsed != 0 {
		t.Fatalf("ledger after abort: used %d, want 0", got.CreditUsed)
	}
	if st := fac.Stats(); st.CreditsHeld != 0 {
		t.Fatalf("gauge after abort: %d, want 0", st.CreditsHeld)
	}
}

// TestCreditCommitNPartialAbortRestores: CommitN(k) keeps the
// committed prefix's debit and refunds the aborted remainder's, under
// the same lock hold that enqueued the prefix.
func TestCreditCommitNPartialAbortRestores(t *testing.T) {
	fac := creditFacility(t, 8, FailFast)
	sid, err := fac.OpenSend(0, "batch")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := fac.OpenReceive(1, "batch", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := fac.LoanBatch(0, sid, []int{8, 8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 4 {
		t.Fatalf("ledger after batch: used %d, want 4", got.CreditUsed)
	}
	if err := lb.CommitN(1); err != nil {
		t.Fatal(err)
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 1 {
		t.Fatalf("ledger after CommitN(1): used %d, want 1 (aborted remainder restored)", got.CreditUsed)
	}
	buf := make([]byte, 8)
	if _, err := fac.Receive(1, rid, buf); err != nil {
		t.Fatal(err)
	}
	if got := creditInfo(t, fac, sid); got.CreditUsed != 0 {
		t.Fatalf("ledger after drain: used %d, want 0", got.CreditUsed)
	}
	// AbortAll on a fresh batch restores everything at once.
	lb2, err := fac.LoanBatch(0, sid, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	lb2.AbortAll()
	if st := fac.Stats(); st.CreditsHeld != 0 {
		t.Fatalf("gauge after AbortAll: %d, want 0", st.CreditsHeld)
	}
}

// TestCloseReceiveWithParkedCreditWaiters: credit is receiver-granted,
// so a sender parked for credit when the circuit's last receiver
// departs can never be satisfied. The close path wakes the credit
// waiters and the park fails with a prompt ErrNotConnected instead of
// hanging until an unrelated event.
func TestCloseReceiveWithParkedCreditWaiters(t *testing.T) {
	fac := creditFacility(t, 2, BlockUntilFree)
	sid, err := fac.OpenSend(0, "depart")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := fac.OpenReceive(1, "depart", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	for i := 0; i < 2; i++ {
		if err := fac.Send(0, sid, payload); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- fac.Send(0, sid, payload) }()
	select {
	case err := <-done:
		t.Fatalf("overdraw send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The receiver leaves without consuming: the two queued messages
	// keep their debits (they are retained for a late joiner), so the
	// parked sender's grant can never arrive.
	if err := fac.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked send after last receiver left: %v, want ErrNotConnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked credit waiter not woken by CloseReceive")
	}
}

// TestCloseSendWithParkedCreditWaiter: closing the parked sender's own
// connection fails the park promptly too — the same revalidation
// contract the receive-side parks honour.
func TestCloseSendWithParkedCreditWaiter(t *testing.T) {
	fac := creditFacility(t, 2, BlockUntilFree)
	sid, err := fac.OpenSend(0, "closesend")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.OpenReceive(1, "closesend", FCFS); err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	for i := 0; i < 2; i++ {
		if err := fac.Send(0, sid, payload); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- fac.Send(0, sid, payload) }()
	select {
	case err := <-done:
		t.Fatalf("overdraw send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := fac.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked send after CloseSend: %v, want ErrNotConnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked credit waiter not woken by CloseSend")
	}
}

// TestCreditShutdownWakesParked: facility shutdown aborts a parked
// credit waiter with ErrShutdown.
func TestCreditShutdownWakesParked(t *testing.T) {
	fac := creditFacility(t, 1, BlockUntilFree)
	sid, err := fac.OpenSend(0, "shutdown")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fac.OpenReceive(1, "shutdown", FCFS); err != nil {
		t.Fatal(err)
	}
	if err := fac.Send(0, sid, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fac.Send(0, sid, []byte("12345678")) }()
	select {
	case err := <-done:
		t.Fatalf("overdraw send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fac.Shutdown()
	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("parked send after Shutdown: %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked credit waiter not woken by Shutdown")
	}
}

// TestCreditUncreditedUnchanged: with CreditBlocks at its zero default
// the ledger never engages — no stalls, no held blocks — however the
// traffic mixes planes. This is the no-credit half of the fairness
// gate's ablation contract.
func TestCreditUncreditedUnchanged(t *testing.T) {
	fac, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4, BlocksPerProcess: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	sid, err := fac.OpenSend(0, "plain")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := fac.OpenReceive(1, "plain", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if err := fac.Send(0, sid, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	ln, err := fac.SendLoan(0, sid, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Commit(); err != nil {
		t.Fatal(err)
	}
	lb, err := fac.LoanBatch(0, sid, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.CommitAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 4; i++ {
		if _, err := fac.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := fac.Stats()
	if st.CreditStalls != 0 || st.CreditsHeld != 0 {
		t.Fatalf("uncredited facility touched the ledger: stalls %d, held %d", st.CreditStalls, st.CreditsHeld)
	}
	if got := creditInfo(t, fac, sid); got.CreditCap != 0 || got.CreditUsed != 0 {
		t.Fatalf("uncredited circuit carries a ledger: cap %d used %d", got.CreditCap, got.CreditUsed)
	}
}

// TestCreditChurnRace hammers one credited facility from many
// goroutines — plain sends, loans that randomly abort, loan batches
// resolved by CommitAll/CommitN/AbortAll, copying receives, view
// receives with held-then-released views, and receiver close/reopen
// churn — then drains and asserts the ledger, the gauge and the arena
// all return to zero. Runs in the -race -short CI subset.
func TestCreditChurnRace(t *testing.T) {
	fac, err := Init(Config{
		MaxLNVCs:         8,
		MaxProcesses:     8,
		BlocksPerProcess: 32,
		SendPolicy:       FailFast,
		CreditBlocks:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()

	const (
		circuits = 3
		senders  = 3
		rounds   = 400
	)
	name := func(c int) string { return fmt.Sprintf("churn-%d", c) }

	// Anchor receivers (pids 3..5, FCFS) hold every circuit open across
	// the sender churn; churners (pid 6) close/reopen a BROADCAST
	// connection on a random circuit.
	var anchors [circuits]ID
	for c := 0; c < circuits; c++ {
		id, err := fac.OpenReceive(3+c, name(c), FCFS)
		if err != nil {
			t.Fatal(err)
		}
		anchors[c] = id
	}

	var wg, drainWg sync.WaitGroup
	var sent atomic.Int64
	stop := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			ids := make([]ID, circuits)
			for c := 0; c < circuits; c++ {
				id, err := fac.OpenSend(pid, name(c))
				if err != nil {
					t.Error(err)
					return
				}
				ids[c] = id
			}
			payload := []byte("12345678")
			for i := 0; i < rounds; i++ {
				id := ids[rng.Intn(circuits)]
				switch rng.Intn(4) {
				case 0:
					if err := fac.Send(pid, id, payload); err == nil {
						sent.Add(1)
					} else if !errors.Is(err, ErrNoCredit) && !errors.Is(err, ErrNoMemory) {
						t.Errorf("send: %v", err)
						return
					}
				case 1:
					ln, err := fac.SendLoan(pid, id, 8)
					if err != nil {
						if !errors.Is(err, ErrNoCredit) && !errors.Is(err, ErrNoMemory) {
							t.Errorf("loan: %v", err)
							return
						}
						continue
					}
					if rng.Intn(3) == 0 {
						ln.Abort()
						continue
					}
					ln.View().CopyFrom(payload)
					if err := ln.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					sent.Add(1)
				case 2:
					lb, err := fac.LoanBatch(pid, id, []int{8, 8, 8})
					if err != nil {
						if !errors.Is(err, ErrNoCredit) && !errors.Is(err, ErrNoMemory) {
							t.Errorf("loan batch: %v", err)
							return
						}
						continue
					}
					for j := 0; j < 3; j++ {
						lb.Fill(j, payload)
					}
					switch rng.Intn(3) {
					case 0:
						if err := lb.CommitAll(); err != nil {
							t.Errorf("commit all: %v", err)
							return
						}
						sent.Add(3)
					case 1:
						if err := lb.CommitN(1); err != nil {
							t.Errorf("commit n: %v", err)
							return
						}
						sent.Add(1)
					default:
						lb.AbortAll()
					}
				default:
					// A view held briefly, then released: pins ride the
					// churn. Sender pids double as broadcast-free FCFS
					// competitors via the anchor receivers below.
				}
			}
		}(s)
	}
	// Drainers: the anchor receivers consume continuously so grants keep
	// flowing; a churner closes and reopens a BROADCAST receive on
	// circuit 0, exercising ledger interaction with Pending claims.
	for c := 0; c < circuits; c++ {
		drainWg.Add(1)
		go func(pid int, id ID) {
			defer drainWg.Done()
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rand.Intn(2) == 0 {
					if v, ok, err := fac.TryReceiveView(pid, id); err != nil {
						t.Errorf("view drain: %v", err)
						return
					} else if ok {
						_, _ = v.Bytes()
						v.Release()
					}
				} else {
					if _, _, err := fac.TryReceive(pid, id, buf); err != nil {
						t.Errorf("drain: %v", err)
						return
					}
				}
			}
		}(3+c, anchors[c])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id, err := fac.OpenReceive(6, name(0), Broadcast)
			if err != nil {
				t.Errorf("churn open: %v", err)
				return
			}
			if v, ok, err := fac.TryReceiveView(6, id); err != nil {
				t.Errorf("churn view: %v", err)
				return
			} else if ok {
				v.Release()
			}
			if err := fac.CloseReceive(6, id); err != nil {
				t.Errorf("churn close: %v", err)
				return
			}
		}
	}()

	// Wait for senders and churner, then stop the drainers once the
	// queues are empty.
	waitSenders := make(chan struct{})
	go func() { wg.Wait(); close(waitSenders) }()
	deadline := time.After(60 * time.Second)
	for {
		// Sample the senders first: queues seen empty before the last
		// sends landed say nothing about the state after them.
		senderDone := false
		select {
		case <-waitSenders:
			senderDone = true
		default:
		}
		drained := true
		for c := 0; c < circuits; c++ {
			if info, err := fac.LNVCInfo(anchors[c]); err == nil && info.QueuedMsgs > 0 {
				drained = false
			}
		}
		if senderDone && drained {
			break
		}
		select {
		case <-deadline:
			t.Fatal("churn did not quiesce in time")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	drainWg.Wait()

	for c := 0; c < circuits; c++ {
		info, err := fac.LNVCInfo(anchors[c])
		if err != nil {
			t.Fatal(err)
		}
		if info.CreditUsed != 0 {
			t.Fatalf("circuit %d ledger not quiescent: %d blocks still debited", c, info.CreditUsed)
		}
	}
	if st := fac.Stats(); st.CreditsHeld != 0 {
		t.Fatalf("gauge not quiescent: %d blocks still held", st.CreditsHeld)
	}
	if free, total := fac.Arena().FreeBlocks(), fac.Arena().NumBlocks(); free != total {
		t.Fatalf("block leak after churn: %d of %d free", free, total)
	}
}
