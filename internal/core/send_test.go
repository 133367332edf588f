package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sendPath is one public way to send a single size-byte message.
type sendPath struct {
	name string
	send func(f *Facility, pid int, id ID, size int) error
	// ledger is what a successful send adds to the three counters that
	// tell the paths apart; a failed one adds nothing.
	ledger pathLedger
}

type pathLedger struct{ copiesIn, loanSends, loanBatchSends uint64 }

var sendPaths = []sendPath{
	{"Send", func(f *Facility, pid int, id ID, size int) error {
		return f.Send(pid, id, make([]byte, size))
	}, pathLedger{copiesIn: 1}},
	{"SendLoan+Commit", func(f *Facility, pid int, id ID, size int) error {
		ln, err := f.SendLoan(pid, id, size)
		if err != nil {
			return err
		}
		return ln.Commit()
	}, pathLedger{loanSends: 1}},
	{"LoanBatch+CommitAll", func(f *Facility, pid int, id ID, size int) error {
		b, err := f.LoanBatch(pid, id, []int{size})
		if err != nil {
			return err
		}
		return b.CommitAll()
	}, pathLedger{loanBatchSends: 1}},
}

// splitLedger takes the path-specific counters out of a Stats delta.
func splitLedger(d Stats) (Stats, pathLedger) {
	led := pathLedger{d.PayloadCopiesIn, d.LoanSends, d.LoanBatchSends}
	d.PayloadCopiesIn, d.LoanSends, d.LoanBatchSends = 0, 0, 0
	return d, led
}

func statsDelta(after, before Stats) Stats {
	return Stats{
		Opens: after.Opens - before.Opens, Closes: after.Closes - before.Closes,
		Sends: after.Sends - before.Sends, Receives: after.Receives - before.Receives,
		BytesSent: after.BytesSent - before.BytesSent, BytesRecvd: after.BytesRecvd - before.BytesRecvd,
		LNVCsCreated: after.LNVCsCreated - before.LNVCsCreated, LNVCsDeleted: after.LNVCsDeleted - before.LNVCsDeleted,
		MessagesDropped: after.MessagesDropped - before.MessagesDropped,
		PayloadCopiesIn: after.PayloadCopiesIn - before.PayloadCopiesIn, PayloadCopiesOut: after.PayloadCopiesOut - before.PayloadCopiesOut,
		LoanSends: after.LoanSends - before.LoanSends, ViewReceives: after.ViewReceives - before.ViewReceives,
		LoanBatchSends: after.LoanBatchSends - before.LoanBatchSends, HarvestedViews: after.HarvestedViews - before.HarvestedViews,
		CreditStalls: after.CreditStalls - before.CreditStalls, CreditsHeld: after.CreditsHeld,
	}
}

// TestSendPathsAgree holds the three public send entry points to each
// other: in every situation a send can meet between its admission and
// its publication, each returns the same class of error, moves the same
// counters apart from its own ledger entry, leaves the credit ledger
// and the arena as it found them, and wakes the circuit's receivers
// exactly once when — and only when — it enqueued something. Without
// credit admit takes no lock, so a sender whose connection is gone
// allocates before publish turns it away: it meets the arena's policy
// first.
func TestSendPathsAgree(t *testing.T) {
	const (
		size   = 100 // two 60-byte blocks
		sender = 0
		rcvr   = 1
		other  = 2
		name   = "agree"
	)
	type env struct {
		t      *testing.T
		f      *Facility
		id     ID
		hogged []int32
	}
	// hog takes every free block straight from the arena, one block per
	// chain, so the next build finds none; unhog gives them back.
	hog := func(e *env) { e.hogged = takeAll(e.t, e.f.arena) }
	unhog := func(e *env) {
		e.f.arena.FreeChains(e.hogged)
		e.hogged = nil
	}
	// whileBuilding runs the send with the arena hogged, waits until it
	// has parked inside its build — after admit, before publish — runs
	// event, and lets the build proceed. A send that admit refuses
	// returns without parking, and event does not run.
	whileBuilding := func(e *env, p sendPath, event func()) error {
		e.t.Helper()
		hog(e)
		parks := e.f.arena.Stats().AllocBlocks
		errc := make(chan error, 1)
		go func() { errc <- p.send(e.f, sender, e.id, size) }()
		for e.f.arena.Stats().AllocBlocks == parks {
			select {
			case err := <-errc:
				unhog(e)
				return err
			case <-time.After(100 * time.Microsecond):
			}
		}
		event()
		unhog(e)
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			e.t.Fatal("send still parked after the arena was freed")
			return nil
		}
	}
	// closeSend closes the sender's connection on a circuit its receiver
	// keeps alive.
	closeSend := func(e *env) {
		if err := e.f.CloseSend(sender, e.id); err != nil {
			e.t.Fatal(err)
		}
	}
	scenarios := []struct {
		name    string
		policy  SendPolicy
		credit0 bool // meaningful without a credit budget too
		want    error
		// uncredited is the error without a credit budget, when it
		// differs from want.
		uncredited error
		// setup, if set, runs before the counters and the wakes are
		// read.
		setup func(e *env)
		run   func(e *env, p sendPath) error
	}{
		{"happy path", BlockUntilFree, true, nil, nil, nil, func(e *env, p sendPath) error {
			got := make(chan int, 1)
			go func() {
				n, _ := e.f.Receive(rcvr, e.id, make([]byte, size))
				got <- n
			}()
			time.Sleep(5 * time.Millisecond) // let the receive park; it must return either way
			err := p.send(e.f, sender, e.id, size)
			select {
			case n := <-got:
				if n != size {
					e.t.Errorf("parked Receive returned %d bytes, want %d", n, size)
				}
			case <-time.After(10 * time.Second):
				e.t.Fatal("parked Receive was not woken by the send")
			}
			return err
		}},
		{"sender not connected at admit", BlockUntilFree, true, ErrNotConnected, nil, nil, func(e *env, p sendPath) error {
			return p.send(e.f, other, e.id, size)
		}},
		{"after CloseSend on a live circuit", BlockUntilFree, true, ErrNotConnected, nil, closeSend, func(e *env, p sendPath) error {
			return p.send(e.f, sender, e.id, size)
		}},
		{"after CloseSend, FailFast with the arena full", FailFast, true, ErrNotConnected, ErrNoMemory, closeSend, func(e *env, p sendPath) error {
			hog(e)
			defer unhog(e)
			return p.send(e.f, sender, e.id, size)
		}},
		{"after CloseSend, Shutdown while the build waits", BlockUntilFree, true, ErrNotConnected, ErrShutdown, closeSend, func(e *env, p sendPath) error {
			return whileBuilding(e, p, e.f.Shutdown)
		}},
		{"circuit deleted and descriptor recycled between admit and publish", BlockUntilFree, true, ErrNotConnected, nil, nil, func(e *env, p sendPath) error {
			l := e.f.slots[e.id].Load()
			err := whileBuilding(e, p, func() {
				if err := e.f.CloseSend(sender, e.id); err != nil {
					e.t.Fatal(err)
				}
				if err := e.f.CloseReceive(rcvr, e.id); err != nil {
					e.t.Fatal(err)
				}
				// The registry's free list is LIFO: the next circuit gets
				// the dead one's descriptor and its id.
				id, err := e.f.OpenSend(other, name)
				if err != nil {
					e.t.Fatal(err)
				}
				if id != e.id || e.f.slots[id].Load() != l {
					e.t.Fatalf("successor got id %d and a different descriptor, want the recycled id %d", id, e.id)
				}
			})
			if info, ierr := e.f.LNVCInfo(e.id); ierr != nil || info.QueuedMsgs != 0 {
				e.t.Errorf("successor circuit holds %d messages (err %v), want none", info.QueuedMsgs, ierr)
			}
			return err
		}},
		{"Shutdown between admit and publish", BlockUntilFree, true, ErrShutdown, nil, nil, func(e *env, p sendPath) error {
			return whileBuilding(e, p, e.f.Shutdown)
		}},
		{"FailFast with the arena full", FailFast, true, ErrNoMemory, nil, nil, func(e *env, p sendPath) error {
			hog(e)
			defer unhog(e)
			return p.send(e.f, sender, e.id, size)
		}},
		{"message larger than the region", BlockUntilFree, true, ErrMessageTooBig, nil, nil, func(e *env, p sendPath) error {
			return p.send(e.f, sender, e.id, e.f.arena.NumBlocks()*e.f.arena.PayloadSize()+1)
		}},
		{"message larger than the credit budget", BlockUntilFree, false, ErrNoCredit, nil, nil, func(e *env, p sendPath) error {
			return p.send(e.f, sender, e.id, 16*e.f.arena.PayloadSize()+1)
		}},
	}
	for _, credit := range []int{0, 16} {
		for _, sc := range scenarios {
			if credit == 0 && !sc.credit0 {
				continue // without a budget this is the happy path
			}
			want := sc.want
			if credit == 0 && sc.uncredited != nil {
				want = sc.uncredited
			}
			var ref Stats
			for i, p := range sendPaths {
				t.Run(fmt.Sprintf("credit=%d/%s/%s", credit, sc.name, p.name), func(t *testing.T) {
					f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4, BlocksPerProcess: 16,
						CreditBlocks: credit, SendPolicy: sc.policy})
					if err != nil {
						t.Fatal(err)
					}
					defer f.Shutdown()
					free := f.arena.FreeBlocks()
					id, err := f.OpenSend(sender, name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.OpenReceive(rcvr, name, FCFS); err != nil {
						t.Fatal(err)
					}
					e := &env{t: t, f: f, id: id}
					if sc.setup != nil {
						sc.setup(e)
					}
					// A waiter-list entry that only this test reads: a wake
					// of the circuit's receivers leaves id on its ready list.
					wakes := &Selector{regs: map[ID]*selReg{id: {}}}
					wakes.cond = sync.NewCond(&wakes.mu)
					l := f.slots[id].Load()
					l.lock.Lock()
					l.addWaiterLocked(wakes)
					l.lock.Unlock()
					before := f.Stats()

					err = sc.run(e, p)

					if !errors.Is(err, want) {
						t.Errorf("error %v, want %v", err, want)
					}
					delta, led := splitLedger(statsDelta(f.Stats(), before))
					wantLed, wantWakes := pathLedger{}, 0
					if want == nil {
						wantLed, wantWakes = p.ledger, 1
						if delta.Sends != 1 || delta.BytesSent != size {
							t.Errorf("Sends +%d, BytesSent +%d, want +1, +%d", delta.Sends, delta.BytesSent, size)
						}
					}
					if led != wantLed {
						t.Errorf("ledger counters moved by %+v, want %+v", led, wantLed)
					}
					// A close or a Shutdown also wakes the waiter lists;
					// count sends only.
					if delta.Closes == 0 && want != ErrShutdown {
						if got := len(wakes.ready); got != wantWakes {
							t.Errorf("%d receiver wakes, want %d", got, wantWakes)
						}
					}
					if i == 0 {
						ref = delta
					} else if delta != ref {
						t.Errorf("counters moved by %+v,\n%s moved them by %+v", delta, sendPaths[0].name, ref)
					}
					if delta.CreditsHeld != 0 {
						t.Errorf("CreditsHeld = %d after the call, want 0", delta.CreditsHeld)
					}
					if got := f.arena.FreeBlocks(); got != free {
						t.Errorf("%d blocks free after the call, %d before it", got, free)
					}
				})
			}
		}
	}
}
