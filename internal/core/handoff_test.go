package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shm"
)

// A send that wakes a multiplexer parked longer than a wake costs yields
// its P to it (waiter.go, publish). These tests hold that structurally:
// no latency bound, only whether the woken goroutine got to run at all
// while the sender kept its P.

func TestHandOffRule(t *testing.T) {
	w := int64(shm.WakeWindow)
	for _, c := range []struct {
		name       string
		since, now int64
		want       bool
	}{
		{"not asleep", 0, 10 * w, false},
		{"asleep less than a window", 5, 5 + w/2, false},
		{"asleep exactly a window", 5, 5 + w, false},
		{"asleep longer than a window", 5, 5 + w + 1, true},
	} {
		if got := overdue(c.since, c.now); got != c.want {
			t.Errorf("%s: overdue(%d, %d) = %v, want %v", c.name, c.since, c.now, got, c.want)
		}
	}

	// The first waker of an overdue park claims its hand-off; a second
	// fire before the owner runs again only signals.
	mw := &Selector{regs: map[ID]*selReg{0: {}}}
	mw.cond = sync.NewCond(&mw.mu)
	mw.since.Store(monoNow() - 2*w)
	if !mw.fire(0) {
		t.Error("the first fire of an overdue park did not hand off")
	}
	if mw.fire(0) {
		t.Error("a second fire of the same park handed off again")
	}
	if len(mw.ready) != 1 {
		t.Errorf("%d ready entries after two fires, want 1", len(mw.ready))
	}
}

const handOffTrials = 10

// handOffs runs handOffTrials rounds on one P: consume parks (it returns
// once it has received), send publishes after calling pause — a 1 ms
// sleep, during which consume parks — and the producer then busy-spins
// for up to 5 ms, never yielding, on a counter consume's goroutine bumps
// (the buffered channel beside it is what the round then waits on).
// It returns the number of rounds in which the counter moved within the
// spin. Without the hand-off the woken consumer sits in the producer's
// runnext and, with no other P to steal it, cannot run until async
// preemption ends the producer's time slice, 10 ms after it began. A
// goroutine run from runnext inherits the slice of the one it follows,
// so the slice can have begun rounds earlier and end inside a spin: 3–4
// of 10 rounds see the consumer that way.
func handOffs(t *testing.T, consume func() error, send func(pause func()) error) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got atomic.Int64
	received := make(chan struct{}, handOffTrials)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < handOffTrials; i++ {
			if err := consume(); err != nil {
				errc <- err
				return
			}
			got.Add(1)
			received <- struct{}{}
		}
	}()
	seen := 0
	for i := int64(0); i < handOffTrials; i++ {
		if err := send(func() { time.Sleep(time.Millisecond) }); err != nil {
			t.Fatal(err)
		}
		for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			if got.Load() > i {
				seen++
				break
			}
		}
		select {
		case <-received:
		case err := <-errc:
			t.Fatalf("round %d: the consumer failed: %v", i, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the consumer never received", i)
		}
	}
	return seen
}

func TestWakeHandsOverToSleepingSelector(t *testing.T) {
	f := newFac(t)
	sid, err := f.OpenSend(0, "ho")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.OpenReceive(1, "ho", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().MuxHandoffs
	seen := handOffs(t,
		func() error {
			vs, err := sel.HarvestViews(64)
			ReleaseViews(vs)
			return err
		},
		func(pause func()) error {
			lb, err := f.LoanBatch(0, sid, []int{64, 64})
			if err != nil {
				return err
			}
			pause()
			return lb.CommitAll()
		})
	if seen < handOffTrials-1 {
		t.Errorf("the woken selector ran within the sender's spin in %d of %d rounds, want at least %d",
			seen, handOffTrials, handOffTrials-1)
	}
	if n := f.Stats().MuxHandoffs - before; n < uint64(seen) || n > handOffTrials {
		t.Errorf("MuxHandoffs moved by %d over %d rounds (%d seen), want between them", n, handOffTrials, seen)
	}
}
