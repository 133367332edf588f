package core

import (
	"sync/atomic"
	"time"

	"repro/internal/shm"
)

// Per-circuit readiness notification. Every LNVC descriptor keeps a
// list of parked multiplexer registrations; the enqueue and close paths
// wake exactly the waiters registered on that circuit — O(waiters on
// this circuit) work, not O(waiters in the facility). This is the
// epoll-style structure ReceiveAny and Selector park on. The
// facility-wide activity pulse it replaced (one channel every Send
// closed, waking every parked ReceiveAny; DESIGN.md §10 keeps the
// measurement) survives only in spirit, in the arena's block-pool wait,
// where the condition really is global: any freed block serves any
// waiter, so a per-resource list would buy nothing there.

// muxWaiter is one multiplexer registration on LNVC waiter lists: a
// ReceiveAny call's one-shot registration, or a Selector's persistent
// one (sel set). Both park the same way, in parkWait on ch — capacity
// 1, so a fire landing while the owner is not parked is retained and
// the next park returns immediately.
type muxWaiter struct {
	ch  chan struct{}
	sel *Selector
	// since is the monotonic time (monoNow) at which the owner parked,
	// zero while it is not parked. Written by the owner around the park,
	// read and claimed by wakers under a circuit lock (fire).
	since atomic.Int64
}

// monoEpoch anchors monoNow: time.Since reads the monotonic clock.
var monoEpoch = time.Now()

// monoNow is a monotonic nanosecond clock that never reads zero, so
// zero can mean "not parked".
func monoNow() int64 { return int64(time.Since(monoEpoch)) + 1 }

// overdue is the hand-off rule: a waiter parked at since (zero: not
// parked) and woken at now is owed the waker's P when it has slept
// longer than a sleep and its wake cost. One that has slept less is
// taking turns with a sender about to block on back-pressure, and
// handing it the P would only make the two run against each other.
func overdue(since, now int64) bool {
	return since != 0 && now-since > int64(shm.WakeWindow)
}

// tap signals the owner's park without blocking.
func (w *muxWaiter) tap() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// fire delivers the readiness signal for circuit id to the waiter and
// reports whether the waker should hand its P to it: the owner is parked
// and overdue, and no other waker has claimed the hand-off of this park.
// Called under the LNVC lock; it never blocks (the channel send is
// non-blocking and markReady takes only the selector's leaf lock).
func (w *muxWaiter) fire(id ID) bool {
	if w.sel != nil && !w.sel.markReady(id) {
		return false
	}
	due := false
	// The clock is read only for an owner that is parked.
	if since := w.since.Load(); since != 0 && overdue(since, monoNow()) {
		due = w.since.CompareAndSwap(since, 0)
	}
	w.tap()
	return due
}

// wakeWaitersLocked fires every registration parked on l and reports
// whether one of them is owed the waker's P. Called under l.lock after
// any event that can change readiness for a multiplexer: message
// enqueue, connection close, circuit deletion.
func (l *lnvc) wakeWaitersLocked() bool {
	due := false
	for _, w := range l.waiters {
		if w.fire(l.id) {
			due = true
		}
	}
	return due
}

func (l *lnvc) addWaiterLocked(w *muxWaiter) { l.waiters = append(l.waiters, w) }

// removeWaiterLocked removes one registration of w from l's list. A w
// that is not on the list (the descriptor was deleted and its list
// cleared by reset before the owner unregistered) is a no-op.
func (l *lnvc) removeWaiterLocked(w *muxWaiter) {
	for i, x := range l.waiters {
		if x == w {
			last := len(l.waiters) - 1
			l.waiters[i] = l.waiters[last]
			l.waiters[last] = nil
			l.waiters = l.waiters[:last]
			return
		}
	}
}

// parkWait is the multiplexers' one park: it blocks until w fires
// (true, nil), stop aborts (ErrShutdown), or the optional deadline
// passes (ErrTimeout; the zero Time means none). ReceiveAny,
// Selector.Wait and Selector.HarvestViews all sleep here, with w.since
// set for as long as they do.
func parkWait(w *muxWaiter, stop <-chan struct{}, deadline time.Time) (bool, error) {
	defer w.since.Store(0)
	if deadline.IsZero() {
		w.since.Store(monoNow())
		select {
		case <-w.ch:
			return true, nil
		case <-stop:
			return false, ErrShutdown
		}
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return false, ErrTimeout
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	w.since.Store(monoNow())
	select {
	case <-w.ch:
		return true, nil
	case <-stop:
		return false, ErrShutdown
	case <-timer.C:
		return false, ErrTimeout
	}
}
