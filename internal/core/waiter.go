package core

import "time"

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

// muxWaiter is one parked multiplexer registration on an LNVC waiter
// list. Exactly one of ch/sel is set: ch is a one-shot park
// (ReceiveAny) — capacity 1, so a fire landing during the poll phase is
// retained and the next park returns immediately; sel is a persistent
// Selector registration.
type muxWaiter struct {
	ch  chan struct{}
	sel *Selector
}

// fire delivers the readiness signal for circuit id to the waiter.
// Called under the LNVC lock; it never blocks (the channel send is
// non-blocking and markReady takes only the selector's leaf lock).
func (w *muxWaiter) fire(id ID) {
	if w.sel != nil {
		w.sel.markReady(id)
		return
	}
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// wakeWaitersLocked fires every registration parked on l. Called under
// l.lock after any event that can change readiness for a multiplexer:
// message enqueue, connection close, circuit deletion.
func (l *lnvc) wakeWaitersLocked() {
	for _, w := range l.waiters {
		w.fire(l.id)
	}
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

// parkWait is the shared park: it blocks until wake fires (true, nil),
// stop aborts (ErrShutdown), or the optional deadline passes
// (ErrTimeout; the zero Time means none). ReceiveAny, Selector.Wait
// and Selector.HarvestViews all sleep here.
func parkWait(wake <-chan struct{}, stop <-chan struct{}, deadline time.Time) (bool, error) {
	if deadline.IsZero() {
		select {
		case <-wake:
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
	select {
	case <-wake:
		return true, nil
	case <-stop:
		return false, ErrShutdown
	case <-timer.C:
		return false, ErrTimeout
	}
}
