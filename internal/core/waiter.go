package core

import (
	"time"

	"repro/internal/shm"
)

// Per-circuit readiness notification. Every LNVC descriptor keeps a
// list of the Selectors registered on it; the enqueue and close paths
// wake exactly those — O(selectors on this circuit) work, not
// O(selectors in the facility). The facility-wide activity pulse this
// replaced (one channel every Send closed, waking every parked
// multiplexer; DESIGN.md §10 keeps the measurement) survives only in
// spirit, in the arena's block-pool wait, where the condition really is
// global: any freed block serves any waiter, so a per-resource list
// would buy nothing there.

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

// fire delivers the readiness signal for circuit id to the selector and
// reports whether the waker should hand its P to it: the owner is parked
// and overdue, and no other waker has claimed the hand-off of this park.
// Called under the LNVC lock; it never blocks (markReady takes only the
// selector's leaf lock, and the signal comes after it is released).
func (s *Selector) fire(id ID) bool {
	if !s.markReady(id) {
		return false
	}
	due := false
	// The clock is read only for an owner that is parked.
	if since := s.since.Load(); since != 0 && overdue(since, monoNow()) {
		due = s.since.CompareAndSwap(since, 0)
	}
	s.cond.Signal()
	return due
}

// wakeWaitersLocked fires every selector registered on l and reports
// whether one of them is owed the waker's P. Called under l.lock after
// any event that can change readiness for a selector: message enqueue,
// connection close, circuit deletion.
func (l *lnvc) wakeWaitersLocked() bool {
	due := false
	for _, s := range l.waiters {
		if s.fire(l.id) {
			due = true
		}
	}
	return due
}

func (l *lnvc) addWaiterLocked(s *Selector) { l.waiters = append(l.waiters, s) }

// removeWaiterLocked removes one registration of s from l's list. An s
// that is not on the list (the descriptor was deleted and its list
// cleared by reset before the owner unregistered) is a no-op.
func (l *lnvc) removeWaiterLocked(s *Selector) {
	for i, x := range l.waiters {
		if x == s {
			last := len(l.waiters) - 1
			l.waiters[i] = l.waiters[last]
			l.waiters[last] = nil
			l.waiters = l.waiters[:last]
			return
		}
	}
}

// parkWait is the selector's one park: under mu it sleeps on cond
// until a circuit fires (the ready list is non-empty) or the selector
// is closed (nil either way; the round that follows sorts out which),
// Shutdown stops the facility (ErrShutdown), or the optional deadline
// passes (ErrTimeout; the zero Time means none). Wait and HarvestViews
// both sleep here, with s.since set for as long as they do. Shutdown
// fires every live circuit's waiter list after it sets stopped, so a
// park that read stopped clear is asleep when that fire comes.
func (s *Selector) parkWait(deadline time.Time) error {
	var expired *bool
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) == 0 && !s.closed {
		if s.f.stopped.Load() {
			return ErrShutdown
		}
		if expired != nil && *expired || !deadline.IsZero() && !time.Now().Before(deadline) {
			return ErrTimeout
		}
		if expired == nil && !deadline.IsZero() {
			// As in waitClaim: the timer signals the condition so the
			// loop re-evaluates, and the flag is read and written under
			// mu. It is allocated here so that a park without a deadline
			// allocates nothing.
			fired := new(bool)
			expired = fired
			timer := time.AfterFunc(time.Until(deadline), func() {
				s.mu.Lock()
				*fired = true
				s.mu.Unlock()
				s.cond.Signal()
			})
			defer timer.Stop()
		}
		s.since.Store(monoNow())
		s.cond.Wait()
		s.since.Store(0)
	}
	return nil
}
