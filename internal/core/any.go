package core

import (
	"fmt"
	"time"
)

// ReceiveAny consumes the next message available on any of the given
// LNVCs for pid, blocking until one arrives. It returns the index into
// ids of the circuit that delivered, and the byte count. Fairness is
// round-robin across calls: the scan starts after the circuit that
// delivered last time, so a busy circuit cannot starve its siblings.
//
// The paper's MPF has no multi-circuit wait; programs polled with
// check_receive (the random benchmark's structure). ReceiveAny is the
// blocking equivalent. It registers a one-shot waiter on each circuit's
// waiter list (waiter.go), polls with the atomic TryReceive claim, and
// parks; only a Send on one of *these* circuits — or a close that
// affects them — wakes it.
//
// A CloseReceive on one of the circuits (or facility Shutdown) while
// parked wakes the call, which then returns ErrNotConnected (resp.
// ErrShutdown) rather than hanging.
func (f *Facility) ReceiveAny(pid int, ids []ID, buf []byte) (int, int, error) {
	i, n, err := f.receiveAny(pid, ids, buf, time.Time{})
	f.traceAny(pid, ids, i, n, err)
	return i, n, err
}

// ReceiveAnyDeadline is ReceiveAny bounded by d; it returns ErrTimeout
// if no circuit delivers in time.
func (f *Facility) ReceiveAnyDeadline(pid int, ids []ID, buf []byte, d time.Duration) (int, int, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return 0, 0, err
	}
	i, n, err := f.receiveAny(pid, ids, buf, deadline)
	f.traceAny(pid, ids, i, n, err)
	return i, n, err
}

// traceAny emits ReceiveAny's event: a message_receive on the circuit
// that delivered, or, with the error, on none (-1).
func (f *Facility) traceAny(pid int, ids []ID, i, n int, err error) {
	ev := Event{Op: OpReceive, PID: pid, LNVC: -1, Bytes: n, Err: err}
	if err == nil {
		ev.LNVC = ids[i]
	}
	f.trace(ev)
}

func (f *Facility) receiveAny(pid int, ids []ID, buf []byte, deadline time.Time) (int, int, error) {
	if err := f.checkPID(pid); err != nil {
		return 0, 0, err
	}
	if len(ids) == 0 {
		return 0, 0, fmt.Errorf("%w: ReceiveAny with no circuits", ErrBadLNVC)
	}

	// Validate every connection and register one shared one-shot waiter
	// before the first poll. Registration-before-poll is what closes
	// the wakeup race: a message enqueued after a circuit was polled
	// leaves its signal in the channel, so the park below returns
	// immediately instead of sleeping through it.
	w := &muxWaiter{ch: make(chan struct{}, 1)}
	regs := make([]*lnvc, 0, len(ids))
	defer func() {
		for _, l := range regs {
			l.lock.Lock()
			l.removeWaiterLocked(w)
			l.lock.Unlock()
		}
	}()
	for _, id := range ids {
		l, _, err := f.lockRecv(pid, id)
		if err != nil {
			return 0, 0, err
		}
		l.addWaiterLocked(w)
		l.lock.Unlock()
		regs = append(regs, l)
	}

	start := f.anyStart(pid, len(ids))
	woken := false
	for {
		if f.stopped.Load() {
			return 0, 0, ErrShutdown
		}
		// Drain a stale signal before polling so a fire landing during
		// the poll re-arms the channel for the park below.
		select {
		case <-w.ch:
		default:
		}
		for k := 0; k < len(ids); k++ {
			i := (start + k) % len(ids)
			n, ok, err := f.receive(pid, ids[i], buf, false, time.Time{})
			if err != nil {
				// Covers a circuit closed while parked: the close woke
				// the waiter and the poll reports ErrNotConnected.
				return 0, 0, err
			}
			if ok {
				if woken {
					f.stats.muxWakeups.Add(1)
				}
				f.setAnyStart(pid, i+1)
				return i, n, nil
			}
		}
		if woken {
			f.stats.muxWakeups.Add(1)
			f.stats.muxSpurious.Add(1)
		}
		ok, err := parkWait(w.ch, f.stop, deadline)
		if err != nil {
			return 0, 0, err
		}
		woken = ok
	}
}

// anyStart and setAnyStart keep per-process round-robin cursors for
// ReceiveAny fairness.
func (f *Facility) anyStart(pid, n int) int {
	f.anyMu.Lock()
	defer f.anyMu.Unlock()
	if f.anyCursor == nil {
		f.anyCursor = make(map[int]int)
	}
	return f.anyCursor[pid] % n
}

func (f *Facility) setAnyStart(pid, v int) {
	f.anyMu.Lock()
	defer f.anyMu.Unlock()
	if f.anyCursor == nil {
		f.anyCursor = make(map[int]int)
	}
	f.anyCursor[pid] = v
}
