package mpf

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrSelectorClosed is returned by operations on a closed Selector.
var ErrSelectorClosed = core.ErrSelectorClosed

// Selector multiplexes many of one process's receive connections over
// a single wait, epoll-style: one goroutine parks once and wakes only
// when a message lands on (or a close tears down) one of *its*
// circuits, doing O(ready) work per wakeup however many circuits are
// registered. It is the event-loop primitive the paper's check_receive
// polling idiom approximated:
//
//	sel, _ := p.NewSelector()
//	for _, rc := range conns {
//	    sel.Add(rc)
//	}
//	for {
//	    ready, err := sel.Wait()
//	    if err != nil { ... }
//	    for _, rc := range ready {
//	        for {
//	            n, ok, err := rc.TryReceive(buf)
//	            if !ok || err != nil { break }
//	            handle(buf[:n])
//	        }
//	    }
//	}
//
// Readiness is level-triggered — a connection Wait reports stays armed
// until a later Wait observes it drained, so partial consumption
// cannot strand queued messages — and, for FCFS connections, advisory
// in exactly the sense of the paper's check_receive caveat: a sibling
// FCFS receiver may win the race after Wait returns, so drain ready
// connections with TryReceive (or ReceiveBatch after a first
// TryReceive), never a blocking Receive.
//
// WaitViews is the zero-copy form of the same loop: instead of ids to
// re-receive from, it returns pinned Views claimed inside the wait
// round — one circuit lock acquisition per ready connection, however
// many messages it delivers — released in a batch with ReleaseViews.
// Because the claim happens during the harvest, WaitViews has no
// advisory window at all: a returned view is already consumed.
//
// Like a Process, a Selector must not be used from two goroutines at
// once — except Close, which may be called from anywhere to abort a
// parked Wait.
type Selector struct {
	p *Process
	s *core.Selector

	mu    sync.Mutex
	conns map[ID]*RecvConn
}

// NewSelector creates an empty selector for this process's receive
// connections.
func (p *Process) NewSelector() (*Selector, error) {
	s, err := p.fac.c.NewSelector(p.pid)
	if err != nil {
		return nil, err
	}
	return &Selector{p: p, s: s, conns: make(map[ID]*RecvConn)}, nil
}

// Add registers a receive connection. A connection with a message
// already queued is immediately ready.
func (s *Selector) Add(rc *RecvConn) error {
	if rc.p.pid != s.p.pid {
		return fmt.Errorf("%w: connection belongs to process %d, selector to %d",
			ErrBadProcess, rc.p.pid, s.p.pid)
	}
	if err := s.s.Add(rc.id); err != nil {
		return err
	}
	s.mu.Lock()
	s.conns[rc.id] = rc
	if !s.s.Has(rc.id) {
		// A concurrent Close unregistered the circuit between the core
		// Add and here (and cleared the map we just wrote to): report
		// the close rather than strand the entry.
		delete(s.conns, rc.id)
		s.mu.Unlock()
		return ErrSelectorClosed
	}
	s.mu.Unlock()
	return nil
}

// Remove unregisters a receive connection; queued messages and the
// connection itself are untouched.
func (s *Selector) Remove(rc *RecvConn) error {
	if err := s.s.Remove(rc.id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.conns, rc.id)
	s.mu.Unlock()
	return nil
}

// Len returns the number of registered connections.
func (s *Selector) Len() int { return s.s.Len() }

// Wait blocks until at least one registered connection has a message
// available, then returns the ready connections. If a registered
// connection is closed — or its circuit deleted — while waiting, Wait
// drops the dead registration and returns ErrNotConnected promptly;
// facility Shutdown returns ErrShutdown, Close ErrSelectorClosed.
func (s *Selector) Wait() ([]*RecvConn, error) {
	ids, err := s.s.Wait()
	if err != nil {
		s.pruneOn(err)
		return nil, err
	}
	return s.resolveReady(ids)
}

// WaitDeadline is Wait bounded by d; it returns ErrTimeout if no
// connection becomes ready in time.
func (s *Selector) WaitDeadline(d time.Duration) ([]*RecvConn, error) {
	ids, err := s.s.WaitDeadline(d)
	if err != nil {
		s.pruneOn(err)
		return nil, err
	}
	return s.resolveReady(ids)
}

// WaitViews blocks like Wait but drains the ready connections into
// pinned zero-copy Views inside the same wait round: each ready
// circuit is locked once and up to the remaining budget of deliverable
// messages is claimed under that one hold, where the Wait +
// TryReceiveView idiom re-resolves and re-locks per message. max
// bounds the views claimed per call; at least one is returned on a nil
// error. Views arrive grouped by connection in FIFO order —
// View.Circuit attributes each to its RecvConn's ID — and every view
// holds a pin until released: individually via Release, or all at once
// via ReleaseViews, which undoes the harvest's pins with one lock
// acquisition per circuit. A connection left with traffic by the
// budget stays armed for the next call, exactly like Wait's
// level-triggered readiness. This is the event-loop receive shape:
// park once, claim a batch, read in place, release in a batch. A
// non-positive max is an error.
func (s *Selector) WaitViews(max int) ([]*View, error) {
	vs, err := s.s.HarvestViews(max)
	if err != nil {
		s.pruneOn(err)
		return nil, err
	}
	return vs, nil
}

// WaitViewsDeadline is WaitViews bounded by d; it returns ErrTimeout
// if no connection delivers in time.
func (s *Selector) WaitViewsDeadline(max int, d time.Duration) ([]*View, error) {
	vs, err := s.s.HarvestViewsDeadline(max, d)
	if err != nil {
		s.pruneOn(err)
		return nil, err
	}
	return vs, nil
}

// Close unregisters everything, wakes a parked Wait, and fails all
// further operations with ErrSelectorClosed. Idempotent; the
// connections themselves stay open.
func (s *Selector) Close() error {
	err := s.s.Close()
	s.mu.Lock()
	clear(s.conns)
	s.mu.Unlock()
	return err
}

// resolveReady maps the core selector's ready ids back to RecvConns. A
// non-empty id set resolving to nothing means a concurrent Close beat
// the harvest home and cleared the map — surface the close rather than
// return an empty ready set on a nil error (the contract is at least
// one connection or an error).
func (s *Selector) resolveReady(ids []ID) ([]*RecvConn, error) {
	out := make([]*RecvConn, 0, len(ids))
	s.mu.Lock()
	for _, id := range ids {
		if rc, ok := s.conns[id]; ok {
			out = append(out, rc)
		}
	}
	s.mu.Unlock()
	if len(out) == 0 {
		return nil, ErrSelectorClosed
	}
	return out, nil
}

// pruneOn drops facade entries whose core registration is gone. Only
// an ErrNotConnected from a wait can have removed one (the core
// selector auto-drops registrations for circuits that died under a
// parked wait); timeouts and shutdowns never do, so the sweep is not
// paid on every idle tick. The surviving registrations are snapshotted
// in one core-selector lock pass (Circuits) rather than probing Has
// once per connection — one registry read pass however many circuits
// the loop multiplexes.
func (s *Selector) pruneOn(err error) {
	if !errors.Is(err, ErrNotConnected) {
		return
	}
	ids := s.s.Circuits()
	live := make(map[ID]struct{}, len(ids))
	for _, id := range ids {
		live[id] = struct{}{}
	}
	s.mu.Lock()
	for id := range s.conns {
		if _, ok := live[id]; !ok {
			delete(s.conns, id)
		}
	}
	s.mu.Unlock()
}
