package mpf

import (
	"fmt"
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
//	    views, err := sel.WaitViews(64)
//	    if err != nil { ... }
//	    for _, v := range views {
//	        n := v.CopyTo(buf) // or read in place: v.Bytes()
//	        handle(v.Circuit(), buf[:n])
//	    }
//	    mpf.ReleaseViews(views)
//	}
//
// WaitViews claims the ready connections' messages inside the wait
// round — one circuit lock acquisition per ready connection, however
// many messages it delivers — and returns them as pinned Views, each
// attributed to its connection by View.Circuit (the RecvConn's ID).
// Because the claim happens during the harvest, a returned view is
// already consumed: a sibling FCFS receiver cannot take it back.
// Readiness is level-triggered: a connection the budget leaves with
// traffic stays armed for the next call.
//
// Like a Process, a Selector must not be used from two goroutines at
// once — except Close, which may be called from anywhere to abort a
// parked WaitViews.
type Selector struct {
	p *Process
	s *core.Selector
}

// NewSelector creates an empty selector for this process's receive
// connections.
func (p *Process) NewSelector() (*Selector, error) {
	s, err := p.fac.c.NewSelector(p.pid)
	if err != nil {
		return nil, err
	}
	return &Selector{p: p, s: s}, nil
}

// Add registers a receive connection. A connection with a message
// already queued is immediately ready.
func (s *Selector) Add(rc *RecvConn) error {
	if rc.p.pid != s.p.pid {
		return fmt.Errorf("%w: connection belongs to process %d, selector to %d",
			ErrBadProcess, rc.p.pid, s.p.pid)
	}
	return s.s.Add(rc.id)
}

// Remove unregisters a receive connection; queued messages and the
// connection itself are untouched.
func (s *Selector) Remove(rc *RecvConn) error { return s.s.Remove(rc.id) }

// Len returns the number of registered connections.
func (s *Selector) Len() int { return s.s.Len() }

// WaitViews blocks until at least one registered connection has a
// message and drains the ready connections into pinned zero-copy Views
// inside the same wait round: each ready circuit is locked once and up
// to the remaining budget of deliverable messages is claimed under that
// one hold. max bounds the views claimed per call; at least one is
// returned on a nil error. Views arrive grouped by connection in FIFO
// order — View.Circuit attributes each to its RecvConn's ID — and every
// view holds a pin until released: individually via Release, or all at
// once via ReleaseViews, which undoes the harvest's pins with one lock
// acquisition per circuit. A non-positive max is an error. If a
// registered connection is closed — or its circuit deleted — while
// waiting, WaitViews drops the dead registration and returns
// ErrNotConnected promptly (views already claimed in that round are
// returned first and the error comes with the next call); facility
// Shutdown returns ErrShutdown, Close ErrSelectorClosed.
func (s *Selector) WaitViews(max int) ([]*View, error) { return s.s.HarvestViews(max) }

// WaitViewsDeadline is WaitViews bounded by d; it returns ErrTimeout
// if no connection delivers in time.
func (s *Selector) WaitViewsDeadline(max int, d time.Duration) ([]*View, error) {
	return s.s.HarvestViewsDeadline(max, d)
}

// Close unregisters everything, wakes a parked WaitViews, and fails all
// further operations with ErrSelectorClosed. Idempotent; the
// connections themselves stay open.
func (s *Selector) Close() error { return s.s.Close() }
