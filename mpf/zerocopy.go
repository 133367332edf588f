package mpf

import (
	"time"

	"repro/internal/core"
)

// The zero-copy payload plane. Send and Receive reproduce the paper's
// two structural copies (user buffer → shared blocks → user buffer);
// Loan and ReceiveView make both optional:
//
//	ln, _ := send.Loan(len(payload))   // blocks allocated up front
//	b, _ := ln.Bytes()                 // contiguous in the common case
//	produceInto(b)                     // write the payload in place
//	ln.Commit()                        // enqueue — zero send-side copies
//
//	v, _ := recv.ReceiveView()         // claim without copying
//	b, _ = v.Bytes()                   // read in place
//	consume(b)
//	v.Release()                        // allow the blocks to recycle
//
// Under BROADCAST every receiver's View aliases the same payload
// instance: fan-out to N readers costs zero receive-side copies instead
// of N. Views stay valid across connection close and facility shutdown
// until released (the blocks are orphaned to their pin holders), but a
// region running near capacity wants them short-lived. The ledger in
// Stats (PayloadCopiesIn/Out vs LoanSends/ViewReceives) records which
// plane traffic used.

// Loan is an in-flight zero-copy send: a message whose blocks the
// caller owns and writes in place before Commit links it into the
// circuit's FIFO. See SendConn.Loan.
type Loan = core.Loan

// View is a pinned zero-copy window onto a received message's payload.
// See RecvConn.ReceiveView.
type View = core.View

// ErrLoanDone is returned by Loan.Commit after the loan was already
// committed or aborted.
var ErrLoanDone = core.ErrLoanDone

// LoanBatch is a batch of in-flight zero-copy sends resolved together:
// N writable windows from one arena transaction, one CommitAll linking
// the whole run into the FIFO under a single circuit lock acquisition
// (CommitN commits a prefix and aborts the rest; AbortAll returns
// everything in one transaction). See SendConn.LoanBatch.
type LoanBatch = core.LoanBatch

// Loan allocates blocks for n payload bytes and hands them to the
// caller to fill in place; Commit then enqueues the message with zero
// send-side copies (message_send minus its copy). Allocation follows
// the facility's send policy exactly as Send does. The loan must be
// resolved with Commit or Abort; Abort is a safe deferred cleanup (it
// is a no-op after Commit).
func (s *SendConn) Loan(n int) (*Loan, error) {
	return s.p.fac.c.SendLoan(s.p.pid, s.id, n)
}

// LoanBatch allocates one zero-copy send window per length in ns, all
// in a single arena free-pool transaction. Fill the windows in place (Bytes/View/Fill) and
// resolve the batch once: CommitAll enqueues every message under one
// circuit lock acquisition with one receiver wakeup, atomically with
// respect to other senders; AbortAll (safe to defer — a no-op once
// resolved) returns every chain in one transaction.
func (s *SendConn) LoanBatch(ns []int) (*LoanBatch, error) {
	return s.p.fac.c.LoanBatch(s.p.pid, s.id, ns)
}

// ReleaseViews releases every view in vs with batched unpinning: one
// circuit lock acquisition, one reclamation scan and one arena
// transaction per consecutive run of views from the same circuit —
// which is how Selector.WaitViews orders its results, so releasing a
// harvest costs O(ready circuits) lock traffic, not O(views).
// Already-released views are skipped, like Release itself.
func ReleaseViews(vs []*View) { core.ReleaseViews(vs) }

// ReceiveView blocks until a message is available and claims it as a
// pinned View instead of copying it out (message_receive minus its
// copy). The claim consumes the message exactly as Receive does; the
// caller reads the payload in place and must Release the view to let
// the blocks recycle.
func (r *RecvConn) ReceiveView() (*View, error) {
	return r.p.fac.c.ReceiveView(r.p.pid, r.id)
}

// ReceiveViewDeadline is ReceiveView bounded by d: it returns
// ErrTimeout if no message arrives in time.
func (r *RecvConn) ReceiveViewDeadline(d time.Duration) (*View, error) {
	return r.p.fac.c.ReceiveViewDeadline(r.p.pid, r.id, d)
}

// TryReceiveView claims a message as a pinned View like ReceiveView if
// one is available, reporting (v, true); otherwise it returns
// (nil, false) without blocking.
func (r *RecvConn) TryReceiveView() (*View, bool, error) {
	return r.p.fac.c.TryReceiveView(r.p.pid, r.id)
}
