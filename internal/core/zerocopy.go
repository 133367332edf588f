package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
)

// The zero-copy payload plane. The paper's data structure forces two
// copies per message — message_send copies the user buffer into linked
// blocks, message_receive copies the blocks into the user buffer — and
// its conclusion (§5) argues for restricting generality to buy speed.
// This file makes both copies optional rather than structural:
//
//   - SendLoan allocates a message's blocks up front and hands the
//     caller a writable window (Loan). The caller produces the payload
//     in place and Commit links the finished message into the FIFO —
//     zero send-side copies. Abort returns the chain unsent. (A Loan
//     is send.go's admission and built message, held by the caller
//     between admit and publish.)
//   - ReceiveView/TryReceiveView claim a message exactly like
//     Receive/TryReceive but hand back a pinned read window (View)
//     instead of copying. N BROADCAST receivers read the one shared
//     payload instance; Release drops the pin.
//
// Both lean on the pin lifecycle in lnvc.go: a claimed-and-pinned
// message is never recycled, and a circuit deleted under a held View
// orphans the message to its pin holders, so views stay valid across
// CloseReceive and Shutdown until released.

// ErrLoanDone is returned by Loan.Commit after the loan was already
// committed or aborted.
var ErrLoanDone = errors.New("mpf: loan already committed or aborted")

// Loan is an in-flight zero-copy send: a message whose blocks are
// allocated and owned by the caller, not yet linked into any FIFO.
// Write the payload through View/Bytes, then Commit (or Abort). A Loan
// is owned by one process and is not safe for concurrent use, matching
// the paper's single-thread-of-control process model.
type Loan struct {
	f   *Facility
	adm admission
	m   *msg.Message
	// n is the payload length, copied out of the header at allocation:
	// after Commit the header belongs to the facility (a receiver may
	// consume the message and free its chain concurrently, and the header
	// goes with the head block), so the loan must never read m again once
	// done is set.
	n    int
	done bool
	// copies counts CopyFrom calls until the loan is resolved: Commit's
	// publish counts them on the connection under its hold; a loan that
	// never reaches a FIFO has no hold to ride and counts them on the
	// facility's escape-hatch word.
	copies uint64
}

// SendLoan allocates blocks for n payload bytes on the LNVC and returns
// a Loan for the caller to fill in place. Allocation follows the
// facility's SendPolicy exactly as Send does (BlockUntilFree blocks
// until the region can serve the demand; FailFast returns ErrNoMemory).
func (f *Facility) SendLoan(pid int, id ID, n int) (*Loan, error) {
	ln, err := f.sendLoan(pid, id, n)
	f.trace(Event{Op: OpSendLoan, PID: pid, LNVC: id, Bytes: n, Err: err})
	return ln, err
}

func (f *Facility) sendLoan(pid int, id ID, n int) (*Loan, error) {
	if n < 0 {
		return nil, fmt.Errorf("mpf: SendLoan of %d bytes", n)
	}
	a, err := f.admit(pid, id, f.arena.BlocksFor(n), n)
	if err != nil {
		return nil, err
	}
	m, err := f.pool.BuildLoanIn(int(id), pid, n, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if err != nil {
		return nil, f.unbuilt(a, err)
	}
	return &Loan{f: f, adm: a, m: m, n: n}, nil
}

// Len returns the loan's payload capacity in bytes.
func (ln *Loan) Len() int { return ln.n }

// View returns the writable window onto the loaned blocks. Valid until
// Commit or Abort.
func (ln *Loan) View() msg.View { return ln.f.pool.View(ln.m) }

// Bytes returns the whole loan as one writable slice when the payload
// occupies a single segment — the common case under span allocation —
// and (nil, false) when fragmentation split it (write through
// Segments or CopyFrom instead).
func (ln *Loan) Bytes() ([]byte, bool) { return ln.View().Contiguous() }

// Segments calls yield for each writable payload segment in order;
// returning false stops the walk.
func (ln *Loan) Segments(yield func(seg []byte) bool) { ln.View().Segments(yield) }

// CopyFrom fills the loan from buf, counted as a send-side copy in
// Stats once the loan is committed or aborted — the explicit escape
// hatch back to the copying plane's accounting. Callers treating the
// fill as production (the bytes enter the region exactly once, as
// LoanBatch.Fill does) write through View().CopyFrom instead, which the
// ledger does not count. It returns the number of bytes copied.
func (ln *Loan) CopyFrom(buf []byte) int {
	n := ln.View().CopyFrom(buf)
	ln.copies++
	return n
}

// Commit links the loaned message into the circuit's FIFO — the
// message_send without its copy. After Commit the loan is spent and the
// blocks belong to the facility. Committing a loan that was already
// committed or aborted returns ErrLoanDone; if the circuit died while
// the loan was out, the blocks are returned and ErrNotConnected comes
// back.
func (ln *Loan) Commit() error {
	err := ln.commit()
	ln.f.trace(Event{Op: OpLoanCommit, PID: ln.adm.pid, LNVC: ln.adm.id, Bytes: ln.n, Err: err})
	return err
}

func (ln *Loan) commit() error {
	if ln.done {
		return ErrLoanDone
	}
	ln.done = true
	one := [1]*msg.Message{ln.m}
	err := ln.f.publish(ln.adm, one[:], 1, sendCounts{copiesIn: ln.copies, loans: 1})
	if err != nil && ln.copies > 0 {
		ln.f.stats.unsentCopiesIn.Add(ln.copies)
	}
	return err
}

// Abort returns the loaned blocks to the region unsent. Aborting a loan
// that was already committed or aborted is a no-op, so Abort can be
// deferred as cleanup on every error path.
func (ln *Loan) Abort() {
	if ln.done {
		return
	}
	ln.done = true
	one := [1]*msg.Message{ln.m}
	ln.f.abandon(ln.adm, one[:])
	if ln.copies > 0 {
		ln.f.stats.unsentCopiesIn.Add(ln.copies)
	}
}

// View is a pinned zero-copy window onto a received message's payload,
// the counterpart of Receive's copy. The claim semantics are exactly
// Receive's — an FCFS claim is exclusive, a BROADCAST claim advances the
// private head — but the payload stays in the shared region and every
// BROADCAST receiver's View aliases the same blocks. The pin taken at
// claim keeps those blocks alive until Release, across any concurrent
// receive, reclaim, CloseReceive, or Shutdown. A View belongs to one
// process and is not safe for concurrent use.
type View struct {
	f        *Facility
	l        *lnvc
	m        *msg.Message
	id       ID // circuit the view was claimed from, for multiplexers
	released bool
}

// ReceiveView blocks until a message is available for pid's connection
// and claims it as a pinned View — message_receive without its copy.
// The caller must Release the view once done reading.
func (f *Facility) ReceiveView(pid int, id ID) (*View, error) {
	v, err := f.receiveView(pid, id, true, time.Time{})
	f.trace(Event{Op: OpReceiveView, PID: pid, LNVC: id, Bytes: viewBytes(v), Err: err})
	return v, err
}

// ReceiveViewDeadline is ReceiveView with a bound on the wait; if no
// message becomes available within d it returns ErrTimeout.
func (f *Facility) ReceiveViewDeadline(pid int, id ID, d time.Duration) (*View, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return nil, err
	}
	v, err := f.receiveView(pid, id, true, deadline)
	f.trace(Event{Op: OpReceiveView, PID: pid, LNVC: id, Bytes: viewBytes(v), Err: err})
	return v, err
}

// TryReceiveView is ReceiveView's non-blocking form: if a message is
// available it is claimed as a pinned View and (v, true) is returned;
// otherwise (nil, false).
func (f *Facility) TryReceiveView(pid int, id ID) (*View, bool, error) {
	v, err := f.receiveView(pid, id, false, time.Time{})
	f.trace(Event{Op: OpTryReceiveView, PID: pid, LNVC: id, Bytes: viewBytes(v), Err: err})
	return v, v != nil, err
}

// receiveView claims one message as a View; the view is nil when park
// is false and nothing was deliverable.
func (f *Facility) receiveView(pid int, id ID, park bool, deadline time.Time) (*View, error) {
	l, d, m, err := f.waitClaim(pid, id, park, deadline)
	if m == nil {
		return nil, err
	}
	var one [1]*msg.Message
	_, bytes, _ := l.claimRunLocked(d, m, one[:0], 1)
	d.rx.msgs++
	d.rx.bytes += bytes
	d.rx.views++
	l.lock.Unlock()
	return &View{f: f, l: l, m: m, id: id}, nil
}

func viewBytes(v *View) int {
	if v == nil {
		return 0
	}
	return v.m.Length
}

// Len returns the payload length in bytes, 0 on a released view: the
// header went with the pin (it is bound to the head block, and is the
// next message's that starts there), so a released view reads nothing
// through it.
func (v *View) Len() int {
	if v.released {
		return 0
	}
	return v.m.Length
}

// Sender returns the process id that sent the message, -1 on a released
// view.
func (v *View) Sender() int {
	if v.released {
		return -1
	}
	return v.m.Sender
}

// Circuit returns the id of the circuit the view was claimed from —
// how an event loop draining several circuits through
// Selector.HarvestViews attributes each view without a side table.
func (v *View) Circuit() ID { return v.id }

// Bytes returns the whole payload as one read-only slice when it
// occupies a single segment — the common case under span allocation —
// and (nil, false) when fragmentation split it (walk Segments or
// CopyTo instead). The slice aliases the shared region and is valid
// only until Release.
func (v *View) Bytes() ([]byte, bool) {
	if v.released {
		return nil, false
	}
	return v.f.pool.View(v.m).Contiguous()
}

// Segments calls yield for each payload segment in order; returning
// false stops the walk. Segments alias the shared region and are valid
// only until Release. A released view yields nothing.
func (v *View) Segments(yield func(seg []byte) bool) {
	if v.released {
		return
	}
	v.f.pool.View(v.m).Segments(yield)
}

// CopyTo copies the payload into buf — the escape hatch back to the
// copying plane, counted as a receive-side copy in Stats. It holds no
// lock, so the count goes to the facility's escape-hatch word, the one
// traffic counter that is not on a connection. It returns the number of
// bytes copied, 0 on a released view.
func (v *View) CopyTo(buf []byte) int {
	if v.released {
		return 0
	}
	n := v.f.pool.View(v.m).CopyTo(buf)
	v.f.stats.viewCopiesOut.Add(1)
	return n
}

// Release drops the view's pin, allowing the message's blocks to be
// recycled once every other claim on them is gone. Release is
// idempotent: a second call is a no-op. Holding a View across
// CloseReceive or Shutdown is safe — the blocks stay alive until this
// call — but a region running near capacity wants views short-lived,
// since a pinned message holds its blocks however far the FIFO has
// moved on.
func (v *View) Release() {
	if v.released {
		return
	}
	v.released = true
	one := [1]*msg.Message{v.m}
	v.f.unpinAll(v.l, one[:])
}

// ReleaseViews releases every view in vs under batched unpinning: one
// circuit lock acquisition, one reclaim scan and one arena free-pool
// transaction per consecutive run of views from the same circuit (per
// releaseInline views of a longer run) — which is how HarvestViews orders
// its results, so releasing a harvest costs O(ready circuits) lock
// traffic, not O(views). Already-released
// views are skipped (Release's idempotence, batch form); nil entries
// are tolerated.
func ReleaseViews(vs []*View) {
	// The current circuit run, collected on the stack and unpinned when
	// the circuit changes, the buffer fills or vs ends.
	var buf [releaseInline]*msg.Message
	n := 0
	var l *lnvc
	var f *Facility
	for _, v := range vs {
		if v == nil || v.released {
			continue
		}
		v.released = true
		if n > 0 && (v.l != l || n == len(buf)) {
			f.unpinAll(l, buf[:n])
			n = 0
		}
		l, f = v.l, v.f
		buf[n] = v.m
		n++
	}
	if n > 0 {
		f.unpinAll(l, buf[:n])
	}
}

// releaseInline bounds the circuit run ReleaseViews unpins under one lock
// hold; a longer run is unpinned in pieces of this many. It is what the
// reclaim scan behind the unpin retires, and msg.Pool.ReleaseBatch frees,
// without leaving the stack, so a release of any length allocates nothing.
const releaseInline = 32
