package core

import (
	"time"

	"repro/internal/msg"
)

// Batched receive, the counterpart of SendBatch (send.go): the fixed
// costs of a receive — registry lookup, LNVC lock acquisition, reclaim
// scan, arena free-pool transaction — are paid once per batch.

// ReceiveBatch blocks until at least one message is available for pid's
// connection, then consumes as many as are available — at most
// len(bufs), one message per buffer, each truncated to its buffer — in
// one LNVC lock acquisition. It returns the per-message byte counts; the
// length of the returned slice is the number of messages consumed.
func (f *Facility) ReceiveBatch(pid int, id ID, bufs [][]byte) ([]int, error) {
	ns, err := f.receiveBatch(pid, id, bufs, time.Time{})
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

// ReceiveBatchDeadline is ReceiveBatch with a bound on the wait for the
// first message; it returns ErrTimeout if none arrives in time. Once one
// message is available the batch never waits for more.
func (f *Facility) ReceiveBatchDeadline(pid int, id ID, bufs [][]byte, d time.Duration) ([]int, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return nil, err
	}
	ns, err := f.receiveBatch(pid, id, bufs, deadline)
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

func (f *Facility) receiveBatch(pid int, id ID, bufs [][]byte, deadline time.Time) ([]int, error) {
	// An empty batch only validates the connection: it has nothing to
	// wait for.
	var claimedBuf [msg.BatchInline]*msg.Message
	claimed := msg.InlineOr(claimedBuf[:], len(bufs))
	rc, n, err := f.waitClaim(pid, id, len(bufs) > 0, false, deadline, claimed)
	if err != nil || len(bufs) == 0 {
		return nil, err
	}
	claimed = claimed[:n]

	// The copies happen outside the lock, under the pins.
	ns := make([]int, n)
	for i, m := range claimed {
		ns[i] = f.pool.Extract(m, bufs[i])
	}
	rc.recvCounts = recvCounts{msgs: uint64(n), bytes: uint64(sumInts(ns)), copiesOut: uint64(n), batches: 1}
	f.unpinAll(rc.d.l, claimed, &rc)
	return ns, nil
}

func sumInts(ns []int) int {
	t := 0
	for _, n := range ns {
		t += n
	}
	return t
}
