package core

import (
	"fmt"
	"time"

	"repro/internal/msg"
)

// Batched send and receive. The single-message primitives pay their
// fixed costs — registry lookup, LNVC lock acquisition, condition
// broadcast, activity pulse, arena free-list lock — once per message.
// The batch primitives pay them once per *batch*: SendBatch allocates
// every payload block in one arena transaction (shm.Arena.AllocChains),
// links the whole chain of messages into the FIFO under one LNVC lock
// acquisition, and wakes waiters once; ReceiveBatch claims as many
// queued messages as the caller has buffers under one acquisition and
// copies them out together. At high concurrency this is what flattens
// the contention curves the paper's Figures 4-6 show bending over (see
// DESIGN.md §6).

// SendBatch transfers every buffer in bufs to the LNVC as one message
// each, atomically with respect to other senders: the batch occupies
// consecutive sequence numbers and no other sender's message interleaves
// it. An empty batch validates the connection and returns. Either the
// whole batch is enqueued or none of it is.
func (f *Facility) SendBatch(pid int, id ID, bufs [][]byte) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	err := f.sendBatch(pid, id, bufs, total)
	f.trace(Event{Op: OpSendBatch, PID: pid, LNVC: id, Bytes: total, Err: err})
	return err
}

func (f *Facility) sendBatch(pid int, id ID, bufs [][]byte, total int) error {
	if err := f.checkPID(pid); err != nil {
		return err
	}
	if f.stopped.Load() {
		return ErrShutdown
	}
	blocks := 0
	for _, b := range bufs {
		blocks += f.arena.BlocksFor(len(b))
	}
	if blocks > f.arena.NumBlocks() {
		return fmt.Errorf("%w: batch of %d bytes in %d blocks, region holds %d blocks",
			ErrMessageTooBig, total, blocks, f.arena.NumBlocks())
	}
	l, err := f.lookup(id)
	if err != nil {
		return err
	}
	// Fail fast before the (possibly blocking) allocation, then recheck
	// under the lock after it, exactly as the single-message send does.
	// With credit configured the whole batch's demand is debited in one
	// acquisition — batch-level admission, mirroring the batch's single
	// arena transaction below — and the connection check rides along
	// with the debit.
	var creditGen uint64
	creditBlocks := 0
	if f.cfg.CreditBlocks > 0 && len(bufs) > 0 {
		creditBlocks = blocks
		var err error
		if creditGen, err = f.acquireCredit(l, id, pid, creditBlocks); err != nil {
			return err
		}
	} else {
		l.lock.Lock()
		if f.slots[id].Load() != l || l.sends[pid] == nil {
			l.lock.Unlock()
			return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
		}
		l.lock.Unlock()
	}
	if len(bufs) == 0 {
		return nil
	}

	// One arena transaction for the whole batch; the copies into the
	// blocks happen outside the LNVC lock.
	msgs, buildErr := f.pool.BuildBatch(pid, bufs, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if buildErr != nil {
		f.refundCredit(l, creditGen, creditBlocks)
		if f.stopped.Load() {
			return ErrShutdown
		}
		return fmt.Errorf("%w: %v", ErrNoMemory, buildErr)
	}

	l.lock.Lock()
	// Re-validate both the connection and the ID binding: the circuit
	// may have been deleted — and its descriptor recycled for another
	// name through the shard free list — while the copies ran.
	if f.slots[id].Load() != l || l.sends[pid] == nil {
		l.lock.Unlock()
		for _, m := range msgs {
			f.pool.Release(m)
		}
		f.refundCredit(l, creditGen, creditBlocks)
		return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
	}
	for _, m := range msgs {
		l.enqueueLocked(m)
	}
	l.cond.Broadcast() // one wakeup for the whole batch
	l.wakeWaitersLocked()
	l.lock.Unlock()
	if f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}

	f.stats.sends.Add(uint64(len(msgs)))
	f.stats.batchSends.Add(1)
	f.stats.bytesSent.Add(uint64(total))
	f.stats.payloadCopiesIn.Add(uint64(len(msgs)))
	return nil
}

// ReceiveBatch blocks until at least one message is available for pid's
// connection, then consumes as many as are available — at most
// len(bufs), one message per buffer, each truncated to its buffer — in
// one LNVC lock acquisition. It returns the per-message byte counts; the
// length of the returned slice is the number of messages consumed.
func (f *Facility) ReceiveBatch(pid int, id ID, bufs [][]byte) ([]int, error) {
	ns, err := f.receiveBatch(pid, id, bufs, nil)
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

// ReceiveBatchDeadline is ReceiveBatch with a bound on the wait for the
// first message; it returns ErrTimeout if none arrives in time. Once one
// message is available the batch never waits for more.
func (f *Facility) ReceiveBatchDeadline(pid int, id ID, bufs [][]byte, d time.Duration) ([]int, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	ns, err := f.receiveBatch(pid, id, bufs, &deadline)
	f.trace(Event{Op: OpReceiveBatch, PID: pid, LNVC: id, Bytes: sumInts(ns), Err: err})
	return ns, err
}

func (f *Facility) receiveBatch(pid int, id ID, bufs [][]byte, deadline *time.Time) ([]int, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, err
	}
	l, err := f.lookup(id)
	if err != nil {
		return nil, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return nil, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	if len(bufs) == 0 {
		l.lock.Unlock()
		return nil, nil
	}
	waited := false
	var timer *time.Timer
	timedOut := false
	if deadline != nil {
		timer = time.AfterFunc(time.Until(*deadline), func() {
			l.lock.Lock()
			timedOut = true
			l.cond.Broadcast()
			l.lock.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if f.stopped.Load() {
			l.lock.Unlock()
			return nil, ErrShutdown
		}
		if l.recvs[pid] != d {
			// Connection closed while parked; see receive.
			l.lock.Unlock()
			return nil, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
		}
		if l.availableLocked(d) != nil {
			break
		}
		if deadline != nil && (timedOut || !time.Now().Before(*deadline)) {
			l.lock.Unlock()
			return nil, ErrTimeout
		}
		waited = true
		l.cond.Wait()
	}
	if waited {
		f.stats.receiveWaits.Add(1)
	}

	// Claim every deliverable message (up to the buffer count) under the
	// one lock hold, pinning each; the copies happen outside the lock.
	claimed := make([]*msg.Message, 0, len(bufs))
	for m := l.availableLocked(d); m != nil && len(claimed) < len(bufs); m = m.Next {
		l.claimLocked(d, m)
		claimed = append(claimed, m)
	}
	l.lock.Unlock()

	ns := make([]int, len(claimed))
	total := 0
	for i, m := range claimed {
		ns[i] = f.pool.Extract(m, bufs[i])
		total += ns[i]
	}
	f.stats.payloadCopiesOut.Add(uint64(len(claimed)))

	f.unpinAll(l, claimed)

	f.stats.receives.Add(uint64(len(claimed)))
	f.stats.batchReceives.Add(1)
	f.stats.bytesRecvd.Add(uint64(total))
	return ns, nil
}

func sumInts(ns []int) int {
	t := 0
	for _, n := range ns {
		t += n
	}
	return t
}
