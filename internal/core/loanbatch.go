package core

import (
	"fmt"

	"repro/internal/msg"
)

// The batched zero-copy send path. SendLoan (zerocopy.go) removed the
// send copy but still pays the per-message fixed costs — one arena
// free-pool transaction per loan, one circuit lock acquisition per
// commit. LoanBatch pays them once per batch: every payload chain is
// allocated in a single arena transaction (msg.Pool.BuildLoanBatch →
// shm.Arena.AllocPayloads), the caller fills the N writable windows in
// place, and CommitAll links the whole run into the FIFO under one
// circuit lock acquisition with one waiter wakeup — atomic with
// respect to other senders, exactly like SendBatch, but with zero
// structural copies. AbortAll (and the aborted tail of a CommitN)
// returns every chain in one free-pool transaction.

// LoanBatch is a batch of in-flight zero-copy sends: N messages whose
// blocks are allocated and owned by the caller, none yet linked into
// any FIFO. Fill the payload windows via Bytes/View/Fill, then resolve
// the batch exactly once with CommitAll, CommitN or AbortAll. Like a
// Loan, a LoanBatch is owned by one process and is not safe for
// concurrent use; using its windows after the batch is resolved panics
// (the blocks belong to the facility, or to nobody, by then).
type LoanBatch struct {
	f   *Facility
	l   *lnvc
	id  ID
	pid int
	// msgs must never be read after done: committed headers belong to
	// the facility (a receiver may consume and recycle them
	// concurrently) and aborted ones to the pool. Everything the batch
	// reports afterwards comes from ns/total, copied at allocation.
	msgs  []*msg.Message
	ns    []int
	total int
	done  bool
	// The batch's credit debit — the whole demand in one acquisition,
	// mirroring the single arena transaction. CommitN returns the
	// aborted tail's share; AbortAll and a lost circuit return it all.
	// creditGen pins refunds to the debited descriptor incarnation.
	creditGen    uint64
	creditBlocks int
}

// LoanBatch allocates blocks for one message per length in ns — all in
// a single arena free-pool transaction — and returns the batch for the
// caller to fill in place. Allocation follows the facility's
// SendPolicy exactly as Send does, applied to the batch's total block
// demand (BlockUntilFree waits for the whole demand; FailFast returns
// ErrNoMemory). An empty ns validates the connection and returns an
// empty batch whose CommitAll is a no-op.
func (f *Facility) LoanBatch(pid int, id ID, ns []int) (*LoanBatch, error) {
	b, err := f.loanBatch(pid, id, ns)
	total := 0
	for _, n := range ns {
		total += n
	}
	f.trace(Event{Op: OpLoanBatch, PID: pid, LNVC: id, Bytes: total, Err: err})
	return b, err
}

func (f *Facility) loanBatch(pid int, id ID, ns []int) (*LoanBatch, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, err
	}
	if f.stopped.Load() {
		return nil, ErrShutdown
	}
	total, blocks := 0, 0
	for _, n := range ns {
		if n < 0 {
			return nil, fmt.Errorf("mpf: LoanBatch of %d bytes", n)
		}
		total += n
		blocks += f.arena.BlocksFor(n)
	}
	if blocks > f.arena.NumBlocks() {
		return nil, fmt.Errorf("%w: batch of %d bytes in %d blocks, region holds %d blocks",
			ErrMessageTooBig, total, blocks, f.arena.NumBlocks())
	}
	l, err := f.lookup(id)
	if err != nil {
		return nil, err
	}
	// Fail fast before the (possibly blocking) allocation; CommitAll
	// re-validates under the lock, exactly as sendBatch does. With
	// credit configured the whole batch's demand is debited in one
	// acquisition, and the check rides along with it.
	var creditGen uint64
	creditBlocks := 0
	if f.cfg.CreditBlocks > 0 && len(ns) > 0 {
		creditBlocks = blocks
		var err error
		if creditGen, err = f.acquireCredit(l, id, pid, creditBlocks); err != nil {
			return nil, err
		}
	} else {
		l.lock.Lock()
		if f.slots[id].Load() != l || l.sends[pid] == nil {
			l.lock.Unlock()
			return nil, fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
		}
		l.lock.Unlock()
	}

	msgs, buildErr := f.pool.BuildLoanBatch(pid, ns, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if buildErr != nil {
		f.refundCredit(l, creditGen, creditBlocks)
		if f.stopped.Load() {
			return nil, ErrShutdown
		}
		return nil, fmt.Errorf("%w: %v", ErrNoMemory, buildErr)
	}
	nsCopy := make([]int, len(ns))
	copy(nsCopy, ns)
	return &LoanBatch{f: f, l: l, id: id, pid: pid, msgs: msgs, ns: nsCopy, total: total,
		creditGen: creditGen, creditBlocks: creditBlocks}, nil
}

// Len returns the number of loans in the batch.
func (b *LoanBatch) Len() int { return len(b.ns) }

// Size returns loan i's payload capacity in bytes.
func (b *LoanBatch) Size(i int) int { return b.ns[i] }

// View returns the writable window onto loan i's blocks. Valid until
// the batch is resolved.
func (b *LoanBatch) View(i int) msg.View {
	b.checkLive()
	return b.f.pool.View(b.msgs[i])
}

// Bytes returns loan i as one writable slice when its payload occupies
// a single segment — the common case under span allocation — and
// (nil, false) when fragmentation split it (write through View(i)'s
// Segments or Fill instead).
func (b *LoanBatch) Bytes(i int) ([]byte, bool) { return b.View(i).Contiguous() }

// Fill writes buf into loan i in place, returning the number of bytes
// written (min of the loan's capacity and len(buf)). This is the
// production step for a caller whose payload already lives in a
// private buffer — mpf.Writer and TypedSender batch through it — and
// is deliberately not counted in the copy ledger: the bytes enter the
// shared region exactly once, the minimum any interface taking a
// caller-owned buffer can achieve (the same count as the restricted
// direct-transfer fast path), where the copying plane's PayloadCopiesIn
// records the structural copy Send performs on top of its own
// bookkeeping.
func (b *LoanBatch) Fill(i int, buf []byte) int { return b.View(i).CopyFrom(buf) }

func (b *LoanBatch) checkLive() {
	if b.done {
		panic("mpf: LoanBatch window used after commit or abort")
	}
}

// CommitAll links every loaned message into the circuit's FIFO under a
// single circuit lock acquisition, with one waiter wakeup for the
// whole batch — SendBatch without its copies. The batch is atomic with
// respect to other senders: its messages occupy consecutive sequence
// numbers. After CommitAll the batch is spent; committing a spent
// batch returns ErrLoanDone. If the circuit died while the batch was
// out, every chain is returned (one transaction) and ErrNotConnected
// comes back.
func (b *LoanBatch) CommitAll() error { return b.commitN(len(b.msgs)) }

// CommitN commits the first n loans and aborts the rest — the partial
// resolution for a producer that batched k windows but filled only n.
// The committed prefix is enqueued atomically exactly as by CommitAll;
// the aborted tail goes back to the region in one free-pool
// transaction. CommitN(0) aborts everything (like AbortAll, but
// reporting circuit death if the batch could not have committed).
func (b *LoanBatch) CommitN(n int) error {
	if n < 0 || n > len(b.msgs) {
		return fmt.Errorf("mpf: CommitN(%d) on a batch of %d", n, len(b.msgs))
	}
	return b.commitN(n)
}

func (b *LoanBatch) commitN(n int) error {
	committed, err := b.commit(n)
	b.f.trace(Event{Op: OpLoanBatchCommit, PID: b.pid, LNVC: b.id, Bytes: committed, Err: err})
	return err
}

// commit resolves the batch, enqueueing msgs[:n] and releasing the
// rest. It returns the committed byte count for tracing, computed from
// ns — never from the headers, which stop being ours the moment the
// lock drops.
func (b *LoanBatch) commit(n int) (int, error) {
	if b.done {
		return 0, ErrLoanDone
	}
	b.done = true
	f, l := b.f, b.l
	if f.stopped.Load() {
		f.pool.ReleaseBatch(b.msgs)
		f.refundCredit(l, b.creditGen, b.creditBlocks)
		return 0, ErrShutdown
	}
	total := 0
	for _, sz := range b.ns[:n] {
		total += sz
	}
	l.lock.Lock()
	// Re-validate both the connection and the ID binding: the circuit
	// may have been deleted — and its descriptor recycled for another
	// name — while the caller held the batch.
	if f.slots[b.id].Load() != l || l.sends[b.pid] == nil {
		l.lock.Unlock()
		f.pool.ReleaseBatch(b.msgs)
		f.refundCredit(l, b.creditGen, b.creditBlocks)
		return 0, fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, b.id, b.pid)
	}
	for _, m := range b.msgs[:n] {
		l.enqueueLocked(m)
	}
	if n > 0 {
		l.cond.Broadcast() // one wakeup for the whole batch
		l.wakeWaitersLocked()
	}
	if b.creditBlocks > 0 && n < len(b.ns) && l.gen == b.creditGen {
		// The aborted tail's blocks go back to the region below; its
		// accounted demand goes back to the budget here, under the same
		// lock hold that committed the prefix (the CommitN partial-abort
		// restore).
		tail := 0
		for _, sz := range b.ns[n:] {
			tail += f.arena.BlocksFor(sz)
		}
		f.grantCreditLocked(l, tail)
	}
	l.lock.Unlock()
	if n > 0 && f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}
	f.pool.ReleaseBatch(b.msgs[n:]) // aborted tail, one transaction

	f.stats.sends.Add(uint64(n))
	f.stats.loanBatchSends.Add(uint64(n))
	f.stats.bytesSent.Add(uint64(total))
	return total, nil
}

// AbortAll returns every loaned chain to the region unsent, in one
// free-pool transaction. Aborting a batch that was already resolved is
// a no-op, so AbortAll can be deferred as cleanup on every error path.
func (b *LoanBatch) AbortAll() {
	if b.done {
		return
	}
	b.done = true
	b.f.pool.ReleaseBatch(b.msgs)
	b.f.refundCredit(b.l, b.creditGen, b.creditBlocks)
}
