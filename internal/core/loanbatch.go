package core

import (
	"fmt"

	"repro/internal/msg"
)

// The batched zero-copy send path. SendLoan (zerocopy.go) removed the
// send copy but still pays the per-message fixed costs — one arena
// free-pool transaction per loan, one circuit lock acquisition per
// commit. LoanBatch pays them once per batch: every payload chain is
// allocated in a single arena transaction (msg.Pool.BuildLoanBatchInto →
// shm.Arena.AllocPayloadsInto), the caller fills the N writable windows in
// place, and CommitAll links the whole run into the FIFO under one
// circuit lock acquisition with one waiter wakeup — atomic with
// respect to other senders, exactly like SendBatch, but with zero
// structural copies. AbortAll (and the aborted tail of a CommitN)
// returns every chain in one free-pool transaction. Like a Loan, the
// batch is send.go's admission and built messages held by the caller
// between admit and publish.

// LoanBatch is a batch of in-flight zero-copy sends: N messages whose
// blocks are allocated and owned by the caller, none yet linked into
// any FIFO. Fill the payload windows via Bytes/View/Fill, then resolve
// the batch exactly once with CommitAll, CommitN or AbortAll. Like a
// Loan, a LoanBatch is owned by one process and is not safe for
// concurrent use; using its windows after the batch is resolved panics
// (the blocks belong to the facility, or to nobody, by then).
type LoanBatch struct {
	f   *Facility
	adm admission
	// msgs must never be read after done: committed headers belong to
	// the facility (a receiver may consume them and free their chains
	// concurrently) and aborted ones to whoever is handed their head
	// blocks next. Everything the batch reports afterwards comes from ns,
	// copied at allocation.
	msgs []*msg.Message
	ns   []int
	done bool
	// Storage for msgs and ns of a batch of up to msg.BatchInline loans,
	// so that the batch is one heap object; a larger one falls back to
	// slices of its own.
	msgsBuf [msg.BatchInline]*msg.Message
	nsBuf   [msg.BatchInline]int
}

// LoanBatch allocates blocks for one message per length in ns — all in
// a single arena free-pool transaction — and returns the batch for the
// caller to fill in place. Allocation follows the facility's
// SendPolicy exactly as Send does, applied to the batch's total block
// demand (BlockUntilFree waits for the whole demand; FailFast returns
// ErrNoMemory). An empty ns validates the connection and returns an
// empty batch whose CommitAll is a no-op.
func (f *Facility) LoanBatch(pid int, id ID, ns []int) (*LoanBatch, error) {
	total, blocks := 0, 0
	for _, n := range ns {
		total += n
		blocks += f.arena.BlocksFor(n)
	}
	b, err := f.loanBatch(pid, id, ns, blocks, total)
	f.trace(Event{Op: OpLoanBatch, PID: pid, LNVC: id, Bytes: total, Err: err})
	return b, err
}

func (f *Facility) loanBatch(pid int, id ID, ns []int, blocks, total int) (*LoanBatch, error) {
	for _, n := range ns {
		if n < 0 {
			return nil, fmt.Errorf("mpf: LoanBatch of %d bytes", n)
		}
	}
	a, err := f.admit(pid, id, blocks, total)
	if err != nil {
		return nil, err
	}
	b := &LoanBatch{f: f, adm: a}
	b.msgs, b.ns = msg.InlineOr(b.msgsBuf[:], len(ns)), msg.InlineOr(b.nsBuf[:], len(ns))
	copy(b.ns, ns)
	if err := f.pool.BuildLoanBatchInto(pid, ns, b.msgs, f.cfg.SendPolicy == BlockUntilFree, f.stop); err != nil {
		return nil, f.unbuilt(a, err)
	}
	return b, nil
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
	b.f.trace(Event{Op: OpLoanBatchCommit, PID: b.adm.pid, LNVC: b.adm.id, Bytes: committed, Err: err})
	return err
}

// commit resolves the batch, publishing msgs[:n] and releasing the
// rest. It returns the committed byte count for tracing, computed from
// ns — never from the headers, which stop being ours the moment the
// circuit lock drops.
func (b *LoanBatch) commit(n int) (int, error) {
	if b.done {
		return 0, ErrLoanDone
	}
	b.done = true
	if err := b.f.publish(b.adm, b.msgs, n, sendCounts{loanBatch: uint64(n)}); err != nil {
		return 0, err
	}
	return sumInts(b.ns[:n]), nil
}

// AbortAll returns every loaned chain to the region unsent, in one
// free-pool transaction. Aborting a batch that was already resolved is
// a no-op, so AbortAll can be deferred as cleanup on every error path.
func (b *LoanBatch) AbortAll() {
	if b.done {
		return
	}
	b.done = true
	b.f.abandon(b.adm, b.msgs)
}
