package core

import (
	"fmt"
	"runtime"

	"repro/internal/msg"
)

// The send path. The paper's message_send is one primitive; the three
// public ways to send here — Send, SendLoan+Commit and
// LoanBatch+CommitAll/CommitN — differ only in who writes the payload
// (the facility copies a user buffer in, or the caller fills loaned
// blocks in place) and in how many messages share the fixed costs. Each
// is "size the demand → admit → msg.Pool.Build* → publish":
//
//   - admit validates the call and resolves the circuit without its
//     lock. With credit configured it takes the lock once, to check the
//     connection and debit the whole demand, parking there — holding no
//     lock — until the budget covers it; without credit the connection
//     is checked only by publish, so an unconnected sender allocates
//     before it fails.
//   - The build allocates every payload chain in one arena transaction,
//     outside the circuit lock, which is what lets BROADCAST receivers
//     and other senders proceed while a payload is produced (the
//     concurrency Figure 5 measures).
//   - publish re-validates under the circuit lock — the circuit may have
//     been deleted, and its descriptor recycled for another name, while
//     the payload was produced — links the messages into the FIFO as
//     consecutive sequence numbers, counts them on the sender's
//     connection, and wakes receivers once — yielding its P, after the
//     lock drops, to a multiplexer that has slept longer than a wake
//     costs (waiter.go).

// admission is admit's receipt: the circuit and connection that were
// validated and the credit debit taken for them. It travels by value; a
// Loan or LoanBatch carries it from allocation to Commit.
type admission struct {
	l   *lnvc
	id  ID
	pid int
	// blocks is the accounted demand (Arena.BlocksFor units) and gen the
	// descriptor incarnation it was debited from: a refund that outlives
	// the circuit is rejected by the generation check (credit.go).
	blocks int
	gen    uint64
}

// admit admits a send of bytes payload bytes occupying blocks accounted
// blocks by pid on id.
func (f *Facility) admit(pid int, id ID, blocks, bytes int) (admission, error) {
	if err := f.checkPID(pid); err != nil {
		return admission{}, err
	}
	if f.stopped.Load() {
		return admission{}, ErrShutdown
	}
	if blocks > f.arena.NumBlocks() {
		return admission{}, fmt.Errorf("%w: %d bytes in %d blocks, region holds %d blocks",
			ErrMessageTooBig, bytes, blocks, f.arena.NumBlocks())
	}
	l, err := f.lookup(id)
	if err != nil {
		return admission{}, err
	}
	a := admission{l: l, id: id, pid: pid, blocks: blocks}
	if f.cfg.CreditBlocks > 0 {
		a.gen, err = f.acquireCredit(l, id, pid, blocks)
	}
	return a, err
}

// unbuilt undoes an admission whose allocation failed.
func (f *Facility) unbuilt(a admission, buildErr error) error {
	f.refundCredit(a.l, a.gen, a.blocks)
	if f.stopped.Load() {
		return ErrShutdown
	}
	return fmt.Errorf("%w: %v", ErrNoMemory, buildErr)
}

// publish resolves an admission whose messages are built: msgs[:n] are
// enqueued, atomically with respect to other senders, and msgs[n:] —
// the unfilled tail of a LoanBatch.CommitN, or everything when the
// facility stopped or the connection was lost meanwhile — go back to the
// region in one transaction with their share of the debit. Either all of
// msgs[:n] are enqueued or none is. The headers of an enqueued message
// stop being the sender's the moment the lock drops. t is the caller's
// attribution of the send — which primitive, how many copies — and is
// counted, with the messages and bytes enqueued, on the sender's
// connection under the same hold.
func (f *Facility) publish(a admission, msgs []*msg.Message, n int, t sendCounts) error {
	l := a.l
	if f.stopped.Load() {
		f.abandon(a, msgs)
		return ErrShutdown
	}
	l.lock.Lock()
	d := l.sends[a.pid]
	if f.slots[a.id].Load() != l || d == nil {
		l.lock.Unlock()
		f.abandon(a, msgs)
		return notConnected("send", a.id, a.pid)
	}
	for _, m := range msgs[:n] {
		t.bytes += uint64(m.Length)
		l.enqueueLocked(m)
	}
	t.msgs = uint64(n)
	d.tx.add(&t)
	handOff := false
	if n > 0 {
		l.cond.Broadcast() // one wakeup however many messages
		handOff = l.wakeWaitersLocked()
	}
	partial := n < len(msgs)
	if partial && l.gen == a.gen {
		tail := 0
		for _, m := range msgs[n:] {
			tail += m.Blocks
		}
		f.grantCreditLocked(l, tail)
	}
	l.lock.Unlock()
	if partial {
		f.pool.ReleaseBatch(msgs[n:])
	}
	if handOff {
		// The fire readied an overdue multiplexer into this P's runnext,
		// where it would wait for an idle P's steal — tens of µs behind
		// that P's usleep — while this sender keeps running. Yielding
		// moves the sender to the global run queue, where the P the
		// wake started picks it up, and the multiplexer runs here now
		// (DESIGN.md §10, "A wake hands over the P").
		f.stats.muxHandoffs.Add(1)
		runtime.Gosched()
	}
	return nil
}

// abandon returns built but unpublished messages and their debit: a
// loan aborted by its holder, or a publish that found the facility
// stopped or the connection gone.
func (f *Facility) abandon(a admission, msgs []*msg.Message) {
	f.pool.ReleaseBatch(msgs)
	f.refundCredit(a.l, a.gen, a.blocks)
}

// Send transfers buf asynchronously to the LNVC: the payload is copied
// into chained message blocks and the message is appended to the FIFO
// (paper §2, message_send). The sender proceeds as soon as the copy
// completes.
func (f *Facility) Send(pid int, id ID, buf []byte) error {
	err := f.send(pid, id, buf)
	f.trace(Event{Op: OpSend, PID: pid, LNVC: id, Bytes: len(buf), Err: err})
	return err
}

func (f *Facility) send(pid int, id ID, buf []byte) error {
	a, err := f.admit(pid, id, f.arena.BlocksFor(len(buf)), len(buf))
	if err != nil {
		return err
	}
	// The first of the paper's two copies: user buffer into blocks.
	m, err := f.pool.Build(pid, buf, f.cfg.SendPolicy == BlockUntilFree, f.stop)
	if err != nil {
		return f.unbuilt(a, err)
	}
	one := [1]*msg.Message{m}
	return f.publish(a, one[:], 1, sendCounts{copiesIn: 1})
}
