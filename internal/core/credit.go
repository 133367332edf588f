package core

import (
	"errors"
	"fmt"
)

// Per-circuit credit-based flow control. The paper's only backpressure
// signal is global block-pool exhaustion: a sender discovers the region
// is full only when BlockUntilFree parks it on the arena's free-pool
// wait, where it competes with every other sender in the facility. One
// hot circuit can therefore monopolise the arena and stall every
// tenant. Credit bounds each circuit's arena share instead:
//
//   - Config.CreditBlocks grants every circuit a receiver-side budget,
//     accounted in blocks — the unit the arena actually allocates and
//     the same worst-case BlocksFor demand the capacity checks use.
//   - Every send debits the budget when it is admitted (send.go),
//     before its allocation, under the circuit lock. A send that would
//     overdraw parks on the circuit's condition variable
//     (BlockUntilFree) or returns ErrNoCredit (FailFast), so a wakeup
//     reaches only the parties parked on this circuit.
//   - Credits return to the budget when the message's blocks return to
//     the region while the circuit lives: the reclaim scan re-grants
//     every victim's Message.Blocks and wakes parked senders in batch.
//     A debit that never reaches a FIFO (a failed build, an aborted
//     loan, the unpublished tail of a CommitN, a publish that lost its
//     circuit) is refunded the same way.
//   - A circuit that dies zeroes its ledger: unread messages are
//     dropped (their credits die with the circuit) and pinned messages
//     are orphaned to their pin holders — the orphan's blocks go back
//     to the arena at the last unpin, but its credits stop counting as
//     held at orphaning time, because the budget they were debited from
//     no longer exists. Refunds arriving after death (an outstanding
//     loan aborting late) are rejected by the descriptor generation
//     check, so a recycled descriptor's fresh ledger can never be
//     corrupted by its previous life's traffic.
//   - Stats.CreditsHeld is not maintained: it is the sum of the
//     circuits' creditUsed words, read under their locks when asked.
//
// Credit is receiver-granted: it only flows back when a receiver (or
// the reclaim rules acting for one) releases blocks. A sender parked
// for credit on a circuit whose last receiver departs can therefore
// never be satisfied, so the close path wakes the parked senders and
// the wait loop fails them with a prompt ErrNotConnected instead of
// parking forever — the same promptness contract the receive-side parks
// got in the selector work.

// ErrNoCredit is returned by the send-side primitives when the
// circuit's credit budget cannot cover the message under the FailFast
// policy — or, under either policy, when a single message's block
// demand exceeds the whole budget and so could never be granted.
var ErrNoCredit = errors.New("mpf: circuit out of credit blocks")

// acquireCredit is the admission check a send makes under the circuit
// lock when credit is configured (admit skips it otherwise): pid must
// hold a send connection on id, and blocks are debited from id's budget,
// parking on the circuit's condition variable until the budget can cover
// them (BlockUntilFree) or failing with ErrNoCredit (FailFast). It
// re-validates the connection on entry and on every wake, so a sender
// parked for credit observes CloseSend, circuit deletion, the departure
// of the last receiver, and Shutdown promptly. On success it returns the
// descriptor generation at debit time, which refundCredit uses to reject
// refunds that outlive the circuit.
func (f *Facility) acquireCredit(l *lnvc, id ID, pid, blocks int) (uint64, error) {
	budget := f.cfg.CreditBlocks
	stalled := false
	l.lock.Lock()
	for {
		// Shutdown sets stopped before it broadcasts under this lock, so
		// a sender that reads it clear here is parked when that
		// broadcast comes.
		if stalled && f.stopped.Load() {
			l.lock.Unlock()
			return 0, ErrShutdown
		}
		if f.slots[id].Load() != l || l.sends[pid] == nil {
			l.lock.Unlock()
			return 0, notConnected("send", id, pid)
		}
		if blocks > budget {
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: message of %d blocks exceeds the circuit budget of %d",
				ErrNoCredit, blocks, budget)
		}
		if int(l.creditUsed)+blocks <= budget {
			l.creditUsed += int32(blocks)
			gen := l.gen
			l.lock.Unlock()
			return gen, nil
		}
		if f.cfg.SendPolicy == FailFast {
			used := l.creditUsed
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: circuit %d holds %d of %d credit blocks, need %d",
				ErrNoCredit, id, used, budget, blocks)
		}
		if l.nFCFS+l.nBcast == 0 {
			// Receiver-granted credit with no receiver connected: the
			// grant can never arrive, so failing beats deadlock. This is
			// how a CloseReceive that removes the last receiver turns a
			// parked credit waiter into a prompt error.
			l.lock.Unlock()
			return 0, fmt.Errorf("%w: credit wait on id %d with no receiver connected", ErrNotConnected, id)
		}
		if !stalled {
			// A stall counts once per send, however often an enqueue or
			// a grant wakes it, and is traced with no lock held; the
			// loop then checks everything again before the first park.
			stalled = true
			l.lock.Unlock()
			f.stats.creditStalls.Add(1)
			f.trace(Event{Op: OpCreditStall, PID: pid, LNVC: id, Bytes: blocks * f.arena.BlockSize()})
			l.lock.Lock()
			continue
		}
		l.cond.Wait()
	}
}

// grantCreditLocked returns blocks to l's budget and wakes the senders
// parked for it. Called under l.lock. The clamp to the outstanding
// debit makes late grants — a reclaim on a descriptor whose ledger was
// zeroed at circuit death and recycled — harmless: they grant nothing.
func (f *Facility) grantCreditLocked(l *lnvc, blocks int) {
	if f.cfg.CreditBlocks <= 0 || blocks <= 0 {
		return
	}
	if int(l.creditUsed) < blocks {
		blocks = int(l.creditUsed)
	}
	if blocks == 0 {
		return
	}
	l.creditUsed -= int32(blocks)
	l.cond.Broadcast()
}

// refundCredit returns a never-enqueued debit (an aborted or
// circuit-lost loan, a failed build) to the budget. The generation
// check rejects a refund whose circuit died or was recycled since the
// debit: the death path zeroed that ledger, and the descriptor's current
// one belongs to someone else.
func (f *Facility) refundCredit(l *lnvc, gen uint64, blocks int) {
	if f.cfg.CreditBlocks <= 0 || blocks <= 0 {
		return
	}
	l.lock.Lock()
	if l.gen == gen {
		f.grantCreditLocked(l, blocks)
	}
	l.lock.Unlock()
}
