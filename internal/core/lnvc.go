package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/shm"
	"repro/internal/spinlock"
)

// sendDesc is a send connection (paper §3.1: "send descriptors ... contain
// the process identifier of the connected process") and the traffic it
// has caused. Descriptors are a cache-line multiple, and the allocator
// places such objects on line boundaries, so no two connections share a
// line: the words below are written by this connection's sender alone,
// under the circuit lock (TestHotWordLayout).
type sendDesc struct {
	pid int
	tx  sendCounts
	_   [16]byte
}

// recvDesc is a receive connection. BROADCAST receivers carry their
// private FIFO head as a sequence number; FCFS receivers use the LNVC's
// shared head. l is the circuit the descriptor belongs to for life (it
// recycles through l's free list only).
type recvDesc struct {
	l       *lnvc
	pid     int
	proto   Protocol
	headSeq uint64 // BROADCAST only: next sequence this receiver consumes
	_       [32]byte
	rx      recvCounts
}

// lnvc is an LNVC descriptor (paper Figure 2). All mutable fields are
// guarded by lock; name is additionally written only under the registry's
// write lock (reset), which is what lets the close path read it under
// that same lock.
//
// The struct is six cache lines, laid out by who writes what (DESIGN.md
// §16). At 384 bytes it falls in an allocator size class whose objects
// start on line boundaries, so the lines below are the lines the
// hardware sees; TestHotWordLayout checks both the offsets and the
// addresses of real descriptors.
type lnvc struct {
	// Line 0: the circuit lock — the hottest word in the facility; every
	// send, receive, harvest and wake takes it — with the identity
	// words, which only reset writes. A peer taking the lock must not
	// invalidate the lines the holder is working on below.
	name string
	id   ID // bound for life (registry.go)
	lock spinlock.TAS
	// gen counts descriptor incarnations: reset bumps it, and selectors
	// compare it so a registration on a dead circuit can never be
	// satisfied by the next circuit, which recycles both the descriptor
	// and its id (the ABA the registry free list would otherwise permit).
	gen uint64
	_   [8]byte

	// Line 1: the queue group — the words every send and every receive
	// writes, handed from one to the other with the lock.
	queue msg.Queue

	// The queue is always a run of messages whose FCFSNeeded is clear
	// followed by a run whose FCFSNeeded is set: FCFS claims take the
	// oldest set message, a backlog inheritance clears every one, and
	// enqueue appends a set one. fcfsDone is the length of the first run
	// and fcfsHead the first message of the second (nil when it is
	// empty) — the shared FCFS head as a pointer, which is what makes an
	// FCFS availableLocked O(1), and the bound on reclaimLocked's walk.
	// Maintained by enqueueLocked, claimLocked, removeLocked,
	// dropQueueLocked and the inheritance in OpenReceive.
	fcfsHead *msg.Message
	fcfsDone int
	_        [16]byte

	// Line 2: read by every send and receive, written only when a
	// connection or a multiplexer registration comes or goes, so it
	// stays shared in every party's cache.
	cond   *sync.Cond // signalled on enqueue, close, credit grant and shutdown
	sends  map[int]*sendDesc
	recvs  map[int]*recvDesc
	nFCFS  int // count of FCFS receive connections
	nBcast int // count of BROADCAST receive connections
	// waiters are the Selectors registered on this circuit; enqueue and
	// close wake exactly these (see waiter.go).
	waiters []*Selector

	// Line 3: the credit ledger (credit.go). creditUsed is the number of
	// accounted blocks debited by senders and not yet re-granted, debited
	// on every credited send and re-granted on every release; it is
	// meaningful only when Config.CreditBlocks > 0 and has the line to
	// itself.
	creditUsed int32
	_          [60]byte

	// Lines 4-5: cold. The free lists are the paper's §3.1 ("Like
	// message blocks, LNVC, send, and receive descriptors are linked into
	// free lists when not in use"); gone is the traffic of connections
	// that no longer exist (traffic.go), out of line so that the
	// descriptor keeps its size class.
	sendFree []*sendDesc
	recvFree []*recvDesc
	gone     *goneTraffic
	_        [72]byte
}

// goneTraffic is the traffic of a descriptor's departed connections:
// closed is this incarnation's, folded in by CloseSend/CloseReceive; past
// is every earlier incarnation's, folded in by reset. Written under the
// circuit lock, on close and recycling — never per message.
type goneTraffic struct {
	closed, past traffic
}

func newLNVC(name string, id ID) *lnvc {
	l := &lnvc{
		name:  name,
		id:    id,
		sends: make(map[int]*sendDesc),
		recvs: make(map[int]*recvDesc),
		gone:  new(goneTraffic),
	}
	l.cond = sync.NewCond(&l.lock)
	return l
}

// reset prepares a recycled descriptor for reuse.
func (l *lnvc) reset(name string) {
	l.name = name
	l.dropQueueLocked()
	clear(l.sends)
	clear(l.recvs)
	l.nFCFS, l.nBcast = 0, 0
	// Stale registrations from the descriptor's previous life are
	// dropped: their owners were woken at deletion and unregister by
	// identity, which tolerates the entry already being gone. The
	// generation bump invalidates any selector registration that still
	// names this descriptor.
	clear(l.waiters)
	l.waiters = l.waiters[:0]
	// Credit state died with the previous circuit (the close path's
	// deletion branch zeroed the ledger and woke the parked senders); the
	// fresh incarnation starts unencumbered.
	l.creditUsed = 0
	l.gone.past.add(&l.gone.closed)
	l.gone.closed = traffic{}
	l.gen++
}

func (l *lnvc) connections() int { return len(l.sends) + len(l.recvs) }

// enqueueLocked appends m to the FIFO with its delivery state set (rule
// 1 of the package comment): one Pending reference per connected
// BROADCAST receiver and an outstanding FCFS consumption.
func (l *lnvc) enqueueLocked(m *msg.Message) {
	m.Pending = l.nBcast
	m.FCFSNeeded = true
	l.queue.Enqueue(m)
	if l.fcfsHead == nil {
		l.fcfsHead = m
	}
}

// removeLocked unlinks m, whose predecessor is prev (nil for the head).
// A message with its FCFS consumption outstanding is only ever removed
// from a broadcast-only circuit; if it is the cursor, the cursor moves
// to its successor, which is the next message still needing FCFS.
func (l *lnvc) removeLocked(m, prev *msg.Message) {
	if !m.FCFSNeeded {
		l.fcfsDone--
	} else if l.fcfsHead == m {
		l.fcfsHead = m.Next
	}
	l.queue.Remove(m, prev)
}

// dropQueueLocked forgets every queued message (the caller has
// collected or orphaned them) together with the FCFS cursor and count.
func (l *lnvc) dropQueueLocked() {
	l.queue = msg.Queue{}
	l.fcfsHead = nil
	l.fcfsDone = 0
}

func (l *lnvc) getSendDesc(pid int) *sendDesc {
	if n := len(l.sendFree); n > 0 {
		d := l.sendFree[n-1]
		l.sendFree = l.sendFree[:n-1]
		*d = sendDesc{pid: pid}
		return d
	}
	return &sendDesc{pid: pid}
}

// putSendDesc retires a closing connection's descriptor, folding its
// traffic into the circuit's closed group.
func (l *lnvc) putSendDesc(d *sendDesc) {
	l.gone.closed.tx.add(&d.tx)
	l.sendFree = append(l.sendFree, d)
}

func (l *lnvc) getRecvDesc(pid int, proto Protocol, head uint64) *recvDesc {
	if n := len(l.recvFree); n > 0 {
		d := l.recvFree[n-1]
		l.recvFree = l.recvFree[:n-1]
		*d = recvDesc{l: l, pid: pid, proto: proto, headSeq: head}
		return d
	}
	return &recvDesc{l: l, pid: pid, proto: proto, headSeq: head}
}

// putRecvDesc is putSendDesc for a receive connection.
func (l *lnvc) putRecvDesc(d *recvDesc) {
	l.gone.closed.rx.add(&d.rx)
	l.recvFree = append(l.recvFree, d)
}

// OpenSend establishes a send connection for pid on the LNVC called name,
// creating the LNVC if necessary, and returns its internal identifier.
func (f *Facility) OpenSend(pid int, name string) (ID, error) {
	id, err := f.open(pid, name, func(l *lnvc) error {
		if _, dup := l.sends[pid]; dup {
			return fmt.Errorf("%w: send on %q by process %d", ErrAlreadyOpen, name, pid)
		}
		l.sends[pid] = l.getSendDesc(pid)
		return nil
	})
	f.trace(Event{Op: OpOpenSend, PID: pid, LNVC: id, Name: name, Err: err})
	return id, err
}

// OpenReceive establishes a receive connection with the given protocol
// for pid on the LNVC called name, creating the LNVC if necessary.
func (f *Facility) OpenReceive(pid int, name string, proto Protocol) (ID, error) {
	if proto != FCFS && proto != Broadcast {
		return -1, fmt.Errorf("mpf: unknown protocol %d", proto)
	}
	id, err := f.open(pid, name, func(l *lnvc) error {
		if _, dup := l.recvs[pid]; dup {
			// Also covers the paper's rule that one process cannot hold
			// both FCFS and BROADCAST connections on one LNVC.
			return fmt.Errorf("%w: receive on %q by process %d", ErrAlreadyOpen, name, pid)
		}
		head := l.queue.NextSeq()
		if proto == Broadcast {
			if l.connections() == len(l.sends) && l.queue.Len() > 0 {
				// First receiver on a circuit with a retained backlog:
				// inherit it (rule 5 in the package comment).
				head = l.queue.Head().Seq
				l.queue.Walk(func(m, _ *msg.Message) bool {
					m.Pending++
					m.FCFSNeeded = false
					return true
				})
				l.fcfsHead = nil
				l.fcfsDone = l.queue.Len()
			}
		}
		l.recvs[pid] = l.getRecvDesc(pid, proto, head)
		if proto == FCFS {
			l.nFCFS++
		} else {
			l.nBcast++
		}
		return nil
	})
	f.trace(Event{Op: OpOpenReceive, PID: pid, LNVC: id, Name: name, Err: err})
	return id, err
}

// open is the shared find-or-create path for both open primitives.
// attach runs under both the registry's write lock and the LNVC lock.
func (f *Facility) open(pid int, name string, attach func(*lnvc) error) (ID, error) {
	if err := f.checkPID(pid); err != nil {
		return -1, err
	}
	if err := checkName(name); err != nil {
		return -1, err
	}
	if f.stopped.Load() {
		return -1, ErrShutdown
	}
	f.reg.Lock()
	defer f.reg.Unlock()

	id, exists := f.names[name]
	var l *lnvc
	if exists {
		l = f.slots[id].Load()
	} else if n := len(f.lnvcFree); n > 0 {
		l = f.lnvcFree[n-1]
		f.lnvcFree = f.lnvcFree[:n-1]
		id = l.id
		// reset mutates fields that stale holders of this descriptor (a
		// Send that looked its ID up just before deletion) read under
		// the LNVC lock, so it needs that lock too.
		l.lock.Lock()
		l.reset(name)
		l.lock.Unlock()
	} else if n := len(f.freeIDs); n > 0 {
		id = f.freeIDs[n-1]
		f.freeIDs = f.freeIDs[:n-1]
		l = newLNVC(name, id)
		f.descs = append(f.descs, l)
	} else {
		return -1, fmt.Errorf("%w (max %d)", ErrTooManyLNVCs, f.cfg.MaxLNVCs)
	}

	l.lock.Lock()
	err := attach(l)
	l.lock.Unlock()
	if err != nil {
		if !exists {
			f.lnvcFree = append(f.lnvcFree, l)
		}
		return -1, err
	}
	if !exists {
		f.names[name] = id
		f.slots[id].Store(l)
		f.stats.lnvcsCreated.Add(1)
	}
	f.stats.opens.Add(1)
	return id, nil
}

// CloseSend removes pid's send connection from the LNVC. If it is the
// last connection the LNVC is deleted and all unread messages discarded.
func (f *Facility) CloseSend(pid int, id ID) error {
	err := f.close(pid, id, func(l *lnvc) error {
		d, ok := l.sends[pid]
		if !ok {
			return notConnected("send", id, pid)
		}
		delete(l.sends, pid)
		l.putSendDesc(d)
		return nil
	})
	f.trace(Event{Op: OpCloseSend, PID: pid, LNVC: id, Err: err})
	return err
}

// CloseReceive removes pid's receive connection. A departing BROADCAST
// receiver releases its claim on every message it had not yet consumed
// (the paper's §3.2 reclamation problem); a departing last-FCFS receiver
// releases FCFS claims if other receivers remain. If this was the last
// connection the LNVC is deleted.
func (f *Facility) CloseReceive(pid int, id ID) error {
	err := f.close(pid, id, func(l *lnvc) error {
		d, ok := l.recvs[pid]
		if !ok {
			return notConnected("receive", id, pid)
		}
		delete(l.recvs, pid)
		if d.proto == FCFS {
			l.nFCFS--
		} else {
			l.nBcast--
			// Release this receiver's claim on unconsumed messages.
			l.queue.Walk(func(m, _ *msg.Message) bool {
				if m.Seq >= d.headSeq && m.Pending > 0 {
					m.Pending--
				}
				return true
			})
		}
		l.putRecvDesc(d)
		f.reclaimLocked(l)
		return nil
	})
	f.trace(Event{Op: OpCloseReceive, PID: pid, LNVC: id, Err: err})
	return err
}

// close is the shared teardown path. detach runs under the registry's
// write lock and the LNVC lock; if it leaves the LNVC with no
// connections, the LNVC is deleted.
func (f *Facility) close(pid int, id ID, detach func(*lnvc) error) error {
	if err := f.checkPID(pid); err != nil {
		return err
	}
	f.reg.Lock()
	l, err := f.lookup(id)
	if err != nil {
		f.reg.Unlock()
		return err
	}
	l.lock.Lock()
	err = detach(l)
	if err == nil {
		// A Receive parked on the condition variable, a Selector parked
		// on the waiter list, or a sender parked for credit must
		// observe a closed connection promptly — never
		// hang until an unrelated send happens by (they re-validate the
		// connection on wake).
		l.cond.Broadcast()
		l.wakeWaitersLocked()
	}
	var drop []*msg.Message
	dropped := 0
	dead := err == nil && l.connections() == 0
	if dead {
		// Collect unread messages for discarding outside the LNVC lock.
		// A message some receiver still holds pinned as a View must
		// survive the circuit: it is orphaned and the last unpin
		// releases it (§5's revised reclamation rule).
		l.queue.Walk(func(m, _ *msg.Message) bool {
			dropped++
			if m.Pins > 0 {
				m.Orphan = true
			} else {
				drop = append(drop, m)
			}
			return true
		})
		l.dropQueueLocked()
		// The ledger dies with the circuit: outstanding debits —
		// dropped unread messages, orphans passing to their pin
		// holders, loans still out — stop counting as held here (late
		// loan refunds are rejected by the generation check).
		l.creditUsed = 0
	}
	l.lock.Unlock()
	if err != nil {
		f.reg.Unlock()
		return err
	}
	f.stats.closes.Add(1)
	if dead {
		delete(f.names, l.name)
		f.slots[id].Store(nil)
		f.lnvcFree = append(f.lnvcFree, l)
		f.stats.lnvcsDeleted.Add(1)
		f.stats.messagesDropped.Add(uint64(dropped))
	}
	f.reg.Unlock()
	f.pool.ReleaseBatch(drop)
	return nil
}

// notConnected is the error every primitive returns for a connection
// pid does not hold (any more) on id; side is "send" or "receive".
func notConnected(side string, id ID, pid int) error {
	return fmt.Errorf("%w: %s on id %d by process %d", ErrNotConnected, side, id, pid)
}

// deadlineAfter turns the bound d of a *Deadline primitive into the
// absolute deadline the wait loops take (the zero Time means none).
func deadlineAfter(d time.Duration) (time.Time, error) {
	if d <= 0 {
		return time.Time{}, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	return time.Now().Add(d), nil
}

// Receive blocks until a message is available for pid's connection, then
// copies it into buf and returns the number of bytes transferred (paper
// §2, message_receive; the copy is truncated to len(buf)).
func (f *Facility) Receive(pid int, id ID, buf []byte) (int, error) {
	n, _, err := f.receive(pid, id, buf, true, time.Time{})
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

// ReceiveDeadline is Receive with a bound on the wait: if no message
// becomes available within d it returns ErrTimeout. The original MPF had
// no timed receive (check_receive plus polling was the idiom); this is
// the blocking-with-deadline variant a modern caller expects, and the
// examples use it to turn potential deadlocks into diagnosable errors.
func (f *Facility) ReceiveDeadline(pid int, id ID, buf []byte, d time.Duration) (int, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return 0, err
	}
	n, _, err := f.receive(pid, id, buf, true, deadline)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

// TryReceive is the non-blocking receive: if a message is available for
// pid's connection it is consumed exactly as by Receive and TryReceive
// reports (n, true); otherwise it returns (0, false) immediately. It is
// the atomic alternative to the check_receive-then-message_receive pair,
// which the paper warns is racy for FCFS receivers ("another process
// with a FCFS receive connection may acquire the message before the
// checking process can receive the message").
func (f *Facility) TryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	n, ok, err := f.receive(pid, id, buf, false, time.Time{})
	f.trace(Event{Op: OpTryReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, ok, err
}

// receive is the copying receive behind Receive, ReceiveDeadline and
// TryReceive: one lock hold claims the message, copies it out and
// retires it. ok is false when park is false and nothing was
// deliverable.
func (f *Facility) receive(pid int, id ID, buf []byte, park bool, deadline time.Time) (int, bool, error) {
	l, d, m, err := f.waitClaim(pid, id, park, deadline)
	if m == nil {
		return 0, false, err
	}
	// The second of the paper's two copies — blocks → user buffer — is
	// made under the claim's hold, so the message needs no pin, and the
	// reclaim scan that frees it runs in the same hold: the receiver's
	// free is nested in a hold it takes anyway instead of racing the
	// sender's allocation for the arena lock after it (DESIGN.md §6).
	l.claimLocked(d, m)
	n := f.pool.Extract(m, buf)
	d.rx.msgs++
	d.rx.bytes += uint64(n)
	d.rx.copiesOut++
	f.reclaimLocked(l)
	l.lock.Unlock()
	return n, true, nil
}

// lockRecv resolves pid's receive connection on id and returns with the
// circuit lock held; on error the lock is not held.
func (f *Facility) lockRecv(pid int, id ID) (*lnvc, *recvDesc, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, nil, err
	}
	l, err := f.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return nil, nil, notConnected("receive", id, pid)
	}
	return l, d, nil
}

// waitClaim is the one wait of the receive primitives that name their
// circuit: it resolves pid's connection on id and waits until a message
// is deliverable to it, then returns with the circuit lock held and m,
// that message, not yet claimed — the caller claims it (receive copies
// it out and retires it, receiveView pins it) and unlocks. A claim that
// had to park is counted here. With park false it never waits and m may
// be nil; otherwise it parks on the circuit's condition variable — the
// only place anything does — until an enqueue, a close
// (ErrNotConnected), Shutdown (ErrShutdown) or the deadline, when one is
// set (ErrTimeout). The lock is held on return exactly when m is not
// nil.
func (f *Facility) waitClaim(pid int, id ID, park bool, deadline time.Time) (*lnvc, *recvDesc, *msg.Message, error) {
	if f.stopped.Load() {
		return nil, nil, nil, ErrShutdown
	}
	l, d, err := f.lockRecv(pid, id)
	if err != nil {
		return nil, nil, nil, err
	}
	var timedOut *bool
	if park && !deadline.IsZero() {
		// The timer broadcasts the condition so the loop below
		// re-evaluates; the flag is read and written under the LNVC lock.
		// It is allocated here, not declared above, so that a receive
		// without a deadline allocates nothing.
		fired := new(bool)
		timedOut = fired
		timer := time.AfterFunc(time.Until(deadline), func() {
			l.lock.Lock()
			*fired = true
			l.cond.Broadcast()
			l.lock.Unlock()
		})
		defer timer.Stop()
	}
	waited := false
	for {
		var err error
		if f.stopped.Load() {
			err = ErrShutdown
		} else if l.recvs[pid] != d {
			// The connection was closed (CloseReceive from another
			// goroutine) while this receive was parked; the close path
			// broadcast the condition so we see it promptly.
			err = notConnected("receive", id, pid)
		} else if m := l.availableLocked(d); m != nil {
			if waited {
				d.rx.waits++
			}
			return l, d, m, nil
		} else if !park {
			l.lock.Unlock()
			return nil, nil, nil, nil
		} else if timedOut != nil && (*timedOut || !time.Now().Before(deadline)) {
			err = ErrTimeout
		}
		if err != nil {
			l.lock.Unlock()
			return nil, nil, nil, err
		}
		waited = true
		l.cond.Wait()
	}
}

// claimLocked consumes m for receiver d — for FCFS the claim (advancing
// the shared head and its cursor) must happen under the lock or two FCFS
// receivers could take the same message; for BROADCAST it advances the
// private head and releases the Pending reference. m must be the message
// availableLocked(d) returns (in a claim loop, the successor of the one
// d claimed last). A copying receive reads and retires m before the lock
// drops; a view pins it first (claimRunLocked).
func (l *lnvc) claimLocked(d *recvDesc, m *msg.Message) {
	if d.proto == FCFS {
		m.FCFSNeeded = false
		l.fcfsHead = m.Next
		l.fcfsDone++
	} else {
		d.headSeq = m.Seq + 1
		m.Pending--
	}
}

// claimRunLocked claims for d, as pinned views, up to budget of the
// messages deliverable to it, oldest first, appending them to run; m is
// the first of them, what availableLocked(d) returned, bytes is the
// claimed payloads' total length and more reports whether deliverable
// messages remain. Once d has claimed a message the next deliverable one
// is its successor in the queue under either protocol, so the loop
// follows Next instead of asking availableLocked again. The pin keeps
// the blocks alive while the holder reads them outside the lock; a
// pinned message is never recycled (reclaimLocked skips it, the close
// path orphans it to the pin holders instead of releasing it).
func (l *lnvc) claimRunLocked(d *recvDesc, m *msg.Message, run []*msg.Message, budget int) (_ []*msg.Message, bytes uint64, more bool) {
	for ; m != nil && budget > 0; m, budget = m.Next, budget-1 {
		l.claimLocked(d, m)
		m.Pins++
		bytes += uint64(m.Length)
		run = append(run, m)
	}
	return run, bytes, m != nil
}

// unpinAll drops the pins claimRunLocked took on the views' messages ms,
// all claimed from l: one lock acquisition, one reclaim scan. For a
// message still owned by its circuit the unpin may make it reclaimable,
// so the scan runs; an orphan — dropped from a deleted circuit while
// pinned — is released by its last pin holder, outside the lock (it is
// in no queue; l may even have been recycled for another circuit, which
// is safe because only the message's own fields and the pool are
// touched).
func (f *Facility) unpinAll(l *lnvc, ms []*msg.Message) {
	var orphans []*msg.Message
	l.lock.Lock()
	anyLive := false
	for _, m := range ms {
		m.Pins--
		if m.Orphan {
			if m.Pins == 0 {
				orphans = append(orphans, m)
			}
		} else {
			anyLive = true
		}
	}
	if anyLive {
		f.reclaimLocked(l)
	}
	l.lock.Unlock()
	f.pool.ReleaseBatch(orphans)
}

// availableLocked returns the next message deliverable to d, or nil.
// Once d has claimed it, the next deliverable message is its successor
// in the queue under either protocol, so a claim loop follows Next
// instead of asking again. The BROADCAST head stays a sequence number
// resolved by a walk from the queue head: a receiver that has caught up
// has no message to point at, and keeping a pointer would mean every
// enqueue visiting every such receiver.
func (l *lnvc) availableLocked(d *recvDesc) *msg.Message {
	if d.proto == FCFS {
		return l.fcfsHead
	}
	return l.queue.After(d.headSeq)
}

// CheckReceive reports whether a message is currently available for pid's
// receive connection (paper §2, check_receive). For FCFS connections the
// answer is advisory: another FCFS receiver may claim the message first,
// exactly the caveat the paper gives.
func (f *Facility) CheckReceive(pid int, id ID) (bool, error) {
	ok, err := f.checkReceive(pid, id)
	f.trace(Event{Op: OpCheckReceive, PID: pid, LNVC: id, Err: err})
	return ok, err
}

func (f *Facility) checkReceive(pid int, id ID) (bool, error) {
	l, d, err := f.lockRecv(pid, id)
	if err != nil {
		return false, err
	}
	defer l.lock.Unlock()
	d.rx.checks++
	return l.availableLocked(d) != nil, nil
}

// reclaimLocked removes and recycles every message that no connected
// receiver can still consume (rules 3-4 of the package comment). Called
// under the LNVC lock after any event that can release a claim.
//
// Unless the circuit is broadcast-only, a message whose FCFS
// consumption is outstanding cannot be dead, and the others are the
// fcfsDone oldest in the queue: the walk stops after them, and does not
// start when there are none — the steady state of a stream, where each
// receive retires the one message it consumed however deep the queue
// behind it. A broadcast-only circuit walks the whole queue.
func (f *Facility) reclaimLocked(l *lnvc) {
	bcastOnly := l.nFCFS == 0 && (l.nBcast > 0)
	scan := l.fcfsDone
	if bcastOnly {
		scan = l.queue.Len()
	}
	if scan == 0 {
		return
	}
	var victimsBuf [32]*msg.Message
	victims := victimsBuf[:0]
	granted := 0
	var prev *msg.Message
	for m := l.queue.Head(); scan > 0; scan-- {
		next := m.Next
		// Inside the bound the FCFS clause of rule 3 already holds.
		if m.Pins == 0 && m.Pending == 0 {
			l.removeLocked(m, prev)
			victims = append(victims, m)
			granted += m.Blocks
		} else {
			prev = m
		}
		m = next
	}
	if len(victims) == 0 {
		return
	}
	// Still under the LNVC lock, but the arena has its own lock so this
	// is safe (it ranks below the LNVC lock, DESIGN.md §16). The whole
	// scan's victims go back in one free-pool transaction — a batched
	// receive's reclaim costs one arena lock acquisition however many
	// messages it retired. A lone victim that empties the queue is a
	// closed loop's: its span waits in the circuit's recycle slot for the
	// next send, which takes it back with no arena lock (DESIGN.md §2).
	// Mid-stream the sender allocates from the bitmap anyway, and
	// parking spans there measured slower.
	slot := shm.NoSlot
	if l.queue.Len() == 0 {
		slot = int(l.id)
	}
	f.pool.ReleaseIn(slot, victims)
	// The victims' blocks are back in the region: return their accounted
	// demand to the circuit's credit budget and wake any senders parked
	// for it — one grant for the whole scan.
	f.grantCreditLocked(l, granted)
}

// Info describes an LNVC's current state for introspection and tests.
type Info struct {
	Name       string
	ID         ID
	QueuedMsgs int
	Senders    int
	FCFSRecvs  int
	BcastRecvs int
	// FCFSHeadSeq is the sequence number of the next message an FCFS
	// receiver would consume: the FCFS head's, or NextSeq when nothing
	// queued still needs an FCFS consumption.
	FCFSHeadSeq   uint64
	NextSeq       uint64
	SenderPIDs    []int
	ReceiverPIDs  []int
	ReceiverProto map[int]Protocol
	// The credit ledger: CreditCap is the configured per-circuit budget
	// (Config.CreditBlocks; 0 = flow control off) and CreditUsed the
	// accounted blocks currently debited against it. At quiescence —
	// every message reclaimed, every loan resolved — CreditUsed is 0:
	// credits held plus credits free equal the budget.
	CreditCap  int
	CreditUsed int
	// Gauges read off the queue and the waiter list under the lock:
	// PinnedMsgs is the number of queued messages some receiver holds
	// pinned as a live View, OldestSeq the sequence of the oldest queued
	// message (NextSeq when the queue is empty), and ParkedWaiters the
	// Selector registrations an enqueue here would wake.
	PinnedMsgs    int
	OldestSeq     uint64
	ParkedWaiters int
	// Per-connection traffic, the words Facility.Stats sums: one entry
	// per live connection, and the totals of this circuit's connections
	// that have closed (PID -1). Summed over a facility's circuits, the
	// deleted ones apart, they are its Stats.
	SenderTraffic   []SenderTraffic
	ReceiverTraffic []ReceiverTraffic
	ClosedSenders   SenderTraffic
	ClosedReceivers ReceiverTraffic
}

// SenderTraffic is what one send connection has put on its circuit.
// Loans counts messages committed through SendLoan or LoanBatch.
type SenderTraffic struct {
	PID                          int
	Msgs, Bytes, CopiesIn, Loans uint64
}

// ReceiverTraffic is what one receive connection has taken off its
// circuit. Views counts messages claimed as pinned views (ReceiveView,
// TryReceiveView, Selector harvests); Waits the claims that had to park.
type ReceiverTraffic struct {
	PID                                  int
	Proto                                Protocol
	Msgs, Bytes, CopiesOut, Views, Waits uint64
}

func senderTraffic(pid int, c *sendCounts) SenderTraffic {
	return SenderTraffic{PID: pid, Msgs: c.msgs, Bytes: c.bytes, CopiesIn: c.copiesIn, Loans: c.loans + c.loanBatch}
}

func receiverTraffic(pid int, proto Protocol, c *recvCounts) ReceiverTraffic {
	return ReceiverTraffic{PID: pid, Proto: proto, Msgs: c.msgs, Bytes: c.bytes,
		CopiesOut: c.copiesOut, Views: c.views + c.harvested, Waits: c.waits}
}

// LNVCInfo returns a snapshot of the LNVC's descriptor state.
func (f *Facility) LNVCInfo(id ID) (Info, error) {
	l, err := f.lookup(id)
	if err != nil {
		return Info{}, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if f.slots[id].Load() != l {
		// Deleted (and possibly recycled) between the lock-free lookup
		// and the lock acquisition.
		return Info{}, fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	info := Info{
		Name:          l.name,
		ID:            l.id,
		QueuedMsgs:    l.queue.Len(),
		Senders:       len(l.sends),
		FCFSRecvs:     l.nFCFS,
		BcastRecvs:    l.nBcast,
		FCFSHeadSeq:   l.queue.NextSeq(),
		NextSeq:       l.queue.NextSeq(),
		ReceiverProto: make(map[int]Protocol, len(l.recvs)),
		CreditCap:     f.cfg.CreditBlocks,
		CreditUsed:    int(l.creditUsed),
		OldestSeq:     l.queue.NextSeq(),
		ParkedWaiters: len(l.waiters),

		ClosedSenders:   senderTraffic(-1, &l.gone.closed.tx),
		ClosedReceivers: receiverTraffic(-1, FCFS, &l.gone.closed.rx),
	}
	if l.fcfsHead != nil {
		info.FCFSHeadSeq = l.fcfsHead.Seq
	}
	if m := l.queue.Head(); m != nil {
		info.OldestSeq = m.Seq
	}
	l.queue.Walk(func(m, _ *msg.Message) bool {
		if m.Pins > 0 {
			info.PinnedMsgs++
		}
		return true
	})
	for pid, d := range l.sends {
		info.SenderPIDs = append(info.SenderPIDs, pid)
		info.SenderTraffic = append(info.SenderTraffic, senderTraffic(pid, &d.tx))
	}
	for pid, d := range l.recvs {
		info.ReceiverPIDs = append(info.ReceiverPIDs, pid)
		info.ReceiverProto[pid] = d.proto
		info.ReceiverTraffic = append(info.ReceiverTraffic, receiverTraffic(pid, d.proto, &d.rx))
	}
	return info, nil
}
