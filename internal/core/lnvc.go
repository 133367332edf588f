package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/spinlock"
)

// sendDesc is a send connection (paper §3.1: "send descriptors ... contain
// the process identifier of the connected process").
type sendDesc struct {
	pid int
}

// recvDesc is a receive connection. BROADCAST receivers carry their
// private FIFO head as a sequence number; FCFS receivers use the LNVC's
// shared head.
type recvDesc struct {
	pid     int
	proto   Protocol
	headSeq uint64 // BROADCAST only: next sequence this receiver consumes
}

// lnvc is an LNVC descriptor (paper Figure 2). All mutable fields are
// guarded by lock; name is additionally written only under the owning
// shard's write lock (reset), which is what lets the close path read it
// under that same shard lock.
type lnvc struct {
	name string
	id   ID
	// shard is the registry shard this descriptor belongs to. It is
	// immutable: descriptors recycle only through their own shard's
	// free list, so every name this descriptor ever carries hashes
	// here.
	shard uint32

	// The circuit lock is the hottest word in the facility — every
	// send, receive, harvest and wake spins on it — so it gets a cache
	// line to itself (24-byte TAS + 40 pad): a reader walking the cold
	// descriptor fields below must not invalidate the line senders are
	// spinning on. Asserted by TestHotWordLayout.
	lock spinlock.TAS
	_    [40]byte

	cond *sync.Cond // signalled on enqueue and shutdown

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

	sends  map[int]*sendDesc
	recvs  map[int]*recvDesc
	nFCFS  int // count of FCFS receive connections
	nBcast int // count of BROADCAST receive connections

	// waiters are the parked multiplexer registrations (ReceiveAny
	// parks, Selector memberships) on this circuit; enqueue and close
	// wake exactly these (see waiter.go). gen counts descriptor
	// incarnations: reset bumps it, and selectors compare it so a
	// registration on a dead circuit can never be satisfied by a new
	// circuit that recycled both the descriptor and the id (the ABA
	// the registry free lists would otherwise permit).
	waiters []*muxWaiter
	gen     uint64

	// The credit ledger (credit.go). creditUsed is the number of
	// accounted blocks debited by senders and not yet re-granted;
	// creditWaiters are the senders parked until the budget can cover
	// them. Both guarded by lock; both meaningful only when
	// Config.CreditBlocks > 0.
	// creditUsed sits on its own line: it is debited on every credited
	// send and re-granted on every release, and without the pad it
	// would share a line with the waiter slice header that parked
	// senders and granting receivers both touch. Asserted by
	// TestHotWordLayout.
	creditUsed    int32
	_             [60]byte
	creditWaiters []*creditWaiter

	// descriptor free lists, per paper §3.1 ("Like message blocks, LNVC,
	// send, and receive descriptors are linked into free lists when not
	// in use").
	sendFree []*sendDesc
	recvFree []*recvDesc
}

func newLNVC(name string, id ID, shard uint32) *lnvc {
	l := &lnvc{
		name:  name,
		id:    id,
		shard: shard,
		sends: make(map[int]*sendDesc),
		recvs: make(map[int]*recvDesc),
	}
	l.cond = sync.NewCond(&l.lock)
	return l
}

// reset prepares a recycled descriptor for reuse.
func (l *lnvc) reset(name string, id ID) {
	l.name = name
	l.id = id
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
	// deletion branch zeroed the ledger and woke the waiters, who
	// unregister by identity); the fresh incarnation starts unencumbered.
	l.creditUsed = 0
	clear(l.creditWaiters)
	l.creditWaiters = l.creditWaiters[:0]
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
		d.pid = pid
		return d
	}
	return &sendDesc{pid: pid}
}

func (l *lnvc) putSendDesc(d *sendDesc) { l.sendFree = append(l.sendFree, d) }

func (l *lnvc) getRecvDesc(pid int, proto Protocol, head uint64) *recvDesc {
	if n := len(l.recvFree); n > 0 {
		d := l.recvFree[n-1]
		l.recvFree = l.recvFree[:n-1]
		*d = recvDesc{pid: pid, proto: proto, headSeq: head}
		return d
	}
	return &recvDesc{pid: pid, proto: proto, headSeq: head}
}

func (l *lnvc) putRecvDesc(d *recvDesc) { l.recvFree = append(l.recvFree, d) }

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
// attach runs under both the shard's write lock and the LNVC lock. Only
// the shard that name hashes to is locked, so opens on circuits in
// different shards proceed concurrently.
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
	si := f.shardIndex(name)
	s := f.lockShard(si)
	defer s.lock.Unlock()

	id, exists := s.names[name]
	var l *lnvc
	if exists {
		l = f.slots[id].Load()
	} else {
		var ok bool
		id, ok = f.allocID()
		if !ok {
			return -1, fmt.Errorf("%w (max %d)", ErrTooManyLNVCs, f.cfg.MaxLNVCs)
		}
		if n := len(s.lnvcFree); n > 0 {
			l = s.lnvcFree[n-1]
			s.lnvcFree = s.lnvcFree[:n-1]
			// reset mutates fields that stale holders of this
			// descriptor (a Send that looked its old ID up just before
			// deletion) read under the LNVC lock, so it needs that
			// lock too.
			l.lock.Lock()
			l.reset(name, id)
			l.lock.Unlock()
		} else {
			l = newLNVC(name, id, si)
		}
	}

	l.lock.Lock()
	err := attach(l)
	l.lock.Unlock()
	if err != nil {
		if !exists {
			s.lnvcFree = append(s.lnvcFree, l)
			f.freeID(id)
		}
		return -1, err
	}
	if !exists {
		s.names[name] = id
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
			return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
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
			return fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
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

// close is the shared teardown path. detach runs under the descriptor's
// shard lock and the LNVC lock; if it leaves the LNVC with no
// connections, the LNVC is deleted. The descriptor-to-shard binding is
// immutable (descriptors recycle within one shard), so the initial
// lock-free slot load can never direct us to the wrong shard; the
// re-check under the shard lock catches a circuit deleted — and possibly
// recycled — between the load and the lock.
func (f *Facility) close(pid int, id ID, detach func(*lnvc) error) error {
	if err := f.checkPID(pid); err != nil {
		return err
	}
	l, err := f.lookup(id)
	if err != nil {
		return err
	}
	s := f.lockShard(l.shard)
	if f.slots[id].Load() != l {
		s.lock.Unlock()
		return fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	l.lock.Lock()
	err = detach(l)
	if err == nil {
		// A Receive parked on the condition variable, a ReceiveAny
		// parked on the waiter list, a Selector.Wait, or a sender parked
		// for credit must observe a closed connection promptly — never
		// hang until an unrelated send happens by (they re-validate the
		// connection on wake).
		l.cond.Broadcast()
		l.wakeWaitersLocked()
		l.wakeCreditWaitersLocked()
	}
	var drop []*msg.Message
	dropped := 0
	dead := err == nil && l.connections() == 0
	if dead {
		// Collect unread messages for discarding outside the LNVC lock.
		// A message some receiver still holds pinned — a copy in flight
		// or a held View — must survive the circuit: it is orphaned and
		// the last unpin releases it (§5's revised reclamation rule).
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
		// holders, loans still out — return to the facility gauge here
		// (late loan refunds are rejected by the generation check).
		f.dropLedgerLocked(l)
	}
	l.lock.Unlock()
	if err != nil {
		s.lock.Unlock()
		return err
	}
	f.stats.closes.Add(1)
	if dead {
		delete(s.names, l.name)
		f.slots[id].Store(nil)
		s.lnvcFree = append(s.lnvcFree, l)
		f.freeID(id)
		f.stats.lnvcsDeleted.Add(1)
		f.stats.messagesDropped.Add(uint64(dropped))
	}
	s.lock.Unlock()
	if f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}
	f.pool.ReleaseBatch(drop)
	return nil
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
	if err := f.checkPID(pid); err != nil {
		return err
	}
	if f.stopped.Load() {
		return ErrShutdown
	}
	if f.arena.BlocksFor(len(buf)) > f.arena.NumBlocks() {
		return fmt.Errorf("%w: %d bytes, region holds %d", ErrMessageTooBig, len(buf), f.arena.NumBlocks()*f.arena.PayloadSize())
	}
	l, err := f.lookup(id)
	if err != nil {
		return err
	}
	// Connection check is done before the (possibly blocking) copy so an
	// unconnected sender fails fast, and rechecked after under the lock.
	// With credit configured the check rides along with the debit, which
	// parks here (not holding any lock) until the budget can cover the
	// message.
	var creditGen uint64
	creditBlocks := 0
	if f.cfg.CreditBlocks > 0 {
		creditBlocks = f.arena.BlocksFor(len(buf))
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

	// First copy: user buffer into message blocks. This happens outside
	// the LNVC lock, which is what lets BROADCAST receivers and other
	// senders proceed concurrently (the concurrency Figure 5 measures).
	m, buildErr := f.pool.Build(pid, buf, f.cfg.SendPolicy == BlockUntilFree, f.stop)
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
	// name through the shard free list — while the copy ran.
	if f.slots[id].Load() != l || l.sends[pid] == nil {
		l.lock.Unlock()
		f.pool.Release(m)
		f.refundCredit(l, creditGen, creditBlocks)
		return fmt.Errorf("%w: send on id %d by process %d", ErrNotConnected, id, pid)
	}
	l.enqueueLocked(m)
	l.cond.Broadcast()
	l.wakeWaitersLocked()
	l.lock.Unlock()
	if f.cfg.GlobalPulseMux {
		f.pulseActivity()
	}

	f.stats.sends.Add(1)
	f.stats.bytesSent.Add(uint64(len(buf)))
	f.stats.payloadCopiesIn.Add(1)
	return nil
}

// Receive blocks until a message is available for pid's connection, then
// copies it into buf and returns the number of bytes transferred (paper
// §2, message_receive; the copy is truncated to len(buf)).
func (f *Facility) Receive(pid int, id ID, buf []byte) (int, error) {
	n, err := f.receive(pid, id, buf, nil)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

// ReceiveDeadline is Receive with a bound on the wait: if no message
// becomes available within d it returns ErrTimeout. The original MPF had
// no timed receive (check_receive plus polling was the idiom); this is
// the blocking-with-deadline variant a modern caller expects, and the
// examples use it to turn potential deadlocks into diagnosable errors.
func (f *Facility) ReceiveDeadline(pid int, id ID, buf []byte, d time.Duration) (int, error) {
	if d <= 0 {
		return 0, fmt.Errorf("%w: non-positive deadline %v", ErrTimeout, d)
	}
	deadline := time.Now().Add(d)
	n, err := f.receive(pid, id, buf, &deadline)
	f.trace(Event{Op: OpReceive, PID: pid, LNVC: id, Bytes: n, Err: err})
	return n, err
}

func (f *Facility) receive(pid int, id ID, buf []byte, deadline *time.Time) (int, error) {
	l, m, err := f.waitClaim(pid, id, deadline)
	if err != nil {
		return 0, err
	}

	// The second of the paper's two copies — blocks → user buffer —
	// happens outside the lock, under the pin, so BROADCAST receivers
	// proceed concurrently.
	n := f.pool.Extract(m, buf)
	f.stats.payloadCopiesOut.Add(1)

	f.unpin(l, m)

	f.stats.receives.Add(1)
	f.stats.bytesRecvd.Add(uint64(n))
	return n, nil
}

// waitClaim blocks until a message is deliverable to pid's connection
// on id, claims it and pins it, and returns it together with the
// circuit it was claimed from. On success the caller owns one pin and
// must balance it with unpin once done reading the payload. deadline,
// when non-nil, bounds the wait (ErrTimeout).
func (f *Facility) waitClaim(pid int, id ID, deadline *time.Time) (*lnvc, *msg.Message, error) {
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
		return nil, nil, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	var m *msg.Message
	waited := false
	var timer *time.Timer
	timedOut := false
	if deadline != nil {
		// The waker broadcasts the LNVC condition so the waiter below
		// re-evaluates; timedOut is only read/written under the LNVC
		// lock except for the final defensive Stop.
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
			return nil, nil, ErrShutdown
		}
		if l.recvs[pid] != d {
			// The connection was closed (CloseReceive from another
			// goroutine) while this receive was parked; the close path
			// broadcast the condition so we see it promptly.
			l.lock.Unlock()
			return nil, nil, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
		}
		m = l.availableLocked(d)
		if m != nil {
			break
		}
		if deadline != nil && (timedOut || !time.Now().Before(*deadline)) {
			l.lock.Unlock()
			return nil, nil, ErrTimeout
		}
		waited = true
		l.cond.Wait()
	}
	if waited {
		f.stats.receiveWaits.Add(1)
	}
	l.claimLocked(d, m)
	l.lock.Unlock()
	return l, m, nil
}

// claimLocked consumes m for receiver d — for FCFS the claim (advancing
// the shared head and its cursor) must happen under the lock or two FCFS
// receivers could take the same message; for BROADCAST it advances the
// private head and releases the Pending reference — and pins it. m must
// be the message availableLocked(d) returns (in a claim loop, the
// successor of the one d claimed last). The pin is what keeps the
// blocks alive while the holder reads them outside the lock, whether
// for the paper's receive copy or for a held View; a pinned message is
// never recycled (reclaimLocked skips it, the close path orphans it to
// the pin holders instead of releasing it).
func (l *lnvc) claimLocked(d *recvDesc, m *msg.Message) {
	if d.proto == FCFS {
		m.FCFSNeeded = false
		l.fcfsHead = m.Next
		l.fcfsDone++
	} else {
		d.headSeq = m.Seq + 1
		m.Pending--
	}
	m.Pins++
}

// unpin drops one pin taken by claimLocked. For a message still owned
// by its circuit this may make it reclaimable, so the reclaim scan
// runs; for an orphan — dropped from a deleted circuit while pinned —
// the last pin holder releases the blocks directly (the message is in
// no queue; l may even have been recycled for another circuit, which
// is safe because only m's own fields and the pool are touched).
func (f *Facility) unpin(l *lnvc, m *msg.Message) {
	l.lock.Lock()
	m.Pins--
	if m.Orphan {
		release := m.Pins == 0
		l.lock.Unlock()
		if release {
			f.pool.Release(m)
		}
		return
	}
	f.reclaimLocked(l)
	l.lock.Unlock()
}

// unpinAll is unpin for a batch claimed from one circuit: one lock
// acquisition, one reclaim scan. Orphans are collected and released
// outside the lock.
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

// TryReceive is the non-blocking receive: if a message is available for
// pid's connection it is consumed exactly as by Receive and TryReceive
// reports (n, true); otherwise it returns (0, false) immediately. It is
// the atomic alternative to the check_receive-then-message_receive pair,
// which the paper warns is racy for FCFS receivers ("another process
// with a FCFS receive connection may acquire the message before the
// checking process can receive the message").
func (f *Facility) TryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	n, ok, err := f.tryReceive(pid, id, buf)
	ev := Event{Op: OpTryReceive, PID: pid, LNVC: id, Err: err}
	if ok {
		ev.Bytes = n
	}
	f.trace(ev)
	return n, ok, err
}

func (f *Facility) tryReceive(pid int, id ID, buf []byte) (int, bool, error) {
	l, m, ok, err := f.tryClaim(pid, id)
	if err != nil || !ok {
		return 0, false, err
	}

	n := f.pool.Extract(m, buf)
	f.stats.payloadCopiesOut.Add(1)

	f.unpin(l, m)

	f.stats.receives.Add(1)
	f.stats.bytesRecvd.Add(uint64(n))
	return n, true, nil
}

// tryClaim is waitClaim's non-blocking form: if a message is deliverable
// it is claimed and pinned (the caller owes one unpin) and ok is true;
// otherwise ok is false.
func (f *Facility) tryClaim(pid int, id ID) (*lnvc, *msg.Message, bool, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, nil, false, err
	}
	if f.stopped.Load() {
		return nil, nil, false, ErrShutdown
	}
	l, err := f.lookup(id)
	if err != nil {
		return nil, nil, false, err
	}
	l.lock.Lock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		l.lock.Unlock()
		return nil, nil, false, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	m := l.availableLocked(d)
	if m == nil {
		l.lock.Unlock()
		return nil, nil, false, nil
	}
	l.claimLocked(d, m)
	l.lock.Unlock()
	return l, m, true, nil
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
	if err := f.checkPID(pid); err != nil {
		return false, err
	}
	l, err := f.lookup(id)
	if err != nil {
		return false, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	d := l.recvs[pid]
	if f.slots[id].Load() != l || d == nil {
		return false, fmt.Errorf("%w: receive on id %d by process %d", ErrNotConnected, id, pid)
	}
	f.stats.checks.Add(1)
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
	// is safe (arena lock is a leaf in the lock order). The whole scan's
	// victims go back in one free-pool transaction — a batched receive's
	// reclaim costs one arena lock acquisition however many messages it
	// retired.
	f.pool.ReleaseBatch(victims)
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
	}
	if l.fcfsHead != nil {
		info.FCFSHeadSeq = l.fcfsHead.Seq
	}
	for pid := range l.sends {
		info.SenderPIDs = append(info.SenderPIDs, pid)
	}
	for pid, d := range l.recvs {
		info.ReceiverPIDs = append(info.ReceiverPIDs, pid)
		info.ReceiverProto[pid] = d.proto
	}
	return info, nil
}
