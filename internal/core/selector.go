package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/spinlock"
)

// ErrSelectorClosed is returned by operations on a closed Selector.
var ErrSelectorClosed = errors.New("mpf: selector closed")

// Selector multiplexes many receive connections of one process over a
// single wait, epoll-style. Registered circuits push their identifier
// onto the selector's ready list when a message is enqueued (or the
// circuit is torn down), so a Wait wakes only when one of *its*
// circuits fires and does O(ready) work per wakeup — not O(registered),
// and not one wakeup per Send anywhere in the facility like the global
// activity pulse this replaces.
//
// Readiness is level-triggered: a circuit Wait reports stays armed and
// is reported again by subsequent Waits until a harvest observes it
// drained, so partial consumption cannot strand queued messages. For
// FCFS connections readiness is also advisory, in exactly the sense of
// the paper's check_receive caveat: a sibling FCFS receiver may claim
// the message between Wait returning and the caller receiving, so
// drain ready circuits with TryReceive, never a blocking Receive.
//
// A Selector belongs to one process id. Like a Process, it must not be
// used from two goroutines at once, except for Close, which may be
// called from anywhere to abort a parked Wait.
type Selector struct {
	f   *Facility
	pid int

	// notify is the parked Wait's wakeup; capacity 1, so a fire during
	// the harvest phase is retained and the next park returns
	// immediately. w is the single registration entry shared by every
	// circuit this selector watches.
	notify chan struct{}
	w      *muxWaiter

	// The pad pushes mu and the ready-list head it guards onto their
	// own cache lines: every markReady — called from *senders*, under
	// the firing circuit's lock — spins on mu and appends to ready,
	// and without the pad those words share a line with the fields the
	// parked owner reads on its wakeup path. Asserted by
	// TestHotWordLayout.
	_ [32]byte

	// mu guards the fields below. Lock order: shard lock → LNVC lock →
	// mu (markReady runs under the firing LNVC's lock), so Selector
	// methods must never acquire an LNVC lock while holding mu.
	mu      spinlock.TAS
	regs    map[ID]selReg
	ready   []ID // circuits fired since the last harvest, deduplicated
	inReady map[ID]bool
	closed  bool

	// deadErr is a circuit death observed by a HarvestViews round that
	// had already claimed views: the views were returned first and the
	// error is surfaced by the next wait or harvest call (the dead
	// registration is already dropped). Owner-goroutine state, like a
	// wait round itself — never touched by Close.
	deadErr error

	// Adaptive-harvest state (Config.AutoHarvestMin/Max): an EWMA of
	// the per-round harvest yield, the budget the last auto round ran
	// with, and whether that round consumed it entirely (in which case
	// the observed yield is censored at the budget and the next round
	// probes upward). Owner-goroutine state, like deadErr.
	ewmaDepth  float64
	lastBudget int
	lastFilled bool

	// A wait round's scratch, reused across rounds so that a round
	// allocates only what it returns: the registrations that fired, the
	// messages claimed from them (in fired's order) and the circuits left
	// with traffic. Owner-goroutine state.
	fired []firedReg
	run   []*msg.Message
	armed []ID
}

// selReg pins a registration to one incarnation of one descriptor: l
// is the descriptor the waiter entry was placed on and gen its
// generation at registration time. A harvest that finds either changed
// is looking at a recycled descriptor, not the registered circuit.
type selReg struct {
	l   *lnvc
	gen uint64
}

// NewSelector creates a selector for pid's receive connections.
func (f *Facility) NewSelector(pid int) (*Selector, error) {
	if err := f.checkPID(pid); err != nil {
		return nil, err
	}
	s := &Selector{
		f:       f,
		pid:     pid,
		notify:  make(chan struct{}, 1),
		regs:    make(map[ID]selReg),
		inReady: make(map[ID]bool),
	}
	s.w = &muxWaiter{sel: s}
	return s, nil
}

// markReady records that circuit id fired and wakes a parked Wait.
// Called under the firing LNVC's lock. A fire for a circuit that is no
// longer registered — a recycled descriptor carrying a stale
// registration the owner has not yet removed — is dropped here, which
// is what makes descriptor recycling safe for selectors.
func (s *Selector) markReady(id ID) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, ok := s.regs[id]; !ok {
		s.mu.Unlock()
		return
	}
	s.markReadyLockedMu(id)
	s.mu.Unlock()
	s.tapNotify()
}

// markReadyLockedMu queues id for the next harvest; caller holds mu
// and has checked regs/closed.
func (s *Selector) markReadyLockedMu(id ID) {
	if !s.inReady[id] {
		s.inReady[id] = true
		s.ready = append(s.ready, id)
	}
}

func (s *Selector) tapNotify() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Add registers a circuit; pid must hold a receive connection on it. A
// circuit with a message already available is immediately ready. The
// whole registration happens under the circuit's lock, so it cannot
// interleave with a concurrent Close (which must take the same lock to
// unregister) — Close either sees the registration and removes it, or
// arrives first and makes Add fail with ErrSelectorClosed.
func (s *Selector) Add(id ID) error {
	l, d, err := s.f.lockRecv(s.pid, id)
	if err != nil {
		return err
	}
	var stale selReg
	avail := l.availableLocked(d) != nil
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.lock.Unlock()
		return ErrSelectorClosed
	}
	if old, dup := s.regs[id]; dup {
		if old.l == l && old.gen == l.gen {
			s.mu.Unlock()
			l.lock.Unlock()
			return fmt.Errorf("%w: circuit %d already in selector", ErrAlreadyOpen, id)
		}
		// A previous circuit died and its id was recycled to this new
		// one before the owner noticed: replace the dead registration
		// (its waiter entry is cleaned up below, outside l's lock).
		stale = old
		delete(s.inReady, id)
	}
	s.regs[id] = selReg{l: l, gen: l.gen}
	if avail {
		s.markReadyLockedMu(id)
	}
	s.mu.Unlock()
	l.addWaiterLocked(s.w)
	l.lock.Unlock()
	if stale.l != nil {
		s.unregister(stale)
	}
	if avail {
		s.tapNotify()
	}
	return nil
}

// unregister removes reg's waiter entry from its descriptor — unless
// the descriptor has been recycled since the registration was made
// (generation mismatch): reset already cleared the stale entry then,
// and any s.w now on the list belongs to a *newer* registration of
// this selector on the recycled descriptor, which identity-based
// removal would otherwise strip, permanently losing its wakeups.
func (s *Selector) unregister(reg selReg) {
	reg.l.lock.Lock()
	if reg.l.gen == reg.gen {
		reg.l.removeWaiterLocked(s.w)
	}
	reg.l.lock.Unlock()
}

// Remove unregisters a circuit. Messages queued on it stay queued; the
// connection itself is untouched.
func (s *Selector) Remove(id ID) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSelectorClosed
	}
	reg, ok := s.regs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: circuit %d not in selector", ErrNotConnected, id)
	}
	delete(s.regs, id)
	// The id may still sit in the ready slice; clearing inReady makes
	// the next harvest skip it.
	delete(s.inReady, id)
	s.mu.Unlock()

	s.unregister(reg)
	return nil
}

// Has reports whether id is currently registered.
func (s *Selector) Has(id ID) bool {
	s.mu.Lock()
	_, ok := s.regs[id]
	s.mu.Unlock()
	return ok
}

// Circuits returns the currently registered circuit ids, snapshotted
// under a single lock hold — the bulk form of Has, so a caller
// reconciling its own table (mpf.Selector's prune) does one pass
// instead of re-locking once per circuit.
func (s *Selector) Circuits() []ID {
	s.mu.Lock()
	out := make([]ID, 0, len(s.regs))
	for id := range s.regs {
		out = append(out, id)
	}
	s.mu.Unlock()
	return out
}

// Len returns the number of registered circuits.
func (s *Selector) Len() int {
	s.mu.Lock()
	n := len(s.regs)
	s.mu.Unlock()
	return n
}

// Close unregisters every circuit, wakes a parked Wait, and makes all
// further operations fail with ErrSelectorClosed. Idempotent.
func (s *Selector) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	regs := make([]selReg, 0, len(s.regs))
	for _, reg := range s.regs {
		regs = append(regs, reg)
	}
	clear(s.regs)
	clear(s.inReady)
	s.ready = nil
	s.mu.Unlock()
	for _, reg := range regs {
		s.unregister(reg)
	}
	s.tapNotify()
	return nil
}

// Wait blocks until at least one registered circuit has a deliverable
// message for this process, then returns the ready circuits' ids. If a
// registered circuit's receive connection is closed — or the circuit
// deleted — while waiting, Wait drops that registration and returns
// ErrNotConnected rather than parking forever (other circuits'
// readiness is retained for the next Wait); facility Shutdown returns
// ErrShutdown, and Close returns ErrSelectorClosed.
func (s *Selector) Wait() ([]ID, error) {
	ids, _, err := s.rounds(false, 0, time.Time{})
	return ids, err
}

// WaitDeadline is Wait bounded by d; it returns ErrTimeout if no
// circuit becomes ready in time.
func (s *Selector) WaitDeadline(d time.Duration) ([]ID, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return nil, err
	}
	ids, _, err := s.rounds(false, 0, deadline)
	return ids, err
}

// firedReg is a registration whose circuit fired, with the number of
// messages the round claimed from it.
type firedReg struct {
	id ID
	selReg
	n int
}

// collectFired drains the deduplicated ready list into s.fired,
// returning the registrations to inspect this round. It fails on a
// closed or empty selector.
func (s *Selector) collectFired() ([]firedReg, error) {
	fired := s.fired[:0]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSelectorClosed
	}
	if len(s.regs) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: Wait on a selector with no circuits", ErrBadLNVC)
	}
	for _, id := range s.ready {
		if !s.inReady[id] {
			continue // removed since it fired
		}
		delete(s.inReady, id)
		if reg, ok := s.regs[id]; ok {
			fired = append(fired, firedReg{id: id, selReg: reg})
		}
	}
	s.ready = s.ready[:0]
	s.mu.Unlock()
	s.fired = fired
	return fired, nil
}

// takeDeadErr surfaces a circuit death a previous harvest round
// deferred (views first, error next call).
func (s *Selector) takeDeadErr() error {
	err := s.deadErr
	s.deadErr = nil
	return err
}

// remarkReady re-queues still-registered circuits for the next
// harvest.
func (s *Selector) remarkReady(ids []ID) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	if !s.closed {
		for _, id := range ids {
			if _, ok := s.regs[id]; ok {
				s.markReadyLockedMu(id)
			}
		}
	}
	s.mu.Unlock()
}

// dropReg removes a registration whose circuit died while parked.
func (s *Selector) dropReg(id ID, reg selReg) {
	s.mu.Lock()
	if s.regs[id] == reg {
		delete(s.regs, id)
		delete(s.inReady, id)
	}
	s.mu.Unlock()
	s.unregister(reg)
}

// HarvestViews blocks like Wait, but instead of reporting ready
// circuit ids it drains them into pinned zero-copy Views inside the
// same round: each ready circuit is locked once and up to the
// remaining budget of deliverable messages is claimed under that one
// hold — where the Wait + TryReceiveView idiom re-resolves the
// registry and re-locks the circuit once per message. max bounds the
// views claimed per call (at least 1 is returned when any circuit has
// traffic); views arrive grouped by circuit, in each circuit's FIFO
// order, with Circuit() attributing each. The claims are exactly
// TryReceiveView's — FCFS claims are atomic, so sibling receivers
// cannot double-consume, and every view holds a pin until Release (or
// a batched ReleaseViews, which undoes a harvest's pins with one lock
// acquisition per circuit).
//
// A non-positive max selects the adaptive budget when the facility was
// configured with AutoHarvestMin/Max (otherwise it is an error): each
// round is sized from an EWMA of recent harvest yields, clamped to the
// configured window and probed upward after a round that filled its
// budget, and the round's budget is split evenly across the circuits
// that fired (never below one message each) so a hot circuit cannot
// consume the whole round while ready siblings starve — the cap's
// truncations are counted in Stats.HarvestCapHits, the budget itself
// in the Stats.HarvestAutoBudget gauge. A positive max keeps the
// historical fixed-budget greedy sweep.
//
// A circuit left with traffic by the budget stays armed and is
// harvested by the next call — the same level-trigger Wait gives
// partially drained circuits. Error behaviour matches Wait:
// ErrNotConnected when a registered circuit died while parked (any
// views already claimed that round are returned first — the error
// surfaces on the next call), ErrShutdown, ErrSelectorClosed,
// ErrTimeout from the deadline variant.
func (s *Selector) HarvestViews(max int) ([]*View, error) {
	_, vs, err := s.rounds(true, max, time.Time{})
	s.traceHarvest(vs, err)
	return vs, err
}

// HarvestViewsDeadline is HarvestViews bounded by d; it returns
// ErrTimeout if no circuit delivers in time.
func (s *Selector) HarvestViewsDeadline(max int, d time.Duration) ([]*View, error) {
	deadline, err := deadlineAfter(d)
	if err != nil {
		return nil, err
	}
	_, vs, err := s.rounds(true, max, deadline)
	s.traceHarvest(vs, err)
	return vs, err
}

// harvestEWMAAlpha weights the newest round's yield in the adaptive
// budget's moving average: 1/4 new, 3/4 history — fast enough to track
// an MMPP-style on/off burst within a few rounds, smooth enough not to
// collapse the budget on one quiet round.
const harvestEWMAAlpha = 0.25

// nextAutoBudget sizes an auto-mode round: the yield EWMA rounded up,
// doubled as an upward probe when the previous round consumed its
// whole budget (the observation is censored at the budget, so the true
// depth may be anything above it), clamped to the configured window.
// The budget is owner state; the facility-wide HarvestAutoBudget gauge is
// written only when it changes, not once a round.
func (s *Selector) nextAutoBudget() int {
	lo, hi := s.f.cfg.AutoHarvestMin, s.f.cfg.AutoHarvestMax
	b := int(s.ewmaDepth) + 1
	if s.lastFilled && b < s.lastBudget*2 {
		b = s.lastBudget * 2
	}
	if b < lo {
		b = lo
	}
	if b > hi {
		b = hi
	}
	if b != s.lastBudget {
		s.lastBudget = b
		s.f.stats.harvestAutoBudget.Store(uint64(b))
	}
	return b
}

// observeHarvest folds one auto round's yield into the EWMA. Called
// only for rounds that had fired circuits, so pure spurious wakeups do
// not decay the depth estimate.
func (s *Selector) observeHarvest(claimed, budget int) {
	s.ewmaDepth = (1-harvestEWMAAlpha)*s.ewmaDepth + harvestEWMAAlpha*float64(claimed)
	s.lastFilled = claimed >= budget
}

func (s *Selector) traceHarvest(vs []*View, err error) {
	total := 0
	for _, v := range vs {
		total += v.Len()
	}
	s.f.trace(Event{Op: OpHarvestViews, PID: s.pid, Bytes: total, Err: err})
}

// rounds is the selector's one wait loop, behind Wait (claim false) and
// HarvestViews (claim true, max its budget). A round inspects only the
// circuits that fired since the last one — O(ready) work per wakeup —
// and a claiming round drains them into views where a reporting round
// claims nothing and returns the ids of those with a deliverable
// message. Rounds repeat, parking in between, until one has something
// to return.
func (s *Selector) rounds(claim bool, max int, deadline time.Time) ([]ID, []*View, error) {
	auto := claim && max < 1
	if auto && s.f.cfg.AutoHarvestMax < 1 {
		return nil, nil, fmt.Errorf("core: HarvestViews with budget %d (auto-harvest not configured)", max)
	}
	if err := s.takeDeadErr(); err != nil {
		return nil, nil, err
	}
	f := s.f
	woken := false
	for {
		if f.stopped.Load() {
			return nil, nil, ErrShutdown
		}
		fired, err := s.collectFired()
		if err != nil {
			return nil, nil, err
		}
		if auto {
			max = s.nextAutoBudget()
		}
		// The fairness cap (auto mode only): split the round's budget
		// evenly across the circuits that fired, so one hot circuit
		// cannot consume the whole round while ready siblings sit
		// armed but unserved. Fixed-budget mode keeps the historical
		// greedy sweep — which is exactly what the tuning ablation
		// measures against.
		perCircuit := max
		if auto && len(fired) > 1 {
			perCircuit = max / len(fired)
			if perCircuit < 1 {
				perCircuit = 1
			}
		}

		run := s.run[:0]
		armed := s.armed[:0] // circuits this round leaves with traffic
		var dead error
		for i := range fired {
			fr := &fired[i]
			if claim && len(run) >= max {
				// Budget exhausted before this circuit was even looked
				// at: keep it armed, untouched, for the next call.
				armed = append(armed, fr.id)
				continue
			}
			fr.l.lock.Lock()
			d := fr.l.recvs[s.pid]
			// The generation check rejects a descriptor — and id —
			// recycled to a new circuit: the registered circuit is gone
			// even though the slot and connection test would pass
			// against its successor.
			if f.slots[fr.id].Load() != fr.l || fr.l.gen != fr.gen || d == nil {
				// Closed under a parked selector: drop the dead
				// registration so later rounds can proceed, and report.
				fr.l.lock.Unlock()
				s.dropReg(fr.id, fr.selReg)
				dead = fmt.Errorf("%w: circuit %d closed while in selector", ErrNotConnected, fr.id)
				continue
			}
			// Claim everything deliverable (up to the budget and the
			// fairness cap) under this one lock hold — the whole point
			// of the harvest. A reporting round's budget is zero: it
			// only learns whether anything is deliverable.
			budget := 0
			if claim {
				budget = min(max-len(run), perCircuit)
			}
			before := len(run)
			var more bool
			var bytes uint64
			run, bytes, more = fr.l.claimRunLocked(d, fr.l.availableLocked(d), run, budget)
			fr.n = len(run) - before
			if fr.n > 0 {
				// The harvest is counted on the connection, under the
				// hold that made it.
				n := uint64(fr.n)
				d.rx.msgs += n
				d.rx.bytes += bytes
				d.rx.harvested += n
			}
			fr.l.lock.Unlock()
			if more {
				if claim && fr.n >= perCircuit && perCircuit < max {
					f.stats.harvestCapHits.Add(1)
				}
				armed = append(armed, fr.id)
			}
		}
		s.run, s.armed = run, armed
		// The round's views: one []View and one slice of pointers into
		// it, both exactly as long as the claims — two allocations a
		// round, made after the last unlock (the claims already pinned
		// every message).
		var out []*View
		if len(run) > 0 {
			vs := make([]View, len(run))
			out = make([]*View, len(run))
			k := 0
			for _, fr := range fired {
				for end := k + fr.n; k < end; k++ {
					vs[k] = View{f: f, l: fr.l, m: run[k], id: fr.id}
					out[k] = &vs[k]
				}
			}
		}
		if auto && len(fired) > 0 {
			s.observeHarvest(len(out), max)
		}
		if woken {
			f.stats.muxWakeups.Add(1)
			if len(out) == 0 && len(armed) == 0 && dead == nil {
				f.stats.muxSpurious.Add(1)
			}
			woken = false
		}
		// Level-trigger: every circuit left with traffic — reported
		// ready, or cut short by the budget or the cap — goes back on the
		// ready list until a later round observes it drained, so a
		// caller that consumes only part of a circuit's queue (or none
		// of it, when the error below preempts the results) sees it
		// again instead of parking over deliverable messages. No notify
		// tap is needed: the next call runs a round before it can park.
		s.remarkReady(armed)
		if len(out) > 0 {
			// A circuit death observed this round is deferred, not
			// dropped: claimed views are never discarded, so the error
			// is stashed for the next wait/harvest call to return (the
			// registration is already gone — nothing would re-fire it).
			s.deadErr = dead
			return nil, out, nil
		}
		if dead != nil {
			return nil, nil, dead
		}
		if len(armed) > 0 {
			// Only a reporting round gets here: a claiming round that
			// left a circuit armed claimed from it or before it. The ids
			// are the caller's to keep; armed is the next round's scratch.
			return append([]ID(nil), armed...), nil, nil
		}

		ok, err := parkWait(s.notify, f.stop, deadline)
		if err != nil {
			return nil, nil, err
		}
		woken = ok
	}
}
