package mpf

// The end of an incarnation, and the respawn supervisor (DESIGN.md
// §17).
//
// A child that dies mid-protocol strands four kinds of state: its table
// slot, the records queued in its rings, the views/loans its bridge
// holds pinned, and (under WithCredit) the credit blocks debited for
// its in-flight messages. Because the serving process owns the
// allocator and every descriptor (children are raw segment peers), all
// of that state is reachable from the parent, and the teardown is a
// parent-side walk over the server's own ring handles and its own
// record of the slot (bridgeState) — nothing it reads is a word a child
// can write. A clean finish ends an incarnation through the same walk
// (end):
//
//	read the bridge circuit's queued messages and credit
//	→ move the slot's phase to free, so every probe bound to the
//	  incarnation fires, and post free|gen in the slot word
//	→ close the rings (wakes any bridge op parked on them)
//	→ drain both rings, discarding the ended generation's records
//	→ close the bridge's circuit connections (the facility's
//	  orphan-restore path releases pinned state and refunds credit)
//	→ reformat the rings
//
// all under the slot's mutex, so the next incarnation cannot begin
// until the rings are fresh. Pins and credit are restored before the
// rings are reformatted, so no record that could still name a pinned
// window survives.
//
// Supervise drives reclaims from one detection path: the child exits
// its exec group already waits on (proc.ExecGroup.WatchDeaths). Which
// child held a slot is the server's own knowledge — it handed child i
// slot i — and so is whether the slot's incarnation is live. With a
// respawn budget the supervisor then restarts crashed children into
// their reclaimed slots with backoff.

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/shm"
)

// ReclaimReport describes one completed dead-peer reclamation.
type ReclaimReport struct {
	Slot int
	// Gen is the incarnation that was reclaimed.
	Gen uint32
	// Pid is the exited child's pid when the supervisor reclaimed the
	// slot; 0 for a reclaim the caller started (ReclaimSlot).
	Pid uint32
	// Views counts in-flight payload records discarded from the rings
	// (VIEW/LOAN windows the dead child would have consumed) plus the
	// messages queued on the bridge's circuit as the reclaim began.
	Views uint64
	// Credits counts the credit blocks the bridge's circuit held as the
	// reclaim began, all of which the reclaim returns to the ledger.
	// They are read before the incarnation's phase moves: a bridge call
	// parked on the corpse wakes at the move and refunds what it held
	// itself.
	Credits uint64
	// Elapsed is death-detection-to-slot-free latency.
	Elapsed time.Duration
}

// ReclaimSlot tears down the named incarnation of a slot after its
// owner died. The caller supplies the generation it observed when it
// decided the owner was dead; if that incarnation is not the slot's live
// one (it already ended, or a newer one began), ReclaimSlot reports
// false without touching anything. On success the slot is free again,
// the rings are freshly formatted, every view the bridge held is
// released, the credit ledger is refunded, and the facility's
// PeerDeaths/ReclaimedViews/ReclaimedCredits/ReclaimLatency counters
// and the peer_reclaim trace op record the event.
func (s *ProcServer) ReclaimSlot(slot int, gen uint32) (ReclaimReport, bool) {
	return s.reclaim(slot, phaseLive, gen, 0)
}

// reclaim is end from phase plus the death's report and counters, with
// pid as the dead peer's.
func (s *ProcServer) reclaim(slot int, phase, gen uint32, pid int) (ReclaimReport, bool) {
	start := time.Now()
	rep, ok := s.end(slot, phase, gen)
	if !ok {
		return ReclaimReport{}, false
	}
	rep.Slot, rep.Gen, rep.Pid, rep.Elapsed = slot, gen, uint32(pid), time.Since(start)
	s.fac.c.NotePeerReclaim(pid, rep.Views, rep.Credits, rep.Elapsed)
	return rep, true
}

// end is the one teardown of an incarnation, for a death and for a
// finish (the walk in the file comment). It acts only on incarnation
// gen of slot in phase from, reporting false otherwise. The ledger is
// read before the phase moves: a bridge call parked on the incarnation
// wakes at the move and refunds what it held itself. The report's Views
// and Credits are filled in; the rest is reclaim's.
func (s *ProcServer) end(slot int, from, gen uint32) (rep ReclaimReport, ok bool) {
	b := &s.bridges[slot]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state.Load() != from|gen<<genShift {
		return rep, false
	}
	c := b.conn
	if info, err := s.fac.c.LNVCInfo(c.recv.ID()); err == nil {
		rep.Credits, rep.Views = uint64(info.CreditUsed), uint64(info.QueuedMsgs)
	}
	b.state.Store(phaseFree | gen<<genShift)
	s.table.SetSlot(slot, core.SlotFree, gen)
	down, up := s.table.Rings(slot)
	down.Close()
	up.Close()
	rep.Views += drainDead(down, gen) + drainDead(up, gen)
	c.closeCircuit()
	s.table.ReformatRings(slot)
	return rep, true
}

// drainDead empties a closed ring, counting the dead generation's
// payload-bearing records (VIEW and LOAN kinds — the in-flight windows
// the dead peer will never consume).
func drainDead(r *shm.XRing, gen uint32) uint64 {
	var n uint64
	for {
		rec, ok, err := r.TryPop()
		if err != nil || !ok {
			return n
		}
		if k := xtagKind(rec.Tag); xtagGen(rec.Tag) == uint8(gen) && (k == XTagView || k == XTagLoan) {
			n++
		}
	}
}

// SuperviseConfig parameterises the crash supervisor.
type SuperviseConfig struct {
	// Respawn is the per-slot respawn budget: how many times a crashed
	// child may be restarted into its reclaimed slot. 0 reaps and
	// reclaims but never restarts.
	Respawn int
	// Backoff is the delay before the first respawn of a slot, doubling
	// on each subsequent respawn of the same slot (default 10ms).
	Backoff time.Duration
	// RespawnEnv, when non-nil, supplies the extra environment for the
	// attempt'th respawn of slot (attempt counts from 1). Nil inherits
	// the group's per-child environment — note that re-arming the same
	// crash fault point would crash the replacement identically; chaos
	// tests pass a clean environment here.
	RespawnEnv func(slot, attempt int) []string
	// OnDeath, when non-nil, observes every reclaim the supervisor
	// performs. OnRespawn observes every successful restart.
	OnDeath   func(ReclaimReport)
	OnRespawn func(slot, attempt int)
}

// Supervisor watches an exec group's children for deaths, reclaims
// dead incarnations, and optionally respawns.
type Supervisor struct {
	s   *ProcServer
	g   *proc.ExecGroup
	cfg SuperviseConfig

	// mu guards attempts and stopped. It is a leaf: nothing is locked
	// while it is held (DESIGN.md §16).
	mu       sync.Mutex
	attempts map[int]int // slot → respawns performed
	stopped  bool
	stopC    chan struct{}
	watchOff func()
}

// Supervise starts a supervisor over the group's children, whose
// slots are their ranks (Spawn). Stop the supervisor before closing
// the server.
func (s *ProcServer) Supervise(g *proc.ExecGroup, cfg SuperviseConfig) *Supervisor {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	sup := &Supervisor{
		s:        s,
		g:        g,
		cfg:      cfg,
		attempts: make(map[int]int),
		stopC:    make(chan struct{}),
	}
	sup.watchOff = g.WatchDeaths(sup.onChildExit)
	return sup
}

// Stop halts death watching and respawning. Already-running reclaims
// complete.
func (sup *Supervisor) Stop() {
	sup.mu.Lock()
	if sup.stopped {
		sup.mu.Unlock()
		return
	}
	sup.stopped = true
	sup.mu.Unlock()
	close(sup.stopC)
	sup.watchOff()
}

// onChildExit handles an observed child exit: if the exited child is
// still the group's incarnation at its rank — the only process handed
// that slot while it lived — and the server's record shows the slot's
// incarnation live, that incarnation is reclaimed, and the child is
// respawned if budget remains. A clean exit after FinishSlot finds the
// slot finishing or free, reclaims nothing and does not consume
// respawn budget.
func (sup *Supervisor) onChildExit(ch *proc.Child) {
	slot := ch.Index
	crashed := ch.Err() != nil
	if w := sup.s.bridges[slot].state.Load(); w&phaseMask == phaseLive && sup.g.Child(slot) == ch {
		// Died while live: before mapping, mid-traffic, or before the
		// done record. Bound to the generation read here, so a reclaim
		// that loses a race with another end does nothing.
		if rep, ok := sup.s.reclaim(slot, phaseLive, w>>genShift, ch.Pid()); ok {
			crashed = true
			if sup.cfg.OnDeath != nil {
				sup.cfg.OnDeath(rep)
			}
		}
	}
	if crashed {
		sup.respawn(slot)
	}
}

// respawn restarts a crashed child into its (reclaimed) slot if budget
// remains, with per-slot exponential backoff.
func (sup *Supervisor) respawn(slot int) {
	if sup.cfg.Respawn <= 0 {
		return
	}
	sup.mu.Lock()
	attempt := sup.attempts[slot] + 1
	if sup.stopped || attempt > sup.cfg.Respawn {
		sup.mu.Unlock()
		return
	}
	sup.attempts[slot] = attempt
	sup.mu.Unlock()

	backoff := sup.cfg.Backoff << (attempt - 1)
	select {
	case <-time.After(backoff):
	case <-sup.stopC:
		return
	}
	var env []string
	if sup.cfg.RespawnEnv != nil {
		env = sup.cfg.RespawnEnv(slot, attempt)
	} else {
		env = []string{} // non-nil: do NOT re-inherit armed fault points
	}
	nc, err := sup.g.Respawn(slot, env)
	if err != nil {
		return
	}
	if err := sup.s.SendSegmentTo(nc.Conn, slot); err != nil {
		return
	}
	if sup.cfg.OnRespawn != nil {
		sup.cfg.OnRespawn(slot, attempt)
	}
}
