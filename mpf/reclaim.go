package mpf

// Dead-peer reclamation and the respawn supervisor (DESIGN.md §17).
//
// A child that dies mid-protocol strands four kinds of state: its
// table slot, the records queued in its rings, the views/loans its
// bridge holds pinned, and (under WithCredit) the credit blocks
// debited for its in-flight messages. Because the serving process owns
// the allocator and every descriptor (children are raw segment peers),
// all of that state is reachable from the parent, and reclamation is a
// parent-side walk over the server's own ring handles — no ring offset
// is read from the segment, so a dead child's slot words cannot aim the
// walk at another slot (DESIGN.md §17 lists the segment words the
// server still trusts):
//
//	read the bridge circuit's queued messages and credit
//	→ mark the slot dead (generation-bound CAS — a stale death can
//	  never get a live newcomer reclaimed)
//	→ close the rings (wakes any bridge op parked on the corpse)
//	→ drain both rings, discarding the dead generation's records
//	→ close the bridge's circuit connections (the facility's
//	  orphan-restore path releases pinned state and refunds credit)
//	→ reformat the rings
//	→ CAS the slot back to free
//
// The ordering matters: pins and credit are restored before the rings
// are reformatted so no record that could still name a pinned window
// survives the reclaim, and the slot is freed last so no new claimant
// can arrive while its rings still hold a dead incarnation's records.
//
// Supervise drives the reclaim from one detection path: the child exits
// its exec group already waits on (proc.ExecGroup.WatchDeaths). Which
// child held a slot is the server's own knowledge — it handed child i
// slot i — so no word a child can write decides whether its slot is
// reclaimed. With a respawn budget it then restarts crashed children
// into their reclaimed slots with backoff.

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
	// Gen is the attach generation that was reclaimed.
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
	// They are read before the slot is marked dead: a bridge call parked
	// on the corpse wakes at the mark and refunds what it held itself.
	Credits uint64
	// Elapsed is death-detection-to-slot-free latency.
	Elapsed time.Duration
}

// ReclaimSlot tears down the named incarnation of a slot after its
// owner died. The caller supplies the generation it observed when it
// decided the owner was dead; if the slot has since moved on (owner
// detached, new peer claimed), the generation-bound CAS fails and
// ReclaimSlot reports false without touching anything. On success the
// slot is free again, the rings are freshly formatted, every view the
// bridge held is released, the credit ledger is refunded, and the
// facility's PeerDeaths/ReclaimedViews/ReclaimedCredits/ReclaimLatency
// counters and the peer_reclaim trace op record the event.
func (s *ProcServer) ReclaimSlot(slot int, gen uint32) (ReclaimReport, bool) {
	return s.reclaim(slot, gen, 0)
}

// reclaim is ReclaimSlot reporting pid as the dead peer's.
func (s *ProcServer) reclaim(slot int, gen uint32, pid int) (ReclaimReport, bool) {
	start := time.Now()
	rep := ReclaimReport{Slot: slot, Gen: gen, Pid: uint32(pid)}

	// Snapshot the circuit's ledger while the bridge is still parked on
	// the live-looking slot, so the refund is attributable to this
	// death; then mark the slot dead and detach the bridge state, so
	// future bridge() calls bind to the next incarnation. The snapshot
	// is ours to tear down.
	b := &s.bridges[slot]
	b.mu.Lock()
	conn := b.conn
	if conn.recv != nil {
		if info, err := s.fac.c.LNVCInfo(conn.recv.ID()); err == nil {
			rep.Credits = uint64(info.CreditUsed)
			rep.Views = uint64(info.QueuedMsgs)
		}
	}
	if !s.table.MarkDead(slot, gen) {
		b.mu.Unlock()
		return ReclaimReport{}, false
	}
	b.conn = bridgeConn{}
	b.mu.Unlock()

	// Close first: any bridge goroutine parked on a ring wakes with
	// ErrRingClosed right now instead of waiting out its deadline, and
	// no new record can land while we drain.
	down, up := s.table.Rings(slot)
	down.Close()
	up.Close()
	rep.Views += drainDead(down, gen) + drainDead(up, gen)

	// Closing the bridge's circuit connections runs the facility's own
	// teardown: queued messages are discarded through the normal
	// reclaim path (restoring their blocks and credit), pinned state is
	// orphan-restored.
	conn.closeCircuit()

	// Fresh rings for the next claimant, then — and only then — the
	// slot itself returns to the pool.
	s.table.ReformatRings(slot)
	if !s.table.FreeSlot(slot, gen) {
		return rep, false
	}
	rep.Elapsed = time.Since(start)
	s.fac.c.NotePeerReclaim(pid, rep.Views, rep.Credits, rep.Elapsed)
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
		if xtagGen(rec.Tag) != uint8(gen) {
			continue
		}
		switch xtagKind(rec.Tag) {
		case XTagView, XTagLoan:
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
// that slot while it lived — and the slot is attached, the attached
// incarnation is reclaimed, and the child is respawned if budget
// remains. A clean exit after detach reclaims nothing (the slot is
// already detached) and does not consume respawn budget.
func (sup *Supervisor) onChildExit(ch *proc.Child) {
	slot := ch.Index
	st, gen := sup.s.table.SlotStateGen(slot)
	crashed := ch.Err() != nil
	if st == core.SlotAttached && sup.g.Child(slot) == ch {
		// Died while attached: mid-claim, mid-traffic, or just before
		// detach. Generation-bound, so if this races a detach+reclaim
		// by a new peer the CAS inside reclaim fails harmlessly.
		if rep, ok := sup.s.reclaim(slot, gen, ch.Pid()); ok {
			crashed = true
			if sup.cfg.OnDeath != nil {
				sup.cfg.OnDeath(rep)
			}
		}
	}
	if !crashed {
		return
	}
	sup.respawn(slot)
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
