package mpf

// Dead-peer reclamation and the respawn supervisor (DESIGN.md §17).
//
// A child that dies mid-protocol strands four kinds of state: its
// table slot, the records queued in its rings, the views/loans its
// bridge holds pinned, and (under WithCredit) the credit blocks
// debited for its in-flight messages. Because the serving process owns
// the allocator and every descriptor (children are raw segment peers),
// all of that state is reachable from the parent — the blast radius of
// a child crash is bounded by construction, and reclamation is a
// parent-side walk:
//
//	mark the slot dead (generation-bound CAS — a recycled pid can
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
// Supervise drives ReclaimSlot from two detection paths: child exits
// observed via proc.ExecGroup.WatchDeaths (immediate), and a periodic
// kill(pid, 0) probe of slot owners for peers the parent did not spawn
// (or whose exits it somehow missed). With a respawn budget it then
// restarts crashed children into their reclaimed slots with backoff.

import (
	"fmt"
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
	// Pid is the pid the dead incarnation had claimed the slot with.
	Pid uint32
	// Views counts in-flight payload records discarded from the rings
	// (VIEW/LOAN windows the dead child would have consumed) plus
	// queued circuit messages restored by closing the bridge receiver.
	Views uint64
	// Credits counts credit blocks refunded to the circuit ledger.
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
	start := time.Now()
	pid := s.table.SlotPid(slot)
	if !s.table.MarkDead(slot, gen) {
		return ReclaimReport{}, false
	}
	rep := ReclaimReport{Slot: slot, Gen: gen, Pid: pid}

	// Detach the bridge state so future bridge() calls bind to the next
	// incarnation; the snapshot is ours to tear down.
	b := &s.bridges[slot]
	b.mu.Lock()
	conn := b.conn
	b.conn = bridgeConn{}
	b.mu.Unlock()
	down, up := conn.down, conn.up

	// The bridge may never have opened (death before first traffic);
	// the rings always exist in the table.
	var err error
	if down == nil {
		if down, err = s.table.DownRing(slot); err != nil {
			down = nil
		}
	}
	if up == nil {
		if up, err = s.table.UpRing(slot); err != nil {
			up = nil
		}
	}

	// Close first: any bridge goroutine parked on a ring wakes with
	// ErrRingClosed right now instead of waiting out its deadline, and
	// no new record can land while we drain.
	if down != nil {
		down.Close()
	}
	if up != nil {
		up.Close()
	}
	rep.Views += drainDead(down, gen)
	rep.Views += drainDead(up, gen)

	// Closing the bridge's circuit connections runs the facility's own
	// teardown: queued messages are discarded through the normal
	// reclaim path (restoring their blocks and credit), pinned state is
	// orphan-restored. Snapshot the ledger first so the refund is
	// attributable to this death.
	if conn.recv != nil {
		if info, ok := s.fac.Circuit(fmt.Sprintf("xproc-%d", slot)); ok {
			rep.Credits = uint64(info.CreditUsed)
			rep.Views += uint64(info.QueuedMsgs)
		}
	}
	conn.closeCircuit()

	// Fresh rings for the next claimant, then — and only then — the
	// slot itself returns to the pool.
	if err := s.table.ReformatRings(slot); err != nil {
		// The slot stays dead: better a permanently lost slot than a
		// claimant on corrupt rings. This cannot happen short of a
		// corrupted table header.
		return rep, false
	}
	if !s.table.FreeSlot(slot, gen) {
		return rep, false
	}
	rep.Elapsed = time.Since(start)
	s.fac.c.NotePeerReclaim(int(pid), rep.Views, rep.Credits, rep.Elapsed)
	return rep, true
}

// drainDead empties a closed ring, counting the dead generation's
// payload-bearing records (VIEW and LOAN kinds — the in-flight windows
// the dead peer will never consume).
func drainDead(r *shm.XRing, gen uint32) uint64 {
	if r == nil {
		return 0
	}
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
	// ProbeInterval is the period of the kill(pid, 0) liveness sweep
	// over attached slots (default 100ms; 0 keeps the default, negative
	// disables the sweep, leaving only exit-driven reaping).
	ProbeInterval time.Duration
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

// WithRespawn is the common SuperviseConfig: reap, reclaim, and
// restart each crashed child up to n times.
func WithRespawn(n int) SuperviseConfig { return SuperviseConfig{Respawn: n} }

// Supervisor watches an exec group's children (and the table's slots)
// for deaths, reclaims dead incarnations, and optionally respawns.
type Supervisor struct {
	s   *ProcServer
	g   *proc.ExecGroup
	cfg SuperviseConfig

	mu       sync.Mutex
	attempts map[int]int       // slot → respawns performed
	suspects map[int][2]uint32 // slot → (gen, pid) from last probe sweep
	stopped  bool
	stopC    chan struct{}
	watchOff func()
	wg       sync.WaitGroup
}

// Supervise starts a supervisor over the group's children. g may be
// nil for a probe-only reaper (peers the server did not spawn): then
// only the periodic liveness sweep runs and nothing is ever respawned.
// Stop the supervisor before closing the server.
func (s *ProcServer) Supervise(g *proc.ExecGroup, cfg SuperviseConfig) *Supervisor {
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	sup := &Supervisor{
		s:        s,
		g:        g,
		cfg:      cfg,
		attempts: make(map[int]int),
		suspects: make(map[int][2]uint32),
		stopC:    make(chan struct{}),
	}
	if g != nil {
		sup.watchOff = g.WatchDeaths(func(ch *proc.Child) { sup.onChildExit(ch) })
	}
	if cfg.ProbeInterval > 0 {
		sup.wg.Add(1)
		go sup.probeLoop()
	}
	return sup
}

// Stop halts death watching, probing and respawning. Already-running
// reclaims complete.
func (sup *Supervisor) Stop() {
	sup.mu.Lock()
	if sup.stopped {
		sup.mu.Unlock()
		return
	}
	sup.stopped = true
	sup.mu.Unlock()
	close(sup.stopC)
	if sup.watchOff != nil {
		sup.watchOff()
	}
	sup.wg.Wait()
}

// onChildExit handles an observed child exit: if the child's slot is
// still attached under the child's pid, its incarnation is reclaimed,
// and the child is respawned if budget remains. A clean exit after
// detach reclaims nothing (the slot is already detached) and does not
// consume respawn budget.
func (sup *Supervisor) onChildExit(ch *proc.Child) {
	slot := ch.Index
	st, gen := sup.s.table.SlotStateGen(slot)
	crashed := ch.Err() != nil
	if st == core.SlotAttached && sup.s.table.SlotPid(slot) == uint32(ch.Pid()) {
		// Died while attached: mid-claim, mid-traffic, or just before
		// detach. Generation-bound, so if this races a detach+reclaim
		// by a new peer the CAS inside ReclaimSlot fails harmlessly.
		if rep, ok := sup.s.ReclaimSlot(slot, gen); ok {
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
	if sup.g == nil || sup.cfg.Respawn <= 0 {
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

// probeLoop is the kill(pid, 0) sweep: any attached slot whose
// recorded owner pid is gone on two consecutive sweeps is reclaimed.
// The confirmation sweep closes the claim-time window in which a
// slot's state word is already attached but its pid field still holds
// the previous (possibly dead) owner's pid.
func (sup *Supervisor) probeLoop() {
	defer sup.wg.Done()
	ticker := time.NewTicker(sup.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sup.stopC:
			return
		case <-ticker.C:
		}
		for slot := 0; slot < sup.s.table.NSlots(); slot++ {
			st, gen := sup.s.table.SlotStateGen(slot)
			if st != core.SlotAttached {
				sup.clearSuspect(slot)
				continue
			}
			pid := sup.s.table.SlotPid(slot)
			if proc.Alive(int(pid)) {
				sup.clearSuspect(slot)
				continue
			}
			sup.mu.Lock()
			prev, suspected := sup.suspects[slot]
			sup.suspects[slot] = [2]uint32{gen, pid}
			sup.mu.Unlock()
			if !suspected || prev != [2]uint32{gen, pid} {
				continue // first sighting: confirm on the next sweep
			}
			sup.clearSuspect(slot)
			if rep, ok := sup.s.ReclaimSlot(slot, gen); ok {
				if sup.cfg.OnDeath != nil {
					sup.cfg.OnDeath(rep)
				}
				sup.respawn(slot)
			}
		}
	}
}

func (sup *Supervisor) clearSuspect(slot int) {
	sup.mu.Lock()
	delete(sup.suspects, slot)
	sup.mu.Unlock()
}
