//go:build linux && (amd64 || arm64)

package mpf

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
)

// The crash drill: the first victims of four forked children carry
// armed crash fault points (faultpoint.EnvVar in their environment) and
// die mid-protocol; the respawn supervisor detects the deaths, reclaims
// their slots — drains dead-generation ring records, restores pinned
// views, refunds credit — and restarts them, and the traffic through
// every slot completes. examples/procdemo -chaos runs the same drill as
// a program.

// TestCrashReclamation kills 2 of 4 children at armed fault points
// mid-traffic and requires that every death was detected, reclaimed and
// respawned, that the reclaims recovered what the victims held, and that
// the facility ended pristine: every slot reusable, the credit ledger
// quiescent, no arena block leaked. Victim 0 dies at child-ack holding a
// pinned view, victim 1 at child-fill holding a debited loan.
func TestCrashReclamation(t *testing.T) {
	const children, victims = 4, 2
	r := runCrash(t, children, victims, 120, 512)
	if r.deaths != victims {
		t.Errorf("deaths = %d, want %d (one per armed victim)", r.deaths, victims)
	}
	if r.respawns != victims {
		t.Errorf("respawns = %d, want %d", r.respawns, victims)
	}
	if r.stats.ReclaimedViews == 0 {
		t.Error("the reclaims restored no pinned views")
	}
	if r.stats.ReclaimedCredits == 0 {
		t.Error("the reclaims refunded no credit")
	}
	t.Logf("crash: %d deaths, %d respawns, recovered %d views + %d credits",
		r.deaths, r.respawns, r.stats.ReclaimedViews, r.stats.ReclaimedCredits)
}

// TestCrashVictimSpecs: the victim fault specs must parse (a typo here
// would make every victim fail attach with a spec error instead of
// crashing at its point) and cover more than one protocol stage.
func TestCrashVictimSpecs(t *testing.T) {
	defer faultpoint.Reset()
	stages := map[string]bool{}
	for v := 0; v < 6; v++ {
		spec := crashVictimSpec(v, 120)
		faultpoint.Reset()
		if err := faultpoint.Set(spec); err != nil {
			t.Errorf("victim %d spec %q does not parse: %v", v, spec, err)
		}
		stages[spec] = true
	}
	if len(stages) < 3 {
		t.Errorf("victim specs collapsed to %d distinct points: %v", len(stages), stages)
	}
}

// crashVictimSpec picks the fault point for victim v: the spec cycles
// through the protocol stages (ack in the down phase, fill in the up
// phase, the claim itself) and varies the hit count by victim index so
// concurrent victims die at different depths into the workload.
func crashVictimSpec(v, msgs int) string {
	switch v % 3 {
	case 0:
		return fmt.Sprintf("child-ack:crash@%d", 1+(v*7)%max(1, msgs/2))
	case 1:
		return fmt.Sprintf("child-fill:crash@%d", 1+(v*11)%max(1, msgs/2))
	default:
		return "child-claim:crash"
	}
}

// crashResult is what one drill's supervisor saw, with the facility's
// counters at the end.
type crashResult struct {
	deaths, respawns int
	stats            Stats
}

// runCrash serves a memfd-backed facility, spawns children of which the
// first victims carry armed crash fault points, supervises them with a
// respawn budget, and drives the two-phase workload through every slot —
// retrying a slot's phase when its peer dies, so the run completes only
// once every slot (original or respawned incarnation) has delivered its
// messages. It fails the test if any slot ends unreusable, the credit
// ledger ends non-quiescent, or any arena block leaked.
func runCrash(t *testing.T, children, victims, msgsPerChild, size int) crashResult {
	t.Helper()
	srv := serveOrSkip(t, ServeConfig{
		Children: children,
		RingCap:  64,
		Options:  []Option{WithBlockSize(512), WithBlocksPerProcess(256), WithCredit(64)},
	})
	totalBlocks := srv.Facility().Core().Arena().FreeBlocks()

	worker := []string{workerEnv + "=1"}
	group, err := srv.SpawnEnv(children, os.Args[0], nil, func(i int) []string {
		if i < victims {
			return append([]string{faultpoint.EnvVar + "=" + crashVictimSpec(i, msgsPerChild)}, worker...)
		}
		return worker
	})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Kill()

	var (
		mu  sync.Mutex
		res crashResult
	)
	sup := srv.Supervise(group, SuperviseConfig{
		Respawn:       2,
		Backoff:       2 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		// Replacements get the worker environment but NOT the victim's
		// fault spec: a respawn that re-armed the same crash point would
		// die identically, forever.
		RespawnEnv: func(int, int) []string { return worker },
		OnDeath: func(ReclaimReport) {
			mu.Lock()
			res.deaths++
			mu.Unlock()
		},
		OnRespawn: func(int, int) {
			mu.Lock()
			res.respawns++
			mu.Unlock()
		},
	})
	defer sup.Stop()

	errs := make(chan error, children)
	for slot := 0; slot < children; slot++ {
		go func(slot int) {
			if err := driveCrashSlot(srv, slot, msgsPerChild, size); err != nil {
				errs <- fmt.Errorf("slot %d: %w", slot, err)
				return
			}
			errs <- nil
		}(slot)
	}
	for i := 0; i < children; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := group.Wait(60 * time.Second); err != nil {
		t.Fatalf("children: %v", err)
	}
	sup.Stop()

	for slot := 0; slot < children; slot++ {
		if st := srv.Table().SlotState(slot); st != core.SlotFree && st != core.SlotDetached {
			t.Fatalf("slot %d left in state %d (not reusable)", slot, st)
		}
	}
	res.stats = srv.Facility().Stats()
	if res.stats.CreditsHeld != 0 {
		t.Fatalf("%d credit blocks still held", res.stats.CreditsHeld)
	}
	if free := srv.Facility().Core().Arena().FreeBlocks(); free != totalBlocks {
		t.Fatalf("leaked %d of %d arena blocks", totalBlocks-free, totalBlocks)
	}
	mu.Lock()
	defer mu.Unlock()
	return res
}

// driveCrashSlot runs the two-phase workload over one slot, retrying a
// phase when the peer dies mid-way: the supervisor reclaims the slot
// and respawns a replacement, the retry binds to the new incarnation,
// and the phase restarts from its first message. Retries back off
// briefly because a retry can land in the reclaim's own window (slot
// marked dead but not yet freed).
func driveCrashSlot(srv *ProcServer, slot, msgs, size int) error {
	phase := func(name string, f func() error) error {
		var err error
		for attempt := 0; attempt < 6; attempt++ {
			if err = f(); err == nil || !errors.Is(err, ErrPeerDead) {
				break
			}
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := phase("down", func() error {
		_, err := srv.BridgeDown(slot, msgs, size)
		return err
	}); err != nil {
		return err
	}
	if err := phase("up", func() error {
		_, err := srv.BridgeUp(slot, msgs, size)
		return err
	}); err != nil {
		return err
	}
	return phase("finish", func() error { return srv.FinishSlot(slot) })
}
