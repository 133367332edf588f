// Procdemo: the paper's deployment shape made literal — one parent and
// N real forked OS processes exchanging messages through a single
// mmap'd memfd segment, with zero payload copies across the process
// boundary in either direction.
//
// The parent serves a full MPF facility whose block arena is carved
// out of a shared segment (mpf.ServeProc). It forks N children and
// hands each one the segment's file descriptor over an inherited unix
// socket, along with a versioned handshake describing the layout
// (offsets of the descriptor table and arena, block geometry, protocol
// generation, the slot and its incarnation). Each child maps the same
// physical pages at its own base address, binds its slot's rings, and
// speaks to the parent only through two in-segment SPSC rings whose
// 16-byte records carry segment offsets; waiting on either side is a
// futex word inside the segment — no pipe, no socket, no copy on the
// payload path.
//
// Two phases per child, both zero-copy end to end and both moving a
// window of records in chunks of up to 16 (mpf/xproc.go):
//
//	down  the parent commits a batch of loans through a circuit,
//	      harvests its own views back, and publishes the payload
//	      windows to the child, which verifies the bytes in place and
//	      acknowledges each run of records with one ring push;
//	up    the parent offers a batch of unfilled loan windows; the
//	      child writes the payloads in place across the process
//	      boundary, and the parent commits the batch and verifies it
//	      through the harvested views.
//
// The run exits nonzero unless: every round trip verified, the copy
// ledger shows zero payload copies (and every message on the batched
// loan/view planes), every child exited cleanly after echoing its done
// record and its slot ended free, and the final segment unmap returned
// no error. CI's
// cross-process smoke leg runs exactly this binary.
//
// With -chaos the demo becomes a crash drill: two of the children are
// spawned with armed crash fault points (MPF_FAULTPOINTS) and die
// mid-protocol. The respawn supervisor detects each death, reclaims the
// victim's slot — drains its dead-generation ring records, restores its
// pinned views, refunds its credit — and restarts it with a clean
// environment; the parent retries the interrupted phases against the
// replacement incarnations. The run exits nonzero unless every death
// was reclaimed, every child (original or replacement) completed its
// workload, every slot ended reusable, the credit ledger drained to
// zero, and not one arena block leaked. CI's crash-smoke leg runs
// exactly this.
//
//	go run ./examples/procdemo [-children 4] [-msgs 1500] [-size 384] [-chaos]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/mpf"
)

func main() {
	if os.Getenv("MPF_PROCDEMO_CHILD") != "" {
		runChild()
		return
	}
	children := flag.Int("children", 4, "forked child processes, one table slot each")
	msgs := flag.Int("msgs", 1500, "messages per child per phase")
	size := flag.Int("size", 384, "payload bytes per message")
	chaos := flag.Bool("chaos", false, "crash drill: arm crash fault points in two children, reclaim and respawn them mid-run")
	flag.Parse()
	run := runParent
	if *chaos {
		run = runChaos
	}
	if err := run(*children, *msgs, *size); err != nil {
		if errors.Is(err, mpf.ErrNoSharedBackend) {
			log.Println("procdemo: no shared segment backend on this platform; nothing to demonstrate")
			return
		}
		log.Fatalf("procdemo: %v", err)
	}
}

func runChild() {
	cl, err := mpf.AttachProc()
	if err != nil {
		log.Fatalf("procdemo child: attach: %v", err)
	}
	if err := cl.Serve(); err != nil {
		log.Fatalf("procdemo child: %v", err)
	}
	served := cl.Served()
	if err := cl.Close(); err != nil {
		log.Fatalf("procdemo child: unmap: %v", err)
	}
	fmt.Printf("  child (slot %d, pid %d): %d payloads verified in place, finished cleanly\n",
		cl.Slot(), os.Getpid(), served)
}

func runParent(children, msgs, size int) error {
	srv, err := mpf.ServeProc(mpf.ServeConfig{
		Children: children,
		RingCap:  64,
		Options: []mpf.Option{
			mpf.WithBlockSize(128),
			mpf.WithBlocksPerProcess(512),
		},
	})
	if err != nil {
		return err
	}

	bin, err := os.Executable()
	if err != nil {
		return err
	}
	group, err := srv.Spawn(children, bin, nil, []string{"MPF_PROCDEMO_CHILD=1"})
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Printf("procdemo: %d children attached to one %d-byte memfd segment (%d msgs × %d B per child per phase)\n",
		children, srv.Segment().Size(), msgs, size)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, children)
	for slot := 0; slot < children; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if n, err := srv.BridgeDown(slot, msgs, size); err != nil {
				errs[slot] = fmt.Errorf("slot %d down after %d: %w", slot, n, err)
				return
			}
			if n, err := srv.BridgeUp(slot, msgs, size); err != nil {
				errs[slot] = fmt.Errorf("slot %d up after %d: %w", slot, n, err)
				return
			}
			errs[slot] = srv.FinishSlot(slot)
		}(slot)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			group.Kill()
			srv.Close()
			return err
		}
	}
	if err := group.Wait(45 * time.Second); err != nil {
		srv.Close()
		return err
	}
	elapsed := time.Since(start)

	// Every slot's incarnation must have been ended by FinishSlot.
	for slot := 0; slot < children; slot++ {
		if s := srv.Table().SlotState(slot); s != core.SlotFree {
			srv.Close()
			return fmt.Errorf("slot %d in state %d after child exit, want free", slot, s)
		}
	}

	total := uint64(2 * children * msgs)
	st := srv.Facility().Stats()
	fmt.Printf("procdemo: %d cross-process round trips in %v (%.0f msgs/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("  ledger: batched loan sends %d, harvested views %d, payload copies in/out %d/%d\n",
		st.LoanBatchSends, st.HarvestedViews, st.PayloadCopiesIn, st.PayloadCopiesOut)

	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		srv.Close()
		return fmt.Errorf("copy ledger not clean: in=%d out=%d", st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
	if st.LoanBatchSends != total || st.HarvestedViews != total {
		srv.Close()
		return fmt.Errorf("ledger counted batched loans=%d harvested views=%d, want %d each", st.LoanBatchSends, st.HarvestedViews, total)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("segment unmap: %w", err)
	}
	fmt.Println("  zero payload copies across the process boundary; segment unmapped cleanly")
	return nil
}

// runChaos is the crash drill: the first two children carry armed crash
// fault points and die mid-protocol; the supervisor reclaims and
// respawns them while the survivors keep their full workload moving.
func runChaos(children, msgs, size int) error {
	victims := 2
	if victims > children {
		victims = children
	}
	srv, err := mpf.ServeProc(mpf.ServeConfig{
		Children: children,
		RingCap:  64,
		Options: []mpf.Option{
			mpf.WithBlockSize(128),
			mpf.WithBlocksPerProcess(512),
			// Credit makes the drill prove the refund path too: a victim
			// dies holding debited blocks and the ledger must still drain
			// to zero.
			mpf.WithCredit(64),
		},
	})
	if err != nil {
		return err
	}
	arena := srv.Facility().Core().Arena()
	totalBlocks := arena.FreeBlocks()

	bin, err := os.Executable()
	if err != nil {
		return err
	}
	group, err := srv.SpawnEnv(children, bin, nil, func(i int) []string {
		env := []string{"MPF_PROCDEMO_CHILD=1"}
		if i < victims {
			// Victims die acknowledging their (1+3i)'th down-phase
			// payload: different depths, same drill.
			env = append(env, fmt.Sprintf("%s=child-ack:crash@%d", faultpoint.EnvVar, 1+3*i))
		}
		return env
	})
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Printf("procdemo -chaos: %d children, %d with armed crash points (%d msgs × %d B per child per phase)\n",
		children, victims, msgs, size)

	var deaths, respawns int
	var mu sync.Mutex
	sup := srv.Supervise(group, mpf.SuperviseConfig{
		Respawn: 2,
		Backoff: 2 * time.Millisecond,
		// Replacements attach in worker mode but without the fault spec:
		// re-arming the same crash point would kill them identically.
		RespawnEnv: func(int, int) []string { return []string{"MPF_PROCDEMO_CHILD=1"} },
		OnDeath: func(r mpf.ReclaimReport) {
			mu.Lock()
			deaths++
			mu.Unlock()
			fmt.Printf("  reclaimed slot %d gen %d (pid %d): %d in-flight views discarded, %d credits refunded, %v\n",
				r.Slot, r.Gen, r.Pid, r.Views, r.Credits, r.Elapsed.Round(time.Microsecond))
		},
		OnRespawn: func(slot, attempt int) {
			mu.Lock()
			respawns++
			mu.Unlock()
			fmt.Printf("  respawned slot %d (attempt %d)\n", slot, attempt)
		},
	})

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, children)
	for slot := 0; slot < children; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = chaosSlot(srv, slot, msgs, size)
		}(slot)
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			sup.Stop()
			group.Kill()
			srv.Close()
			return fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	if err := group.Wait(45 * time.Second); err != nil {
		sup.Stop()
		srv.Close()
		return err
	}
	sup.Stop()
	elapsed := time.Since(start)

	// The robustness checks the drill exists for: every death reclaimed,
	// every slot reusable, ledger quiescent, zero leaked pins, and still
	// zero payload copies through all the carnage.
	if deaths != victims {
		srv.Close()
		return fmt.Errorf("%d deaths reclaimed, want %d", deaths, victims)
	}
	for slot := 0; slot < children; slot++ {
		if s := srv.Table().SlotState(slot); s != core.SlotFree {
			srv.Close()
			return fmt.Errorf("slot %d in state %d after the drill, not reusable", slot, s)
		}
	}
	st := srv.Facility().Stats()
	if st.PeerDeaths != uint64(victims) {
		srv.Close()
		return fmt.Errorf("facility counted %d peer deaths, want %d", st.PeerDeaths, victims)
	}
	if st.CreditsHeld != 0 {
		srv.Close()
		return fmt.Errorf("credit ledger not quiescent: %d blocks held", st.CreditsHeld)
	}
	if free := arena.FreeBlocks(); free != totalBlocks {
		srv.Close()
		return fmt.Errorf("pin leak: %d of %d arena blocks free", free, totalBlocks)
	}
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		srv.Close()
		return fmt.Errorf("copy ledger not clean: in=%d out=%d", st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("segment unmap: %w", err)
	}
	fmt.Printf("procdemo -chaos: %d crashes reclaimed and respawned in a %v run; every slot reusable, ledger quiescent, zero leaks\n",
		deaths, elapsed.Round(time.Millisecond))
	return nil
}

// chaosSlot drives one slot's two phases, retrying when the peer dies:
// the supervisor reclaims and respawns, and the retry binds to the
// replacement incarnation.
func chaosSlot(srv *mpf.ProcServer, slot, msgs, size int) error {
	phase := func(name string, f func() error) error {
		var err error
		for attempt := 0; attempt < 6; attempt++ {
			if err = f(); err == nil || !errors.Is(err, mpf.ErrPeerDead) {
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
