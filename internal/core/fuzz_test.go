package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/shm"
)

// FuzzProtocolInvariants drives random interleavings of FCFS and
// BROADCAST receivers — copying receives, zero-copy view receives, and
// views held across other operations — against one circuit and checks
// the paper's §2 delivery contract plus the zero-copy plane's pin
// invariants:
//
//   - each message is consumed by exactly one FCFS receiver, in order
//     (the shared head), however the receives interleave with sends,
//     consumptions by the sibling, and FCFS close/reopen churn;
//   - every BROADCAST receiver connected since before the first send
//     observes the complete message stream in send order, whether it
//     reads through copies or through views;
//   - a held view's payload is never corrupted — the blocks under a
//     live pin are never recycled, however many sends, receives and
//     closes happen while it is held;
//   - once everything is consumed and every view released, the queue
//     has been reclaimed and no arena block has leaked.
//
// The script is one op per input byte (low 4 bits select the op, the
// high bit flips the copy/zero-copy plane): pid 0 sends (Send, or
// SendLoan+Commit with the high bit); pids 1-2 hold FCFS connections
// (pid 2 churns close/reopen); pids 3-4 hold BROADCAST connections
// (TryReceive, or TryReceiveView+Release with the high bit); op 6
// takes a view on pid 3 and *holds* it across subsequent ops; op 7
// releases the oldest held view, re-verifying its payload first. The
// batched plane adds: op 8 commits a LoanBatch of three whole
// (CommitAll); op 9 commits a one-message prefix of a batch of three,
// aborting the tail (CommitN — the partial abort); op 10 aborts a
// batch of two outright (AbortAll); op 11 harvests up to two pinned
// views through pid 3's Selector (HarvestViews inside the wait round)
// and *holds* them like op 6's, so harvested views ride across
// receiver churn and close too; op 14 is the same harvest with budget
// 0 — the adaptive (EWMA-sized, fairness-capped) rounds the facility's
// AutoHarvest window enables — so the cap is checked against the same
// no-drop/no-duplicate stream invariants across receiver churn.
// FailFast keeps pool exhaustion from blocking the fuzzer — a refused
// send is simply not recorded.
//
// Op 15 churns pid 1's FCFS connection the way op 5 churns pid 2's, so
// a script can leave the circuit with no FCFS receiver at all: it is
// then broadcast-only, messages still needing an FCFS consumption die
// once both BROADCAST receivers have passed them, and a returning FCFS
// receiver finds the shared head on the oldest survivor. From the first
// such moment FCFS may legitimately skip stamps, so the FCFS contract
// relaxes to at-most-once in increasing order; until then it is the
// strict exactly-once above. In both regimes every FCFS consumption
// must be the message a walk from the queue head finds, and after every
// op checkCircuit holds the bounded reclaim scan, the cleared count and
// the FCFS head cursor to the full-queue forms they replaced, and the
// per-connection traffic counters to the queue's own numbering (sends),
// to the FCFS head (receives, checkFCFSCount) and to the ledger
// (CreditsHeld is the sum of the circuits' debits at every step).
//
// The facility runs under credit flow control (CreditBlocks = 12 of
// the region), so every op above doubles as a credit op: sends debit
// the budget (a send the budget refuses surfaces as ErrNoCredit and is
// dropped exactly like a pool-refused one), receives/releases/reclaim
// grant it back, and the held views keep debits pinned across churn.
// Op 12 adds the pure debit/refund cycle — a loan acquired and
// immediately aborted — and op 13 asserts the mid-run ledger bound:
// the circuit's debits never exceed the budget and always equal the
// facility-wide CreditsHeld gauge. The final drain asserts the
// quiescence invariant: credits held plus credits free equal the
// configured budget (i.e. the ledger and gauge are exactly zero once
// every message is reclaimed and every view released).
func FuzzProtocolInvariants(f *testing.F) {
	// Seed corpus: a quiet round-trip, a saturating burst then drain,
	// receiver churn around a burst, interleaved chatter, the
	// zero-copy plane (loan sends, view receives, held views across
	// churn and bursts), and the batched plane (CommitAll bursts,
	// partial commits and aborts interleaved with churn, harvested
	// views held across closes).
	f.Add([]byte{0, 1, 0, 3, 0, 4, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3, 4, 4, 4, 4})
	f.Add([]byte{5, 0, 0, 5, 2, 0, 5, 1, 2, 5, 0, 2})
	f.Add([]byte{0, 3, 1, 0, 4, 2, 0, 3, 1, 0, 4, 2, 5, 0, 3, 1, 5, 0, 4, 2})
	f.Add([]byte{0x80, 0x83, 0x81, 0x80, 0x84, 0x82, 0x80, 0x83})
	f.Add([]byte{0, 6, 0, 6, 5, 0, 1, 7, 2, 7, 0x80, 6, 1, 7})
	f.Add([]byte{0x80, 6, 0x80, 6, 0x80, 6, 0x80, 6, 7, 7, 7, 7, 1, 1, 1, 1, 4, 4, 4, 4})
	f.Add([]byte{8, 11, 1, 1, 3, 3, 4, 4, 4, 1, 7, 7})
	f.Add([]byte{9, 10, 8, 5, 11, 2, 9, 5, 11, 7, 7, 1, 1, 1, 1})
	f.Add([]byte{8, 8, 11, 11, 11, 5, 7, 2, 7, 7, 10, 9, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{12, 13, 0, 12, 8, 13, 6, 6, 13, 12, 7, 7, 1, 1, 1, 1, 3, 3, 4, 4})
	f.Add([]byte{0, 0, 0, 0, 8, 8, 13, 12, 9, 13, 6, 5, 13, 1, 1, 1, 7, 13})
	f.Add([]byte{8, 14, 0, 0, 14, 5, 14, 2, 7, 7, 14, 5, 1, 1, 1, 1, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 14, 14, 14, 11, 14, 7, 7, 7, 7, 7, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 6, 3, 4, 4, 5, 15, 4, 7, 0, 0, 3, 4, 15, 1, 1, 5, 2, 15, 5, 0, 6, 3, 15, 7, 1})
	f.Add([]byte{8, 1, 6, 6, 15, 5, 4, 4, 4, 7, 7, 8, 11, 4, 4, 15, 1, 15, 14, 4, 4, 4, 5, 2, 2})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("script longer than useful")
		}
		// Scripts address payloads only through backend-relative offsets
		// (the block offsets the facility itself hands out), never through
		// absolute addresses, so one corpus exercises both arena backends:
		// every script runs over the default heap arena and again over an
		// arena carved out of a Segment at a nonzero base — the exact
		// layout the cross-process serve path maps into child processes.
		runProtocolScript(t, script, false)
		runProtocolScript(t, script, true)
	})
}

func runProtocolScript(t *testing.T, script []byte, segmentBacked bool) {
	const creditBudget = 12
	cfg := Config{
		MaxLNVCs:         4,
		MaxProcesses:     5,
		BlocksPerProcess: 16,
		SendPolicy:       FailFast,
		CreditBlocks:     creditBudget,
		// Auto-harvest enabled so op 14 can run budget-0 rounds: the
		// adaptive budget and fairness cap ride the same scripts as
		// everything else.
		AutoHarvestMin: 1,
		AutoHarvestMax: 4,
	}
	if segmentBacked {
		acfg := ArenaConfig(cfg)
		seg, err := shm.NewSegment(shm.AlignUp(acfg.Bytes()) + 64)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		cfg.ArenaMem = seg.At(64, acfg.Bytes())
	}
	fac, err := Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()

	const name = "fuzz"
	sid, err := fac.OpenSend(0, name)
	if err != nil {
		t.Fatal(err)
	}
	fcfs1, err := fac.OpenReceive(1, name, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	fcfs2, err := fac.OpenReceive(2, name, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	fcfs1Open, fcfs2Open := true, true
	// everBcastOnly latches once both FCFS connections have been closed
	// at the same time (pids 3-4 keep BROADCAST connections throughout).
	everBcastOnly := false
	bc3, err := fac.OpenReceive(3, name, Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	bc4, err := fac.OpenReceive(4, name, Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	// pid 3 also drains through a Selector (op 11): harvested views
	// interleave with its copying receives, plain view receives and
	// held views on the same BROADCAST head.
	sel, err := fac.NewSelector(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(bc3); err != nil {
		t.Fatal(err)
	}

	type heldView struct {
		v     *View
		stamp uint64
	}
	var (
		nextSeq   uint64             // payload stamp of the next send
		sent      uint64             // sends accepted by the facility
		fcfsSeen  = map[uint64]int{} // stamp → FCFS consumptions
		fcfsOrder = uint64(0)        // next stamp FCFS may consume
		bcNext    = map[int]uint64{3: 0, 4: 0}
		held      []heldView // views pinned across ops (pid 3)
	)
	buf := make([]byte, 8)

	stampOf := func(v *View) uint64 {
		var b [8]byte
		if n := v.CopyTo(b[:]); n != 8 {
			t.Fatalf("held view has %d bytes, want 8", n)
		}
		return binary.BigEndian.Uint64(b[:])
	}
	releaseOldest := func() {
		if len(held) == 0 {
			return
		}
		h := held[0]
		held = held[1:]
		// The pin invariant: a live view's payload must read exactly
		// as it did at claim time — recycled blocks would have been
		// overwritten by later sends.
		if got := stampOf(h.v); got != h.stamp {
			t.Fatalf("held view corrupted: stamp %d read back as %d", h.stamp, got)
		}
		h.v.Release()
	}
	doSend := func(viaLoan bool) {
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, nextSeq)
		if viaLoan {
			ln, err := fac.SendLoan(0, sid, 8)
			if errors.Is(err, ErrNoMemory) || errors.Is(err, ErrNoCredit) {
				return // pool full or budget spent: drop the stamp, receivers catch up
			}
			if err != nil {
				t.Fatalf("loan %d: %v", nextSeq, err)
			}
			if n := ln.View().CopyFrom(payload); n != 8 {
				t.Fatalf("loan fill wrote %d bytes", n)
			}
			if err := ln.Commit(); err != nil {
				t.Fatalf("commit %d: %v", nextSeq, err)
			}
		} else {
			err := fac.Send(0, sid, payload)
			if errors.Is(err, ErrNoMemory) || errors.Is(err, ErrNoCredit) {
				return
			}
			if err != nil {
				t.Fatalf("send %d: %v", nextSeq, err)
			}
		}
		nextSeq++
		sent++
	}
	// fcfsRecv reports whether a message was consumed.
	fcfsRecv := func(pid int, id ID) bool {
		// Stamps are queue sequence numbers (the sender keeps the
		// circuit alive, so the sequence never restarts): the walk's
		// answer names the stamp this receive must return.
		l := fac.slots[id].Load()
		l.lock.Lock()
		want := walkFCFSHead(l)
		l.lock.Unlock()
		n, ok, err := fac.TryReceive(pid, id, buf)
		if err != nil {
			t.Fatalf("FCFS TryReceive pid %d: %v", pid, err)
		}
		if ok != (want != nil) {
			t.Fatalf("FCFS TryReceive pid %d: ok = %v, walk from the queue head finds %s", pid, ok, seqOf(want))
		}
		if !ok {
			return false
		}
		if n != 8 {
			t.Fatalf("FCFS pid %d got %d bytes", pid, n)
		}
		stamp := binary.BigEndian.Uint64(buf)
		fcfsSeen[stamp]++
		if fcfsSeen[stamp] > 1 {
			t.Fatalf("message %d consumed %d times by FCFS", stamp, fcfsSeen[stamp])
		}
		if stamp != want.Seq {
			t.Fatalf("FCFS consumed %d, walk from the queue head finds %s", stamp, seqOf(want))
		}
		if stamp < fcfsOrder || (stamp > fcfsOrder && !everBcastOnly) {
			t.Fatalf("FCFS consumed %d, want next-in-order %d (broadcast-only so far: %v)", stamp, fcfsOrder, everBcastOnly)
		}
		fcfsOrder = stamp + 1
		return true
	}
	// churnFCFS closes pid's FCFS connection if open, else reopens it:
	// a reopened connection inherits the shared FCFS head — no double
	// delivery, and no gap unless the circuit went broadcast-only.
	churnFCFS := func(pid int, id *ID, open *bool) {
		if *open {
			if err := fac.CloseReceive(pid, *id); err != nil {
				t.Fatalf("close fcfs pid %d: %v", pid, err)
			}
		} else {
			var err error
			if *id, err = fac.OpenReceive(pid, name, FCFS); err != nil {
				t.Fatalf("reopen fcfs pid %d: %v", pid, err)
			}
		}
		*open = !*open
		if !fcfs1Open && !fcfs2Open {
			everBcastOnly = true
		}
	}
	bcastRecv := func(pid int, id ID, viaView bool) {
		var stamp uint64
		if viaView {
			v, ok, err := fac.TryReceiveView(pid, id)
			if err != nil {
				t.Fatalf("BROADCAST TryReceiveView pid %d: %v", pid, err)
			}
			if !ok {
				return
			}
			if v.Len() != 8 {
				t.Fatalf("BROADCAST pid %d got a %d-byte view", pid, v.Len())
			}
			stamp = stampOf(v)
			v.Release()
		} else {
			n, ok, err := fac.TryReceive(pid, id, buf)
			if err != nil {
				t.Fatalf("BROADCAST TryReceive pid %d: %v", pid, err)
			}
			if !ok {
				return
			}
			if n != 8 {
				t.Fatalf("BROADCAST pid %d got %d bytes", pid, n)
			}
			stamp = binary.BigEndian.Uint64(buf)
		}
		if stamp != bcNext[pid] {
			t.Fatalf("BROADCAST pid %d saw %d, want %d (gap or reorder)", pid, stamp, bcNext[pid])
		}
		bcNext[pid]++
	}
	holdView := func() {
		if len(held) >= 8 {
			// Bound the pinned backlog so FailFast sends keep flowing.
			releaseOldest()
		}
		v, ok, err := fac.TryReceiveView(3, bc3)
		if err != nil {
			t.Fatalf("held TryReceiveView: %v", err)
		}
		if !ok {
			return
		}
		stamp := stampOf(v)
		if stamp != bcNext[3] {
			t.Fatalf("held view saw %d, want %d (gap or reorder)", stamp, bcNext[3])
		}
		bcNext[3]++
		held = append(held, heldView{v: v, stamp: stamp})
	}
	// batchSend acquires a LoanBatch of k stamped loans and commits
	// the first `commit` of them, aborting the rest — the partial
	// abort when commit < k, a pure AbortAll when commit == -1.
	batchSend := func(k, commit int) {
		ns := make([]int, k)
		for j := range ns {
			ns[j] = 8
		}
		lb, err := fac.LoanBatch(0, sid, ns)
		if errors.Is(err, ErrNoMemory) || errors.Is(err, ErrNoCredit) {
			return // pool full or budget spent: drop the batch, receivers catch up
		}
		if err != nil {
			t.Fatalf("loan batch: %v", err)
		}
		payload := make([]byte, 8)
		for j := 0; j < k; j++ {
			binary.BigEndian.PutUint64(payload, nextSeq+uint64(j))
			if n := lb.Fill(j, payload); n != 8 {
				t.Fatalf("batch fill wrote %d bytes", n)
			}
		}
		if commit < 0 {
			lb.AbortAll()
			return
		}
		if commit == k {
			err = lb.CommitAll()
		} else {
			err = lb.CommitN(commit)
		}
		if err != nil {
			t.Fatalf("batch commit %d of %d: %v", commit, k, err)
		}
		// Aborted tail stamps are reused by the next send, so the
		// observed stream stays gap-free.
		nextSeq += uint64(commit)
		sent += uint64(commit)
	}
	// harvestViews drains messages through pid 3's Selector into held
	// views — budget 2 for op 11's fixed-budget rounds, budget 0 for
	// op 14's adaptive rounds (the EWMA budget and the fairness cap
	// decide how many views arrive; the stream checks below are
	// identical, so the cap can neither drop nor duplicate). The
	// guard keeps it non-blocking: a BROADCAST receiver with
	// bcNext < sent always has a deliverable message, so the wait
	// round returns immediately.
	harvestViews := func(budget int) {
		if bcNext[3] >= sent {
			return
		}
		for len(held) > 6 {
			releaseOldest()
		}
		vs, err := sel.HarvestViewsDeadline(budget, 10*time.Second)
		if err != nil {
			t.Fatalf("harvest: %v", err)
		}
		for _, v := range vs {
			if v.Len() != 8 {
				t.Fatalf("harvested a %d-byte view", v.Len())
			}
			stamp := stampOf(v)
			if stamp != bcNext[3] {
				t.Fatalf("harvest saw %d, want %d (gap or reorder)", stamp, bcNext[3])
			}
			bcNext[3]++
			held = append(held, heldView{v: v, stamp: stamp})
		}
	}

	// loanAbort is the pure credit debit/refund cycle: a loan
	// acquired (budget debited at allocation) and aborted (the
	// never-enqueued demand refunded) with no message traffic.
	loanAbort := func() {
		ln, err := fac.SendLoan(0, sid, 8)
		if errors.Is(err, ErrNoMemory) || errors.Is(err, ErrNoCredit) {
			return
		}
		if err != nil {
			t.Fatalf("credit loan: %v", err)
		}
		ln.Abort()
	}
	// checkLedger asserts the mid-run credit bound: the circuit's
	// debits never exceed the budget and, with one credited circuit
	// in the facility, always equal the CreditsHeld gauge.
	checkLedger := func() {
		info, err := fac.LNVCInfo(sid)
		if err != nil {
			t.Fatalf("credit ledger info: %v", err)
		}
		if info.CreditCap != creditBudget {
			t.Fatalf("ledger cap %d, want %d", info.CreditCap, creditBudget)
		}
		if info.CreditUsed < 0 || info.CreditUsed > creditBudget {
			t.Fatalf("ledger overdrawn: %d of %d blocks debited", info.CreditUsed, creditBudget)
		}
		if held := fac.Stats().CreditsHeld; held != uint64(info.CreditUsed) {
			t.Fatalf("gauge disagrees with ledger: held %d, circuit debits %d", held, info.CreditUsed)
		}
	}

	// checkFCFSCount is conservation over the FCFS receiver set, from
	// the per-connection counters: until the circuit has ever been
	// broadcast-only (when messages may die unclaimed), every message
	// numbered so far was received by an FCFS connection — a live one, or
	// one since closed; only FCFS connections close in this script — or
	// is queued at or behind the FCFS head. Nothing is dropped: the
	// sender keeps the circuit alive.
	checkFCFSCount := func() {
		if everBcastOnly {
			return
		}
		info, err := fac.LNVCInfo(sid)
		if err != nil {
			t.Fatalf("conservation info: %v", err)
		}
		got := info.ClosedReceivers.Msgs
		for _, r := range info.ReceiverTraffic {
			if r.Proto == FCFS {
				got += r.Msgs
			}
		}
		if unclaimed := info.NextSeq - info.FCFSHeadSeq; got+unclaimed != info.NextSeq {
			t.Fatalf("FCFS connections count %d receives, %d messages wait for one: %d numbered",
				got, unclaimed, info.NextSeq)
		}
	}

	for _, op := range script {
		viaZC := op&0x80 != 0
		switch int(op&0x7f) % 16 {
		case 0:
			doSend(viaZC)
		case 1:
			if fcfs1Open {
				fcfsRecv(1, fcfs1)
			}
		case 2:
			if fcfs2Open {
				fcfsRecv(2, fcfs2)
			}
		case 3:
			bcastRecv(3, bc3, viaZC)
		case 4:
			bcastRecv(4, bc4, viaZC)
		case 5:
			churnFCFS(2, &fcfs2, &fcfs2Open)
		case 6:
			holdView()
		case 7:
			releaseOldest()
		case 8:
			batchSend(3, 3) // CommitAll
		case 9:
			batchSend(3, 1) // partial: commit 1, abort 2
		case 10:
			batchSend(2, -1) // AbortAll
		case 11:
			harvestViews(2)
		case 12:
			loanAbort()
		case 13:
			checkLedger()
		case 14:
			harvestViews(0) // adaptive budget + fairness cap
		case 15:
			churnFCFS(1, &fcfs1, &fcfs1Open)
		}
		checkCircuit(t, fac, sid)
		checkFCFSCount()
	}

	// Drain: every accepted message must reach exactly one FCFS
	// receiver — unless the circuit was ever broadcast-only, when the
	// receive-time checks above are the whole FCFS contract — and both
	// broadcast receivers, in order. pid 3 alternates views and copies
	// on the way out.
	if !fcfs1Open {
		churnFCFS(1, &fcfs1, &fcfs1Open)
	}
	for fcfsRecv(1, fcfs1) {
		checkCircuit(t, fac, sid)
	}
	if fcfsOrder < sent && !everBcastOnly {
		t.Fatalf("FCFS drain stalled at %d of %d", fcfsOrder, sent)
	}
	for _, pid := range []int{3, 4} {
		id := bc3
		if pid == 4 {
			id = bc4
		}
		for bcNext[pid] < sent {
			before := bcNext[pid]
			bcastRecv(pid, id, pid == 3 && bcNext[pid]%2 == 0)
			if bcNext[pid] == before {
				t.Fatalf("BROADCAST pid %d drain stalled at %d of %d", pid, bcNext[pid], sent)
			}
			checkCircuit(t, fac, sid)
		}
	}
	for stamp := uint64(0); stamp < sent && !everBcastOnly; stamp++ {
		if fcfsSeen[stamp] != 1 {
			t.Fatalf("message %d consumed %d times by FCFS, want exactly 1", stamp, fcfsSeen[stamp])
		}
	}

	// Views still held must read their original payloads, then let
	// their blocks go.
	for len(held) > 0 {
		releaseOldest()
	}

	// Everything consumed and every pin dropped: reclamation must
	// have emptied the queue and returned every block.
	id, ok := fac.LNVCByName(name)
	if !ok {
		t.Fatal("circuit vanished")
	}
	info, err := fac.LNVCInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.QueuedMsgs != 0 {
		t.Fatalf("%d messages still queued after full drain", info.QueuedMsgs)
	}
	if free, total := fac.Arena().FreeBlocks(), fac.Arena().NumBlocks(); free != total {
		t.Fatalf("block leak after drain: %d of %d free", free, total)
	}
	// The credit quiescence invariant: with every message reclaimed
	// and every loan resolved, credits held + credits free == the
	// configured budget — i.e. the ledger and the gauge are zero.
	if info.CreditUsed != 0 {
		t.Fatalf("credit leak after drain: %d of %d budget blocks still debited", info.CreditUsed, creditBudget)
	}
	if held := fac.Stats().CreditsHeld; held != 0 {
		t.Fatalf("credit gauge leak after drain: %d blocks still held", held)
	}
}
