package core

import (
	"fmt"
	"testing"

	"repro/internal/msg"
)

// walkFCFSHead is availableLocked's FCFS branch as it was before the
// head cursor: the first queued message still needing an FCFS
// consumption, found by a walk from the queue head.
func walkFCFSHead(l *lnvc) *msg.Message {
	var found *msg.Message
	l.queue.Walk(func(m, _ *msg.Message) bool {
		if m.FCFSNeeded {
			found = m
			return false
		}
		return true
	})
	return found
}

// checkCircuit holds the circuit's bounded reclaim scan and FCFS cursor
// to the unbounded forms they replaced. Valid after any facility call
// has returned: a full-queue scan finds no dead message (so the bounded
// scan left none behind), the messages with FCFSNeeded clear are a prefix
// of the queue whose length is fcfsDone, and fcfsHead is what the walk
// from the queue head returns. Every queued message's header is the entry
// of its own head block and describes its chain (msg.Pool.Check): a
// header written after its chain was freed would show here as a queued
// message that is not its block's. And the counters that live on the
// connections conserve: the messages counted on the circuit's senders,
// live and closed, are the sequence numbers its queue has handed out
// since this incarnation began; the debits on the live circuits are what
// Stats reports as CreditsHeld. A deleted circuit has nothing to check.
func checkCircuit(t *testing.T, f *Facility, id ID) {
	t.Helper()
	l := f.slots[id].Load()
	if l == nil {
		return
	}
	held := 0
	for i := range f.slots {
		if c := f.slots[i].Load(); c != nil {
			c.lock.Lock()
			held += int(c.creditUsed)
			c.lock.Unlock()
		}
	}
	if got := f.Stats().CreditsHeld; got != uint64(held) {
		t.Errorf("Stats().CreditsHeld = %d, live circuits hold %d blocks debited", got, held)
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	sent := l.gone.closed.tx.msgs
	for _, d := range l.sends {
		sent += d.tx.msgs
	}
	if sent != l.queue.NextSeq() {
		t.Errorf("senders (live and closed) count %d messages, the queue has numbered %d", sent, l.queue.NextSeq())
	}
	bcastOnly := l.nFCFS == 0 && l.nBcast > 0
	cleared, needed := 0, 0
	l.queue.Walk(func(m, _ *msg.Message) bool {
		if m.Pins == 0 && m.Pending == 0 && (!m.FCFSNeeded || bcastOnly) {
			t.Errorf("dead message seq %d left queued (fcfsDone %d, queue %d, broadcast-only %v)",
				m.Seq, l.fcfsDone, l.queue.Len(), bcastOnly)
		}
		if err := f.pool.Check(m); err != nil {
			t.Errorf("queued message seq %d: %v", m.Seq, err)
		}
		if m.FCFSNeeded {
			needed++
		} else {
			cleared++
			if needed > 0 {
				t.Errorf("message seq %d has FCFSNeeded clear behind %d that have it set", m.Seq, needed)
			}
		}
		return true
	})
	if cleared != l.fcfsDone {
		t.Errorf("fcfsDone = %d, recount finds %d of %d queued messages with FCFSNeeded clear",
			l.fcfsDone, cleared, l.queue.Len())
	}
	if want := walkFCFSHead(l); l.fcfsHead != want {
		t.Errorf("fcfsHead = %s, walk from the queue head finds %s", seqOf(l.fcfsHead), seqOf(want))
	}
	if t.Failed() {
		t.FailNow()
	}
}

func seqOf(m *msg.Message) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("seq %d", m.Seq)
}

// TestReclaimBoundAndCursor walks one circuit through the states that
// move the FCFS cursor and the cleared count other than by a plain
// claim — a late BROADCAST join inheriting a backlog, removals from the
// middle of the queue around pinned messages, the last FCFS close
// turning the circuit broadcast-only (where messages still needing FCFS
// die, the cursor's own among them), deletion with pins held and the
// descriptor's reuse — checking the circuit after every step.
func TestReclaimBoundAndCursor(t *testing.T) {
	f := newFac(t)
	const name = "bound"
	buf := make([]byte, 8)
	var sid ID
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkCircuit(t, f, sid)
	}
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			step("send", f.Send(0, sid, []byte("payload!")))
		}
	}
	recv := func(pid int, id ID, wantOK bool) {
		t.Helper()
		_, ok, err := f.TryReceive(pid, id, buf)
		if ok != wantOK {
			t.Fatalf("TryReceive pid %d: ok = %v, want %v", pid, ok, wantOK)
		}
		step("receive", err)
	}
	view := func(pid int, id ID) *View {
		t.Helper()
		v, ok, err := f.TryReceiveView(pid, id)
		if !ok {
			t.Fatalf("TryReceiveView pid %d found nothing", pid)
		}
		step("view", err)
		return v
	}
	release := func(v *View) {
		t.Helper()
		v.Release()
		step("release", nil)
	}
	queued := func(want int) {
		t.Helper()
		info, err := f.LNVCInfo(sid)
		if err != nil {
			t.Fatal(err)
		}
		if info.QueuedMsgs != want {
			t.Fatalf("%d messages queued, want %d", info.QueuedMsgs, want)
		}
	}

	sid, err := f.OpenSend(0, name)
	step("open send", err)

	// A backlog retained with no receiver, inherited whole by a late
	// BROADCAST joiner: every message has FCFSNeeded cleared at once.
	send(5)
	bc, err := f.OpenReceive(3, name, Broadcast)
	step("late broadcast join", err)
	send(3) // seq 5-7: these still need FCFS
	fc1, err := f.OpenReceive(1, name, FCFS)
	step("open fcfs 1", err)
	fc2, err := f.OpenReceive(2, name, FCFS)
	step("open fcfs 2", err)
	recv(3, bc, true) // seq 0 consumed by its only claimant: reclaimed
	queued(7)

	// Pins around a removal from the middle: views on seq 1, 2 and 3,
	// then 2 released first.
	v1, v2, v3 := view(3, bc), view(3, bc), view(3, bc)
	release(v2)
	queued(6)
	recv(3, bc, true) // seq 4, behind two pinned messages
	queued(5)
	release(v1)
	release(v3)
	queued(3)

	// Two FCFS receivers hold views on seq 5 and 6; the broadcast
	// receiver passes both. Releasing 6 first removes it from behind the
	// pinned head.
	w5, w6 := view(1, fc1), view(2, fc2)
	recv(3, bc, true)
	recv(3, bc, true)
	release(w6)
	queued(2)
	release(w5)
	queued(1) // seq 7: needed by FCFS and by the broadcast receiver

	// Broadcast-only: with the FCFS receivers gone, messages that still
	// need FCFS die once the broadcast receiver has passed them.
	send(4) // seq 8-11
	b7, b8 := view(3, bc), view(3, bc)
	recv(3, bc, true) // seq 9
	recv(3, bc, true) // seq 10
	step("close fcfs 2", f.CloseReceive(2, fc2))
	queued(5) // still hoarded for FCFS 1
	step("close fcfs 1", f.CloseReceive(1, fc1))
	queued(3) // seq 9 and 10 died behind the two pinned messages; 11 is pending
	release(b8)
	queued(2)
	release(b7) // the cursor's own message dies: the cursor moves to seq 11
	queued(1)

	// An FCFS receiver coming back finds the shared head on seq 11.
	fc1, err = f.OpenReceive(1, name, FCFS)
	step("reopen fcfs 1", err)
	recv(1, fc1, true)
	recv(1, fc1, false)
	recv(3, bc, true)
	queued(0)

	// Deletion with a pin held, then the descriptor's next life.
	send(3)
	held := view(1, fc1)
	step("close fcfs 1", f.CloseReceive(1, fc1))
	step("close broadcast", f.CloseReceive(3, bc))
	step("close send", f.CloseSend(0, sid))
	if _, ok := f.LNVCByName(name); ok {
		t.Fatal("circuit survived its last close")
	}
	held.Release()
	sid, err = f.OpenSend(0, name)
	step("reopen send", err)
	fc1, err = f.OpenReceive(1, name, FCFS)
	step("reopen fcfs 1", err)
	send(2)
	recv(1, fc1, true)
	recv(1, fc1, true)
	recv(1, fc1, false)
	queued(0)
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("block leak: %d of %d free", free, total)
	}
}

// TestOrphanReleasedAfterDescriptorReuse holds the release order on the
// path where a header outlives its circuit: a view pinned across the
// circuit's last close is orphaned to its holder, the descriptor is
// recycled for a new circuit whose messages take the low blocks the dead
// circuit's dropped ones just freed, and only then is the view released —
// through the recycled descriptor's lock, header first and chain last.
// Nothing of the new circuit may move, and the ledger is quiescent.
func TestOrphanReleasedAfterDescriptorReuse(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := f.Arena().FreeBlocks()
	// The registry's free list is LIFO: the second circuit, under the
	// same name, takes the first one's descriptor.
	const name = "orphan"
	sid, _ := f.OpenSend(0, name)
	rid, _ := f.OpenReceive(1, name, FCFS)
	for i := 0; i < 4; i++ {
		if err := f.Send(0, sid, []byte{'o', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the third message: the two before it are consumed, the one
	// after it is dropped with the circuit.
	buf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		if _, ok, err := f.TryReceive(1, rid, buf); !ok || err != nil {
			t.Fatalf("TryReceive: %v %v", ok, err)
		}
	}
	held, ok, err := f.TryReceiveView(1, rid)
	if !ok || err != nil {
		t.Fatalf("TryReceiveView: %v %v", ok, err)
	}
	old := f.slots[sid].Load()
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	if !held.m.Orphan || held.m.Pins != 1 {
		t.Fatalf("held message not orphaned to its pin: %+v", *held.m)
	}

	nsid, _ := f.OpenSend(0, name)
	nrid, _ := f.OpenReceive(1, name, FCFS)
	if f.slots[nsid].Load() != old {
		t.Fatal("the new circuit did not recycle the old descriptor")
	}
	for i := 0; i < 6; i++ {
		if err := f.Send(0, nsid, []byte{'n', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	checkCircuit(t, f, nsid)
	type snap struct {
		m *msg.Message
		h msg.Message
	}
	var before []snap
	old.lock.Lock()
	old.queue.Walk(func(m, _ *msg.Message) bool {
		before = append(before, snap{m, *m})
		return true
	})
	old.lock.Unlock()
	if len(before) != 6 {
		t.Fatalf("%d messages queued on the new circuit, want 6", len(before))
	}
	low := false
	for _, b := range before {
		low = low || b.h.Head < held.m.Head
		if b.m == held.m {
			t.Fatal("a new message was handed the pinned message's header")
		}
	}
	if !low {
		t.Fatalf("the new circuit's messages did not reuse the blocks below the pinned one")
	}

	if got, _ := held.Bytes(); len(got) != 2 || got[0] != 'o' || got[1] != 2 {
		t.Fatalf("pinned payload = %q after the descriptor's reuse", got)
	}
	held.Release()
	checkCircuit(t, f, nsid)
	for i, b := range before {
		if *b.m != b.h {
			t.Fatalf("releasing the orphan changed new message %d: %+v, was %+v", i, *b.m, b.h)
		}
	}
	for i := 0; i < 6; i++ {
		n, ok, err := f.TryReceive(1, nrid, buf)
		if !ok || err != nil || n != 2 || buf[0] != 'n' || buf[1] != byte(i) {
			t.Fatalf("new message %d: %q, %v, %v", i, buf[:n], ok, err)
		}
	}
	if free := f.Arena().FreeBlocks(); free != start {
		t.Fatalf("%d blocks free, %d at the start", free, start)
	}
	f.Shutdown()
}

// Heap allocations per iteration of the multi-message legs of
// TestSendTryReceiveNoAllocs; the legs may not exceed them. The
// loan/view pair is the Loan and the View themselves. A loan batch is
// one object (its bookkeeping inline up to msg.BatchInline loans) and a
// harvest one []View plus the []*View it returns; the commit that made
// every header a block's table entry read 6 and 16 where these read 1
// and 3 — five slices built per batch, and a harvest's results and a
// release's run grown by append.
const (
	maxAllocsLoanView        = 2 // SendLoan, Commit, TryReceiveView, Release
	maxAllocsLoanBatch16     = 3 // LoanBatch(16), CommitAll, HarvestViews(64), ReleaseViews
	noAllocsBatch, noAllocsN = 16, 1024
	// The repository benchmark's shape: a two-process facility with 64
	// messages in flight.
	noAllocsDepth = 64
)

// TestSendTryReceiveNoAllocs pins the single-message copying path —
// arena transaction, header, enqueue, claim, reclaim — at zero heap
// allocations per message, and the loan/view and loan-batch/harvest
// paths at the counts above.
func TestSendTryReceiveNoAllocs(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := f.OpenSend(0, "allocs")
	rid, _ := f.OpenReceive(1, "allocs", FCFS)
	sel, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	in, out := make([]byte, noAllocsN), make([]byte, noAllocsN)
	ns := make([]int, noAllocsBatch)
	for i := range ns {
		ns[i] = noAllocsN
	}
	legs := []struct {
		name string
		max  float64
		run  func()
	}{
		{"Send+TryReceive", 0, func() {
			if err := f.Send(0, sid, in); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := f.TryReceive(1, rid, out); !ok || err != nil {
				t.Fatalf("TryReceive: ok %v, err %v", ok, err)
			}
		}},
		{"SendLoan+Commit+TryReceiveView+Release", maxAllocsLoanView, func() {
			ln, err := f.SendLoan(0, sid, noAllocsN)
			if err != nil {
				t.Fatal(err)
			}
			if err := ln.Commit(); err != nil {
				t.Fatal(err)
			}
			v, ok, err := f.TryReceiveView(1, rid)
			if !ok || err != nil {
				t.Fatalf("TryReceiveView: ok %v, err %v", ok, err)
			}
			v.Release()
		}},
		{"LoanBatch+CommitAll+HarvestViews+ReleaseViews", maxAllocsLoanBatch16, func() {
			b, err := f.LoanBatch(0, sid, ns)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.CommitAll(); err != nil {
				t.Fatal(err)
			}
			vs, err := sel.HarvestViews(64)
			if len(vs) != noAllocsBatch || err != nil {
				t.Fatalf("HarvestViews: %d views, err %v", len(vs), err)
			}
			ReleaseViews(vs)
		}},
	}
	for _, leg := range legs {
		if n := testing.AllocsPerRun(200, leg.run); n > leg.max {
			t.Errorf("%s made %v heap allocations, want at most %v", leg.name, n, leg.max)
		} else {
			t.Logf("%s: %v allocations", leg.name, n)
		}
	}
	f.Shutdown()
}

// TestNoAllocsAtDepth is the single-message path with the traffic the
// repository benchmark offers it: bursts of 64 sends and then 64 receives
// on a two-process facility. One message in flight says nothing about
// headers — any free list one deep serves a strict send-one-receive-one
// loop — and 64 in flight is where the parent of this test's commit
// allocated 56 headers a burst (0.88 a message, measured): its
// channel of recycled headers held MaxProcesses*4 = 8. A header found
// from its head block costs no allocation at any depth.
func TestNoAllocsAtDepth(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 2, BlocksPerProcess: noAllocsDepth})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := f.OpenSend(0, "depth")
	rid, _ := f.OpenReceive(1, "depth", FCFS)
	in, out := make([]byte, 64), make([]byte, 64)
	burst := func() {
		for i := 0; i < noAllocsDepth; i++ {
			if err := f.Send(0, sid, in); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < noAllocsDepth; i++ {
			if _, err := f.Receive(1, rid, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Headers are made the first time a block heads a message: let
	// every head position the bursts use come up first.
	for i := 0; i < 8; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Errorf("a burst of %d sends and %d receives made %v heap allocations, want 0",
			noAllocsDepth, noAllocsDepth, n)
	}
	checkCircuit(t, f, sid)
	f.Shutdown()
}

// BenchmarkLoanBatchHarvest is the batched zero-copy plane's round on one
// goroutine — LoanBatch(16), CommitAll, HarvestViews(64), ReleaseViews —
// run with -benchmem so that allocations per round are in CI's log.
func BenchmarkLoanBatchHarvest(b *testing.B) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 2, BlocksPerProcess: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "bench")
	rid, _ := f.OpenReceive(1, "bench", FCFS)
	sel, err := f.NewSelector(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sel.Add(rid); err != nil {
		b.Fatal(err)
	}
	ns := make([]int, noAllocsBatch)
	for i := range ns {
		ns[i] = noAllocsN
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb, err := f.LoanBatch(0, sid, ns)
		if err != nil {
			b.Fatal(err)
		}
		if err := lb.CommitAll(); err != nil {
			b.Fatal(err)
		}
		vs, err := sel.HarvestViews(64)
		if err != nil || len(vs) != noAllocsBatch {
			b.Fatalf("HarvestViews: %d views, %v", len(vs), err)
		}
		ReleaseViews(vs)
	}
}
