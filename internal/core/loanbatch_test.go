package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func newBatchFacility(t *testing.T, procs int) *Facility {
	t.Helper()
	f, err := Init(Config{MaxLNVCs: 8, MaxProcesses: procs, BlocksPerProcess: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

// TestLoanBatchCommitAll checks the batched send's contract: one
// batch, in-place fills, consecutive FIFO order, full ledger, and no
// structural copies.
func TestLoanBatchCommitAll(t *testing.T) {
	f := newBatchFacility(t, 2)
	sid, err := f.OpenSend(0, "lb")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.OpenReceive(1, "lb", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	ns := make([]int, k)
	for i := range ns {
		ns[i] = 32 + i
	}
	b, err := f.LoanBatch(0, sid, ns)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != k {
		t.Fatalf("Len = %d, want %d", b.Len(), k)
	}
	for i := 0; i < k; i++ {
		if b.Size(i) != ns[i] {
			t.Fatalf("Size(%d) = %d, want %d", i, b.Size(i), ns[i])
		}
		buf, ok := b.Bytes(i)
		if !ok {
			t.Fatalf("loan %d not contiguous under span allocation", i)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
	}
	if err := b.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitAll(); !errors.Is(err, ErrLoanDone) {
		t.Fatalf("second CommitAll = %v, want ErrLoanDone", err)
	}
	b.AbortAll() // no-op after commit

	buf := make([]byte, 64)
	for i := 0; i < k; i++ {
		n, err := f.Receive(1, rid, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != ns[i] {
			t.Fatalf("message %d: %d bytes, want %d (batch order broken)", i, n, ns[i])
		}
		if buf[0] != byte(i) || buf[n-1] != byte(i) {
			t.Fatalf("message %d: payload corrupted", i)
		}
	}
	st := f.Stats()
	if st.LoanBatchSends != k {
		t.Errorf("LoanBatchSends = %d, want %d", st.LoanBatchSends, k)
	}
	if st.PayloadCopiesIn != 0 {
		t.Errorf("PayloadCopiesIn = %d, want 0 (fills are production, not copies)", st.PayloadCopiesIn)
	}
	if st.Sends != k {
		t.Errorf("Sends = %d, want %d", st.Sends, k)
	}
}

// TestCommitAllIsContiguousUnderConcurrentSenders checks that a
// committed batch is atomic with respect to other senders: two senders
// commit batches concurrently, and every batch occupies consecutive
// positions in the FIFO — in the shared FCFS order and in a BROADCAST
// receiver's private one alike.
func TestCommitAllIsContiguousUnderConcurrentSenders(t *testing.T) {
	f, err := Init(Config{MaxProcesses: 4, BlocksPerProcess: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	const batches, batchLen = 40, 8
	rid, err := f.OpenReceive(2, "atomic", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	bid, err := f.OpenReceive(3, "atomic", Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for pid := 0; pid < 2; pid++ {
		go func(pid int) {
			sid, err := f.OpenSend(pid, "atomic")
			if err != nil {
				errs <- err
				return
			}
			ns := make([]int, batchLen)
			for i := range ns {
				ns[i] = 3
			}
			for b := 0; b < batches; b++ {
				lb, err := f.LoanBatch(pid, sid, ns)
				if err != nil {
					errs <- err
					return
				}
				for i := range ns {
					lb.Fill(i, []byte{byte(pid), byte(b), byte(i)})
				}
				if err := lb.CommitAll(); err != nil {
					errs <- err
					return
				}
			}
			errs <- f.CloseSend(pid, sid)
		}(pid)
	}
	for _, r := range []struct {
		pid int
		id  ID
	}{{2, rid}, {3, bid}} {
		buf := make([]byte, 3)
		for got := 0; got < 2*batches*batchLen; got++ {
			n, err := f.ReceiveDeadline(r.pid, r.id, buf, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("pid %d message %d: %d bytes, want 3", r.pid, got, n)
			}
			if want := byte(got % batchLen); buf[2] != want {
				t.Fatalf("pid %d message %d: batch offset %d, want %d (batch from pid %d interleaved)",
					r.pid, got, buf[2], want, buf[0])
			}
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoanBatchCommitN checks partial resolution: the committed prefix
// is delivered in order, the aborted tail's blocks come straight back.
func TestLoanBatchCommitN(t *testing.T) {
	f := newBatchFacility(t, 1)
	sid, _ := f.OpenSend(0, "part")
	rid, _ := f.OpenReceive(0, "part", FCFS)
	free0 := f.Arena().FreeBlocks()

	b, err := f.LoanBatch(0, sid, []int{16, 16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		buf, _ := b.Bytes(i)
		buf[0] = byte(i)
	}
	if err := b.CommitN(2); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitN(1); !errors.Is(err, ErrLoanDone) {
		t.Fatalf("CommitN after CommitN = %v, want ErrLoanDone", err)
	}
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		if _, err := f.Receive(0, rid, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("prefix message %d corrupted", i)
		}
	}
	if ok, _ := f.CheckReceive(0, rid); ok {
		t.Fatal("aborted tail was delivered")
	}
	if free := f.Arena().FreeBlocks(); free != free0 {
		t.Fatalf("aborted tail leaked blocks: %d free, want %d", free, free0)
	}

	// Out-of-range prefixes are rejected without spending the batch.
	b2, err := f.LoanBatch(0, sid, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.CommitN(2); err == nil || errors.Is(err, ErrLoanDone) {
		t.Fatalf("CommitN(2) on a batch of 1 = %v, want argument error", err)
	}
	if err := b2.CommitAll(); err != nil {
		t.Fatalf("batch spent by rejected CommitN: %v", err)
	}
	if _, err := f.Receive(0, rid, buf); err != nil {
		t.Fatal(err)
	}
}

// TestLoanBatchAbortAll checks the one-transaction abort and that the
// region stays usable; also the post-resolution window panic.
func TestLoanBatchAbortAll(t *testing.T) {
	f := newBatchFacility(t, 1)
	sid, _ := f.OpenSend(0, "abort")
	rid, _ := f.OpenReceive(0, "abort", FCFS)
	free0 := f.Arena().FreeBlocks()
	for i := 0; i < 50; i++ {
		b, err := f.LoanBatch(0, sid, []int{64, 64, 64})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		b.AbortAll()
		b.AbortAll() // idempotent
		if err := b.CommitAll(); !errors.Is(err, ErrLoanDone) {
			t.Fatalf("iter %d: CommitAll after AbortAll = %v", i, err)
		}
	}
	if free := f.Arena().FreeBlocks(); free != free0 {
		t.Fatalf("aborts leaked blocks: %d free, want %d", free, free0)
	}
	if err := f.Send(0, sid, []byte("still works")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if n, err := f.Receive(0, rid, buf); err != nil || string(buf[:n]) != "still works" {
		t.Fatalf("post-abort receive: %q, %v", buf[:n], err)
	}

	b, err := f.LoanBatch(0, sid, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	b.AbortAll()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("View window on a resolved batch did not panic")
			}
		}()
		b.View(0)
	}()
}

// TestLoanBatchDeadCircuit checks that a batch held across circuit
// deletion returns its blocks and reports ErrNotConnected.
func TestLoanBatchDeadCircuit(t *testing.T) {
	f := newBatchFacility(t, 2)
	sid, _ := f.OpenSend(0, "dead")
	free0 := f.Arena().FreeBlocks()
	b, err := f.LoanBatch(0, sid, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitAll(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("CommitAll on a dead circuit = %v, want ErrNotConnected", err)
	}
	if free := f.Arena().FreeBlocks(); free != free0 {
		t.Fatalf("dead-circuit batch leaked blocks: %d free, want %d", free, free0)
	}
}

// TestLoanBatchEmptyAndErrors covers the degenerate inputs.
func TestLoanBatchEmptyAndErrors(t *testing.T) {
	f := newBatchFacility(t, 1)
	sid, _ := f.OpenSend(0, "edge")
	b, err := f.LoanBatch(0, sid, nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := b.CommitAll(); err != nil {
		t.Fatalf("empty CommitAll: %v", err)
	}
	if _, err := f.LoanBatch(0, sid, []int{-1}); err == nil {
		t.Error("negative length accepted")
	}
	huge := f.Arena().NumBlocks() * f.Arena().PayloadSize()
	if _, err := f.LoanBatch(0, sid, []int{huge, huge}); !errors.Is(err, ErrMessageTooBig) {
		t.Errorf("oversized batch = %v, want ErrMessageTooBig", err)
	}
	if _, err := f.LoanBatch(0, ID(99), []int{8}); !errors.Is(err, ErrBadLNVC) {
		t.Errorf("bad id = %v, want ErrBadLNVC", err)
	}
	if _, err := f.LoanBatch(5, sid, []int{8}); !errors.Is(err, ErrBadProcess) {
		t.Errorf("bad pid = %v, want ErrBadProcess", err)
	}
}

// TestHarvestViewsDrain checks the harvest's core contract on one
// circuit: views arrive in FIFO order, already claimed, pinned, and
// the ledger records them as harvested (not per-message view
// receives).
func TestHarvestViewsDrain(t *testing.T) {
	f := newBatchFacility(t, 2)
	sid, _ := f.OpenSend(0, "harvest")
	rid, _ := f.OpenReceive(1, "harvest", FCFS)
	sel, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}

	const k = 6
	b, _ := f.LoanBatch(0, sid, []int{8, 8, 8, 8, 8, 8})
	for i := 0; i < k; i++ {
		buf, _ := b.Bytes(i)
		buf[0] = byte(i)
	}
	if err := b.CommitAll(); err != nil {
		t.Fatal(err)
	}

	vs, err := sel.HarvestViews(k + 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != k {
		t.Fatalf("harvested %d views, want %d", len(vs), k)
	}
	for i, v := range vs {
		if v.Circuit() != rid {
			t.Fatalf("view %d attributed to circuit %d, want %d", i, v.Circuit(), rid)
		}
		buf, ok := v.Bytes()
		if !ok || buf[0] != byte(i) {
			t.Fatalf("view %d out of order or corrupted", i)
		}
	}
	// The claims consumed the messages: nothing is left to receive.
	if ok, _ := f.CheckReceive(1, rid); ok {
		t.Fatal("harvested messages still deliverable")
	}
	ReleaseViews(vs)
	ReleaseViews(vs) // idempotent, like Release
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("release leaked blocks: %d of %d free", free, total)
	}
	st := f.Stats()
	if st.HarvestedViews != k {
		t.Errorf("HarvestedViews = %d, want %d", st.HarvestedViews, k)
	}
	if st.ViewReceives != 0 {
		t.Errorf("ViewReceives = %d, want 0 (harvests are ledgered separately)", st.ViewReceives)
	}
	if st.PayloadCopiesOut != 0 {
		t.Errorf("PayloadCopiesOut = %d, want 0", st.PayloadCopiesOut)
	}
}

// TestHarvestViewsBudget checks the level-trigger under a budget: a
// circuit left with traffic stays armed and the next harvest picks up
// exactly where the last one stopped.
func TestHarvestViewsBudget(t *testing.T) {
	f := newBatchFacility(t, 2)
	sid, _ := f.OpenSend(0, "budget")
	rid, _ := f.OpenReceive(1, "budget", FCFS)
	sel, _ := f.NewSelector(1)
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for got < total {
		vs, err := sel.HarvestViewsDeadline(3, time.Second)
		if err != nil {
			t.Fatalf("after %d of %d: %v", got, total, err)
		}
		if len(vs) > 3 {
			t.Fatalf("budget 3 exceeded: %d views", len(vs))
		}
		for _, v := range vs {
			buf := make([]byte, 4)
			if n := v.CopyTo(buf); n != 1 || buf[0] != byte(got) {
				t.Fatalf("view %d: got %d bytes, first %d", got, n, buf[0])
			}
			got++
		}
		ReleaseViews(vs)
	}
	if _, err := sel.HarvestViewsDeadline(3, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("drained harvest = %v, want ErrTimeout", err)
	}
	if _, err := sel.HarvestViews(0); err == nil {
		t.Error("HarvestViews(0) accepted")
	}
}

// TestHarvestViewsMultiCircuit checks grouping and attribution across
// several ready circuits and that BROADCAST harvests share pins with
// held views correctly.
func TestHarvestViewsMultiCircuit(t *testing.T) {
	f := newBatchFacility(t, 2)
	const circuits = 4
	sel, _ := f.NewSelector(1)
	defer sel.Close()
	rids := make([]ID, circuits)
	sids := make([]ID, circuits)
	for i := 0; i < circuits; i++ {
		name := fmt.Sprintf("mc-%d", i)
		sids[i], _ = f.OpenSend(0, name)
		rids[i], _ = f.OpenReceive(1, name, Broadcast)
		if err := sel.Add(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	perCircuit := 3
	for i := 0; i < circuits; i++ {
		for j := 0; j < perCircuit; j++ {
			if err := f.Send(0, sids[i], []byte{byte(i), byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := make(map[ID]int)
	var all []*View
	for got := 0; got < circuits*perCircuit; {
		vs, err := sel.HarvestViewsDeadline(64, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Views must arrive grouped by circuit (each group in FIFO
		// order), so ReleaseViews batches one transaction per run: a
		// circuit may not reappear within one call after another
		// circuit's views interleaved.
		inCall := make(map[ID]bool)
		last := ID(-1)
		for _, v := range vs {
			if v.Circuit() != last {
				if inCall[v.Circuit()] {
					t.Fatalf("circuit %d split across non-adjacent runs in one harvest", v.Circuit())
				}
				inCall[v.Circuit()] = true
				last = v.Circuit()
			}
			buf := make([]byte, 2)
			v.CopyTo(buf)
			if int(buf[1]) != seen[v.Circuit()] {
				t.Fatalf("circuit %d: message %d out of order", v.Circuit(), buf[1])
			}
			seen[v.Circuit()]++
			got++
		}
		all = append(all, vs...)
	}
	for id, n := range seen {
		if n != perCircuit {
			t.Errorf("circuit %d delivered %d, want %d", id, n, perCircuit)
		}
	}
	ReleaseViews(all)
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("release leaked blocks: %d of %d free", free, total)
	}
}

// TestHarvestViewsDeferredDeath checks that a circuit death observed
// in a round that also claimed views is not swallowed: the views come
// back first and the very next wait/harvest call returns
// ErrNotConnected instead of parking over the dropped registration.
func TestHarvestViewsDeferredDeath(t *testing.T) {
	f := newBatchFacility(t, 3)
	sidB, _ := f.OpenSend(0, "alive")
	ridB, _ := f.OpenReceive(1, "alive", FCFS)
	ridA, _ := f.OpenReceive(1, "dying", FCFS)
	sel, _ := f.NewSelector(1)
	defer sel.Close()
	if err := sel.Add(ridB); err != nil {
		t.Fatal(err)
	}
	if err := sel.Add(ridA); err != nil {
		t.Fatal(err)
	}
	// One deliverable message on the live circuit, then kill the other:
	// both fire into the same harvest round.
	if err := f.Send(0, sidB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseReceive(1, ridA); err != nil {
		t.Fatal(err)
	}
	vs, err := sel.HarvestViewsDeadline(8, time.Second)
	if err != nil {
		t.Fatalf("claiming round: %v", err)
	}
	if len(vs) != 1 {
		t.Fatalf("claimed %d views, want 1", len(vs))
	}
	ReleaseViews(vs)
	// The death must surface now — not hang, not vanish.
	if _, err := sel.HarvestViewsDeadline(8, time.Second); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("next harvest = %v, want ErrNotConnected", err)
	}
	// The selector keeps working on its surviving circuit.
	if err := f.Send(0, sidB, []byte("y")); err != nil {
		t.Fatal(err)
	}
	vs, err = sel.HarvestViewsDeadline(8, time.Second)
	if err != nil || len(vs) != 1 {
		t.Fatalf("post-death harvest: %d views, %v", len(vs), err)
	}
	ReleaseViews(vs)
}

// TestHarvestViewsSurviveClose checks the §5 orphan rule through the
// harvest path: views harvested then held across CloseReceive (and the
// circuit's deletion) stay readable until released, and nothing leaks.
func TestHarvestViewsSurviveClose(t *testing.T) {
	f := newBatchFacility(t, 2)
	sid, _ := f.OpenSend(0, "orphan")
	rid, _ := f.OpenReceive(1, "orphan", FCFS)
	sel, _ := f.NewSelector(1)
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the close")
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	vs, err := sel.HarvestViews(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("harvested %d views, want 2", len(vs))
	}
	// Tear the whole circuit down under the held views.
	if err := sel.Remove(rid); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		buf := make([]byte, 64)
		if n := v.CopyTo(buf); string(buf[:n]) != string(payload) {
			t.Fatalf("held view corrupted after close: %q", buf[:n])
		}
	}
	ReleaseViews(vs)
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("orphan release leaked blocks: %d of %d free", free, total)
	}
}
