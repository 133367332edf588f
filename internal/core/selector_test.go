package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSelectorImmediateReady(t *testing.T) {
	f := newFac(t)
	sa, _ := f.OpenSend(0, "sel-a")
	ra, _ := f.OpenReceive(1, "sel-a", FCFS)
	if err := f.Send(0, sa, []byte("early")); err != nil {
		t.Fatal(err)
	}
	s, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The message predates Add: the circuit must be ready at once.
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	ready, err := s.WaitDeadline(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0] != ra {
		t.Fatalf("ready = %v, want [%d]", ready, ra)
	}
}

func TestSelectorWakesOnlyForItsCircuit(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "sel-a")
	sb, _ := f.OpenSend(0, "sel-b")
	ra, _ := f.OpenReceive(1, "sel-a", FCFS)
	rb, _ := f.OpenReceive(1, "sel-b", Broadcast)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rb); err != nil {
		t.Fatal(err)
	}

	type result struct {
		ids []ID
		err error
	}
	got := make(chan result, 1)
	go func() {
		ids, err := s.Wait()
		got <- result{ids, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("Wait returned with nothing sent: %+v", r)
	case <-time.After(30 * time.Millisecond):
	}
	if err := f.Send(0, sb, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.ids) != 1 || r.ids[0] != rb {
			t.Fatalf("ready = %v, want [%d]", r.ids, rb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never woke for a send on a registered circuit")
	}
	// The message is still there (Wait does not consume); drain it.
	buf := make([]byte, 8)
	if n, ok, err := f.TryReceive(1, rb, buf); err != nil || !ok || string(buf[:n]) != "wake" {
		t.Fatalf("TryReceive after Wait: n=%d ok=%v err=%v", n, ok, err)
	}
}

func TestSelectorRemoveStopsWakeups(t *testing.T) {
	f := newFac(t)
	sa, _ := f.OpenSend(0, "sel-rm")
	ra, _ := f.OpenReceive(1, "sel-rm", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(ra); err != nil {
		t.Fatal(err)
	}
	if s.Has(ra) || s.Len() != 0 {
		t.Fatalf("registration survived Remove: len=%d", s.Len())
	}
	if err := f.Send(0, sa, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Empty selector: Wait must refuse rather than hang.
	if _, err := s.WaitDeadline(50 * time.Millisecond); !errors.Is(err, ErrBadLNVC) {
		t.Fatalf("Wait on empty selector: %v", err)
	}
	// Re-add: the queued message makes it ready again (level-trigger).
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	ready, err := s.WaitDeadline(time.Second)
	if err != nil || len(ready) != 1 {
		t.Fatalf("after re-add: ready=%v err=%v", ready, err)
	}
}

func TestSelectorValidation(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "sel-v")
	rid, _ := f.OpenReceive(1, "sel-v", FCFS)
	if _, err := f.NewSelector(-1); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("bad pid: %v", err)
	}
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(99); !errors.Is(err, ErrBadLNVC) {
		t.Fatalf("bad id: %v", err)
	}
	// pid 1 holds no receive connection on pid 0's send-only view.
	s0, _ := f.NewSelector(0)
	defer s0.Close()
	if err := s0.Add(sid); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send-only add: %v", err)
	}
	if err := s.Add(rid); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rid); !errors.Is(err, ErrAlreadyOpen) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := s.Remove(77); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("remove unregistered: %v", err)
	}
	if _, err := s.WaitDeadline(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("zero deadline: %v", err)
	}
}

func TestSelectorDeadline(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "sel-d")
	rid, _ := f.OpenReceive(1, "sel-d", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(rid); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := s.WaitDeadline(40 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("returned before deadline")
	}
}

func TestSelectorShutdownWhileParked(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "sel-s")
	rid, _ := f.OpenReceive(1, "sel-s", FCFS)
	s, _ := f.NewSelector(1)
	if err := s.Add(rid); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Wait()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f.Shutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Selector.Wait ignored Shutdown")
	}
}

func TestSelectorCloseWhileParked(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "sel-c")
	rid, _ := f.OpenReceive(1, "sel-c", FCFS)
	s, _ := f.NewSelector(1)
	if err := s.Add(rid); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Wait()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSelectorClosed) {
			t.Fatalf("err = %v, want ErrSelectorClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Selector.Wait ignored Close")
	}
	// Closed selector fails everything, idempotently.
	if err := s.Add(rid); !errors.Is(err, ErrSelectorClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := s.Remove(rid); !errors.Is(err, ErrSelectorClosed) {
		t.Fatalf("Remove after Close: %v", err)
	}
	if _, err := s.Wait(); !errors.Is(err, ErrSelectorClosed) {
		t.Fatalf("Wait after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSelectorDeadCircuitKeepsSurvivorReadiness pins the fix for the
// harvest-discard bug: when Wait returns ErrNotConnected for a circuit
// closed while parked, readiness already harvested for the *other*
// circuits in the same round must be re-marked, so the next Wait
// returns them instead of parking forever (their level-trigger had
// already been consumed).
func TestSelectorDeadCircuitKeepsSurvivorReadiness(t *testing.T) {
	f := newFac(t)
	sa, _ := f.OpenSend(0, "dsur-a")
	_, _ = f.OpenSend(0, "dsur-b")
	ra, _ := f.OpenReceive(1, "dsur-a", FCFS)
	rb, _ := f.OpenReceive(1, "dsur-b", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rb); err != nil {
		t.Fatal(err)
	}
	// Make A ready and B dead before Wait harvests either.
	if err := f.Send(0, sa, []byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseReceive(1, rb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitDeadline(time.Second); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("first Wait: %v, want ErrNotConnected", err)
	}
	// A's message must still surface — without new traffic.
	ready, err := s.WaitDeadline(time.Second)
	if err != nil {
		t.Fatalf("second Wait after dead-circuit error: %v", err)
	}
	if len(ready) != 1 || ready[0] != ra {
		t.Fatalf("ready = %v, want [%d]", ready, ra)
	}
}

// TestSelectorLevelTriggeredPartialDrain pins the level-trigger
// contract: a circuit whose queue the caller drains only partially
// must be reported ready again by the next Wait, without new traffic.
func TestSelectorLevelTriggeredPartialDrain(t *testing.T) {
	f := newFac(t)
	sa, _ := f.OpenSend(0, "lt")
	ra, _ := f.OpenReceive(1, "lt", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Send(0, sa, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1)
	for i := 0; i < 3; i++ {
		ready, err := s.WaitDeadline(time.Second)
		if err != nil || len(ready) != 1 || ready[0] != ra {
			t.Fatalf("Wait %d: ready=%v err=%v", i, ready, err)
		}
		// Consume exactly one of the queued messages per Wait.
		if _, ok, err := f.TryReceive(1, ra, buf); err != nil || !ok {
			t.Fatalf("TryReceive %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Fully drained now: the selector must settle back to quiet.
	if _, err := s.WaitDeadline(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("drained circuit still reported ready: %v", err)
	}
}

// TestSelectorWaiterRecycleABA pins the generation check on waiter
// removal: a selector registered on a circuit whose descriptor *and*
// a different id are recycled to a new circuit — which the same
// selector then Adds — must not have the new registration's waiter
// entry stripped when the stale registration is removed.
func TestSelectorWaiterRecycleABA(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 8, MaxProcesses: 4, RegistryShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	// Two names in different shards: freeing both descriptors and both
	// ids, then reopening in the first shard, re-pairs that shard's
	// descriptor with the *other* name's id (descriptor free lists are
	// per-shard, the id pool is global, both LIFO).
	nameA := "aba-a"
	nameB := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("aba-b%d", i)
		if f.shardIndex(cand) != f.shardIndex(nameA) {
			nameB = cand
			break
		}
	}
	ra, err := f.OpenReceive(1, nameA, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := f.OpenReceive(1, nameB, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	// Kill both circuits (descriptor of nameA and both ids freed),
	// then reopen in nameA's shard: same descriptor, different id.
	if err := f.CloseReceive(1, ra); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseReceive(1, rb); err != nil {
		t.Fatal(err)
	}
	rc, err := f.OpenReceive(1, nameA, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if rc == ra {
		t.Skipf("recycling did not cross ids (got %d again); layout changed", rc)
	}
	if err := s.Add(rc); err != nil {
		t.Fatal(err)
	}
	// Removing the stale registration (old id, same descriptor) must
	// not strip the new registration's waiter entry.
	if err := s.Remove(ra); err != nil && !errors.Is(err, ErrNotConnected) {
		t.Fatal(err)
	}
	sid, err := f.OpenSend(0, nameA)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, sid, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	ready, err := s.WaitDeadline(time.Second)
	if err != nil {
		t.Fatalf("wakeup lost after stale-registration removal: %v", err)
	}
	if len(ready) != 1 || ready[0] != rc {
		t.Fatalf("ready = %v, want [%d]", ready, rc)
	}
}

func TestSelectorManyCircuitsOnlyReadyReturned(t *testing.T) {
	const circuits = 32
	f, err := Init(Config{MaxLNVCs: circuits + 2, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	s, _ := f.NewSelector(1)
	defer s.Close()
	sends := make([]ID, circuits)
	recvs := make([]ID, circuits)
	for i := 0; i < circuits; i++ {
		name := fmt.Sprintf("many-%d", i)
		sends[i], _ = f.OpenSend(0, name)
		recvs[i], err = f.OpenReceive(1, name, FCFS)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(recvs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly two of 32 circuits become ready.
	for _, i := range []int{5, 17} {
		if err := f.Send(0, sends[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ready, err := s.WaitDeadline(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ID]bool{recvs[5]: true, recvs[17]: true}
	if len(ready) != 2 || !want[ready[0]] || !want[ready[1]] || ready[0] == ready[1] {
		t.Fatalf("ready = %v, want circuits 5 and 17 (%d, %d)", ready, recvs[5], recvs[17])
	}
}

// TestHarvestInvalidBudget: a non-positive budget is an error, with a
// core-prefixed message since it originates below the facade, from both
// the blocking and the deadline form.
func TestHarvestInvalidBudget(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "inv")
	_, _ = f.OpenReceive(1, "inv", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(0); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, -3} {
		want := fmt.Sprintf("core: HarvestViews with non-positive budget %d", budget)
		if _, err := s.HarvestViews(budget); err == nil || err.Error() != want {
			t.Fatalf("HarvestViews(%d) error %v, want %q", budget, err, want)
		}
		if _, err := s.HarvestViewsDeadline(budget, time.Second); err == nil || err.Error() != want {
			t.Fatalf("HarvestViewsDeadline(%d) error %v, want %q", budget, err, want)
		}
	}
}

// TestSelectorBystandersNotWoken holds the per-circuit waiter lists to
// their claim: with 8 selectors parked over 8 circuits each (64 in all)
// and 300 messages sent on one circuit, a message costs about one park
// wakeup — the hot selector's — and the 7 bystanders none. The sender
// waits for each message to be drained before sending the next, so no
// two messages share a wakeup. No park has a deadline, so no wakeup is
// a timeout, and one attempt decides.
func TestSelectorBystandersNotWoken(t *testing.T) {
	const (
		selectors   = 8
		circuitsPer = 8
		msgs        = 300
		maxWakeups  = 1.25
		maxSpurious = 0.25
	)
	f, err := Init(Config{MaxLNVCs: selectors*circuitsPer + 4, MaxProcesses: selectors + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sels := make([]*Selector, selectors)
	for p := range sels {
		if sels[p], err = f.NewSelector(p); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < circuitsPer; c++ {
			id, err := f.OpenReceive(p, fmt.Sprintf("herd-%d-%d", p, c), FCFS)
			if err != nil {
				t.Fatal(err)
			}
			if err := sels[p].Add(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	sender := selectors
	sid, err := f.OpenSend(sender, "herd-0-0")
	if err != nil {
		t.Fatal(err)
	}

	bystanders := make(chan error, selectors-1)
	for _, sel := range sels[1:] {
		go func(sel *Selector) {
			ids, err := sel.Wait()
			if err == nil {
				err = fmt.Errorf("a bystander's Wait returned circuits %v", ids)
			}
			bystanders <- err
		}(sel)
	}
	// Room for every send the consumer can make, so it never blocks on
	// a test that has already failed.
	drained := make(chan error, msgs+1)
	go func() {
		buf := make([]byte, 16)
		for got := 0; got < msgs; {
			ids, err := sels[0].Wait()
			if err != nil {
				drained <- err
				return
			}
			for _, id := range ids {
				for {
					_, ok, err := f.TryReceive(0, id, buf)
					if err != nil {
						drained <- err
						return
					}
					if !ok {
						break
					}
					got++
					drained <- nil
				}
			}
		}
	}()

	base := f.Stats()
	payload := make([]byte, 16)
	for k := 0; k < msgs; k++ {
		if err := f.Send(sender, sid, payload); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	f.Shutdown()
	for range sels[1:] {
		if err := <-bystanders; !errors.Is(err, ErrShutdown) {
			t.Errorf("bystander: %v, want ErrShutdown", err)
		}
	}
	wakeups := float64(st.MuxWakeups-base.MuxWakeups) / msgs
	spurious := float64(st.MuxSpurious-base.MuxSpurious) / msgs
	t.Logf("%.3f wakeups and %.3f spurious wakeups per message", wakeups, spurious)
	if wakeups > maxWakeups || spurious > maxSpurious {
		t.Errorf("%.2f wakeups and %.2f spurious wakeups per message, want at most %.2f and %.2f",
			wakeups, spurious, maxWakeups, maxSpurious)
	}
}
