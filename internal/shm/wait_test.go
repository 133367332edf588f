package shm

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAllocWaitMultipleWaitersAllServed(t *testing.T) {
	// More waiters than blocks: each Free must eventually let one more
	// waiter through (broadcast wake + retry), with no waiter lost.
	const nBlocks, nWaiters = 2, 6
	a := mustArena(t, 16, nBlocks)
	held := make([]int32, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		held = append(held, allocBlock(t, a))
	}
	got := make(chan int32, nWaiters)
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off, _, err := a.AllocPayload(0, true, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got <- off
		}()
	}
	// Free the held blocks, then bounce blocks from served waiters back.
	for _, off := range held {
		a.FreeChain(off)
	}
	for served := 0; served < nWaiters; served++ {
		select {
		case off := <-got:
			if served < nWaiters-nBlocks {
				a.FreeChain(off) // recycle so the next waiter proceeds
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d waiters served", served, nWaiters)
		}
	}
	wg.Wait()
}

func TestAllocWaitFastPathNoBlock(t *testing.T) {
	a := mustArena(t, 16, 4)
	start := time.Now()
	off, _, err := a.AllocPayload(0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("a waiting AllocPayload blocked despite free blocks")
	}
	a.FreeChain(off)
	st := a.Stats()
	if st.AllocBlocks != 0 {
		t.Fatalf("AllocBlocks = %d, want 0", st.AllocBlocks)
	}
}

// TestWokenWaiterTakesTheLockOnce counts free-pool lock acquisitions
// around one blocked payload allocation: the free that wakes it, and the
// one hold in which the woken waiter retries (the free already cleared
// its registration) — and on the abort path (de-register, unlock, error:
// one acquisition).
func TestWokenWaiterTakesTheLockOnce(t *testing.T) {
	a := mustArena(t, 16, 1)
	held := allocBlock(t, a)
	for _, abort := range []bool{false, true} {
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			head, _, err := a.AllocPayload(1, true, stop)
			if err == nil {
				held = head
			}
			done <- err
		}()
		for a.waitersNow() == 0 {
			time.Sleep(time.Millisecond)
		}
		before, _ := a.LockStats()
		want := uint64(2) // the free, the waiter's retry
		if abort {
			close(stop)
			want = 1 // the waiter's de-registration
		} else {
			a.FreeChain(held)
		}
		err := <-done
		if abort != (err != nil) {
			t.Fatalf("abort %v: AllocPayload returned %v", abort, err)
		}
		if after, _ := a.LockStats(); after-before != want {
			t.Errorf("abort %v: %d lock acquisitions around the wake, want %d", abort, after-before, want)
		}
	}
	if n := a.waitersNow(); n != 0 {
		t.Errorf("%d waiters still registered", n)
	}
}

// TestFreeWhileParkedAllocatesNothing holds the wake rule: a park costs
// at most one channel, so the frees that arrive while a woken allocation
// is on its way back to the lock are plain unlocks. The parked
// allocation wants the whole region, which the loop never gives it: each
// run frees one block and takes it straight back.
func TestFreeWhileParkedAllocatesNothing(t *testing.T) {
	const nBlocks = 8
	a := mustArena(t, 16, nBlocks)
	held := make([]int32, nBlocks)
	for i := range held {
		held[i] = allocBlock(t, a)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := a.AllocPayload(nBlocks*a.PayloadSize(), true, stop)
		done <- err
	}()
	for a.waitersNow() == 0 {
		time.Sleep(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a.FreeChain(held[0])
		head, _, err := a.AllocPayload(1, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		held[0] = head
	})
	close(stop)
	if err := <-done; !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("parked whole-region allocation returned %v, want ErrOutOfBlocks", err)
	}
	if allocs != 0 {
		t.Errorf("%v heap allocations per free while an allocation is parked, want 0", allocs)
	}
	a.FreeChains(held)
	if n := a.waitersNow(); n != 0 {
		t.Errorf("%d waiters still registered", n)
	}
	if st := a.Stats(); st.Wakes > st.AllocBlocks {
		t.Errorf("%d wakes for %d parks", st.Wakes, st.AllocBlocks)
	}
}

// TestAbortRacingAWakeStrandsNoWaiter: a parked allocation's stop fires
// and, before it gets back to the lock, a free closes its channel and
// clears the registrations on it. The aborting allocation must then
// leave the count alone: decrementing it would drop the count below the
// sleepers on the current channel, and the next parked allocation would
// sleep through the free meant for it. Holding the free-pool lock across
// the abort makes that interleaving certain.
func TestAbortRacingAWakeStrandsNoWaiter(t *testing.T) {
	a := mustArena(t, 16, 2)
	first, second := allocBlock(t, a), allocBlock(t, a)
	type result struct {
		head int32
		err  error
	}
	park := func(stop chan struct{}) chan result {
		done := make(chan result, 1)
		parks := a.Stats().AllocBlocks
		go func() {
			head, _, err := a.AllocPayload(2*a.PayloadSize(), true, stop)
			done <- result{head, err}
		}()
		for a.Stats().AllocBlocks == parks {
			time.Sleep(100 * time.Microsecond)
		}
		return done
	}
	stop := make(chan struct{})
	aborted := park(stop)
	a.mu.Lock()
	_, contended := a.LockStats()
	close(stop)
	for {
		if _, c := a.LockStats(); c > contended {
			break // the aborting allocation waits behind this hold
		}
		time.Sleep(100 * time.Microsecond)
	}
	a.freeSpanLocked(first) // FreeChain(first), inside the hold
	a.wakeAndUnlock()
	if r := <-aborted; !errors.Is(r.err, ErrOutOfBlocks) {
		t.Fatalf("aborted allocation returned %v, want ErrOutOfBlocks", r.err)
	}
	if n := a.waitersNow(); n != 0 {
		t.Fatalf("%d waiters registered after the abort, want 0", n)
	}
	served := park(nil)
	a.FreeChain(second)
	select {
	case r := <-served:
		if r.err != nil {
			t.Fatal(r.err)
		}
		a.FreeChain(r.head)
	case <-time.After(10 * time.Second):
		t.Fatal("an allocation parked after the abort was stranded")
	}
}

// TestArenaWaitStress drives the wait loop from every side at once:
// eight allocating goroutines with demands from one block to the whole
// region, two of which abort through their own stop at a random moment,
// and one goroutine churning frees of blocks it holds. No allocation
// that was not aborted may be stranded, and at the end every block is
// free and no registration is left.
func TestArenaWaitStress(t *testing.T) {
	const (
		nBlocks  = 16
		nWaiters = 8
		rounds   = 200
		steps    = 2000 // churner alloc/free steps
	)
	a := mustArena(t, 16, nBlocks)
	p := a.PayloadSize()
	var wg sync.WaitGroup
	// Churn: hold up to a few small chains taken without waiting, and
	// free one at random, so frees keep landing on parked allocations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(-1))
		var mine []int32
		for s := 0; s < steps; s++ {
			if len(mine) < 4 && rng.Intn(2) == 0 {
				if head, _, err := a.AllocPayload((1+rng.Intn(3))*p, false, nil); err == nil {
					mine = append(mine, head)
				}
			} else if len(mine) > 0 {
				i := rng.Intn(len(mine))
				a.FreeChain(mine[i])
				mine[i] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
		a.FreeChains(mine)
	}()
	finished := make([]chan struct{}, nWaiters)
	served := make([]int, nWaiters) // written by waiter i only
	for i := range finished {
		demand := 1 + i*(nBlocks-1)/(nWaiters-1) // 1 … nBlocks
		abort := i%4 == 1
		stop := make(chan struct{})
		finished[i] = make(chan struct{})
		rng := rand.New(rand.NewSource(int64(i)))
		if abort {
			time.AfterFunc(time.Duration(rng.Intn(5000))*time.Microsecond, func() { close(stop) })
		}
		wg.Add(1)
		go func(i, demand int, abort bool, stop chan struct{}, rng *rand.Rand) {
			defer wg.Done()
			defer close(finished[i])
			for r := 0; abort || r < rounds; r++ {
				if abort {
					select {
					case <-stop:
						return
					default:
					}
				}
				head, _, err := a.AllocPayload(demand*p, true, stop)
				if err != nil {
					if !abort {
						t.Errorf("waiter %d (demand %d): %v", i, demand, err)
					}
					return
				}
				served[i]++
				if rng.Intn(2) == 0 {
					runtime.Gosched()
				}
				a.FreeChain(head)
			}
		}(i, demand, abort, stop, rng)
	}
	deadline := time.After(10 * time.Second)
	for i, fin := range finished {
		select {
		case <-fin:
		case <-deadline:
			t.Fatalf("waiter %d not served within 10 s (%d rounds done)", i, served[i])
		}
	}
	wg.Wait()
	if free, total := a.FreeBlocks(), a.NumBlocks(); free != total {
		t.Errorf("%d of %d blocks free at the end", free, total)
	}
	if n := a.waitersNow(); n != 0 {
		t.Errorf("%d waiters still registered", n)
	}
	st := a.Stats()
	if st.AllocBlocks == 0 {
		t.Error("no allocation ever parked; the stress exercised nothing")
	}
	if st.Wakes > st.AllocBlocks {
		t.Errorf("%d wakes for %d parks", st.Wakes, st.AllocBlocks)
	}
	t.Logf("%d parks, %d wakes, served %v", st.AllocBlocks, st.Wakes, served)
}

func (a *Arena) waitersNow() int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters
}
