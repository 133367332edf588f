package shm

import (
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
		off, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, off)
	}
	got := make(chan int32, nWaiters)
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off, err := a.AllocWait(nil)
			if err != nil {
				t.Error(err)
				return
			}
			got <- off
		}()
	}
	// Release blocks one at a time; after each release one waiter gets
	// a block. Keep recycling what waiters return… simpler: free the 2
	// held, then bounce blocks from satisfied waiters back in.
	for _, off := range held {
		a.Free(off)
	}
	for served := 0; served < nWaiters; served++ {
		select {
		case off := <-got:
			if served < nWaiters-nBlocks {
				a.Free(off) // recycle so the next waiter proceeds
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
	off, err := a.AllocWait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("AllocWait blocked despite free blocks")
	}
	a.Free(off)
	st := a.Stats()
	if st.AllocBlocks != 0 {
		t.Fatalf("AllocBlocks = %d, want 0", st.AllocBlocks)
	}
}

// TestWokenWaiterTakesTheLockOnce counts free-pool lock acquisitions
// around one blocked payload allocation: the free that wakes it, and the
// one hold in which the woken waiter de-registers itself and retries —
// in either mode, and on the abort path (de-register, unlock, error: one acquisition, as before).
func TestWokenWaiterTakesTheLockOnce(t *testing.T) {
	for _, spans := range []bool{false, true} {
		a, err := New(Config{BlockSize: 16, NumBlocks: 1, Spans: spans})
		if err != nil {
			t.Fatal(err)
		}
		held, _, err := a.AllocPayload(1, false, nil)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("spans %v, abort %v: AllocPayload returned %v", spans, abort, err)
			}
			if after, _ := a.LockStats(); after-before != want {
				t.Errorf("spans %v, abort %v: %d lock acquisitions around the wake, want %d", spans, abort, after-before, want)
			}
		}
		if n := a.waitersNow(); n != 0 {
			t.Errorf("spans %v: %d waiters still registered", spans, n)
		}
	}
}

func (a *Arena) waitersNow() int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters
}
