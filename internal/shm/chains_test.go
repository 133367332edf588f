package shm

import (
	"errors"
	"testing"
	"time"
)

// The properties of a batch of chains, allocated by AllocPayloads.

func TestAllocChainsOneTransaction(t *testing.T) {
	a := mustArena(t, 16, 32)
	before, _ := a.LockStats()
	heads, tails, err := a.AllocPayloads([]int{36, 12, 60}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := a.LockStats(); after-before != 1 {
		t.Errorf("batch of 3 chains took %d lock acquisitions, want 1", after-before)
	}
	if len(heads) != 3 {
		t.Fatalf("%d heads, want 3", len(heads))
	}
	used := 0
	for i, want := range []int{3, 1, 4} { // ceil((n+4)/16) blocks, one span each
		if got := a.ChainBlocks(heads[i]); got != want {
			t.Errorf("chain %d covers %d blocks, want %d", i, got, want)
		}
		used += want
		end := heads[i]
		for next := a.Next(end); next != NilOffset; next = a.Next(end) {
			end = next
		}
		if tails[i] != end {
			t.Errorf("chain %d tail = %d, want chain end %d", i, tails[i], end)
		}
	}
	if free := a.FreeBlocks(); free != 32-used {
		t.Errorf("%d blocks free, want %d", free, 32-used)
	}
	for _, h := range heads {
		a.FreeChain(h)
	}
	if free := a.FreeBlocks(); free != 32 {
		t.Errorf("%d blocks free after FreeChain, want 32", free)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocChainsAllOrNothing(t *testing.T) {
	a := mustArena(t, 16, 8)
	held := allocBlock(t, a)
	// Demand exceeding the free count (but not the region) fails without
	// allocating anything.
	if _, _, err := a.AllocPayloads([]int{48, 48}, false, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("err = %v, want ErrOutOfBlocks", err)
	}
	if free := a.FreeBlocks(); free != 7 {
		t.Errorf("failed batch leaked: %d blocks free, want 7", free)
	}
	// Demand exceeding the whole region fails even with wait set —
	// waiting could never succeed.
	if _, _, err := a.AllocPayloads([]int{97}, true, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("oversized wait: err = %v, want ErrOutOfBlocks", err)
	}
	// Zero-length batch is a no-op.
	heads, tails, err := a.AllocPayloads(nil, false, nil)
	if err != nil || heads != nil || tails != nil {
		t.Errorf("empty batch: %v, %v", heads, err)
	}
	// A negative payload length is rejected.
	if _, _, err := a.AllocPayloads([]int{2, -1}, false, nil); err == nil {
		t.Error("payload of -1 bytes accepted")
	}
	a.FreeChain(held)
}

func TestAllocChainsWaitsForFrees(t *testing.T) {
	a := mustArena(t, 16, 4)
	held, _, err := a.AllocPayloads([]int{36}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []int32, 1)
	go func() {
		heads, _, err := a.AllocPayloads([]int{36}, true, nil)
		if err != nil {
			done <- nil
			return
		}
		done <- heads
	}()
	select {
	case <-done:
		t.Fatal("AllocPayloads returned before blocks were freed")
	case <-time.After(30 * time.Millisecond):
	}
	a.FreeChain(held[0])
	select {
	case heads := <-done:
		if heads == nil {
			t.Fatal("waiting AllocPayloads failed")
		}
		if got := a.ChainBlocks(heads[0]); got != 3 {
			t.Errorf("chain covers %d blocks, want 3", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AllocPayloads did not wake after FreeChain")
	}
}

func TestAllocChainsStopAborts(t *testing.T) {
	a := mustArena(t, 16, 2)
	if _, _, err := a.AllocPayloads([]int{24}, false, nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := a.AllocPayloads([]int{1}, true, stop)
		done <- err
	}()
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, ErrOutOfBlocks) {
			t.Errorf("err = %v, want ErrOutOfBlocks", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not abort the wait")
	}
}
