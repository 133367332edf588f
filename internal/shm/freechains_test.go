package shm

import "testing"

// TestFreeChainsOneTransaction checks the batched free transaction:
// several chains returned under one lock acquisition, with the free pool
// intact afterwards.
func TestFreeChainsOneTransaction(t *testing.T) {
	a := mustArena(t, 16, 64)
	heads := make([]int32, 0, 5)
	for i := 0; i < 4; i++ {
		head, _, err := a.AllocPayload(40, false, nil) // multi-block spans
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, head)
	}
	heads = append(heads, NilOffset) // tolerated and skipped

	acqBefore, _ := a.LockStats()
	a.FreeChains(heads)
	acqAfter, _ := a.LockStats()
	if got := acqAfter - acqBefore; got != 1 {
		t.Errorf("FreeChains took %d lock acquisitions, want 1", got)
	}
	if free := a.FreeBlocks(); free != a.NumBlocks() {
		t.Errorf("%d of %d blocks free after FreeChains", free, a.NumBlocks())
	}
	if err := a.CheckFreeList(); err != nil {
		t.Error(err)
	}
	// The pool is fully reusable: the whole region allocates again.
	if _, _, err := a.AllocPayloads([]int{a.NumBlocks() * a.PayloadSize() / 2}, false, nil); err != nil {
		t.Errorf("realloc after FreeChains: %v", err)
	}
}

// TestFreeChainsEmpty checks the degenerate inputs take no lock.
func TestFreeChainsEmpty(t *testing.T) {
	a := mustArena(t, 16, 8)
	acqBefore, _ := a.LockStats()
	a.FreeChains(nil)
	a.FreeChains([]int32{NilOffset, NilOffset})
	if acqAfter, _ := a.LockStats(); acqAfter != acqBefore {
		t.Errorf("empty FreeChains acquired the lock %d times", acqAfter-acqBefore)
	}
}
