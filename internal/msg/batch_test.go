package msg

import (
	"bytes"
	"testing"

	"repro/internal/shm"
)

func TestBuildBatchFailureLeaksNothing(t *testing.T) {
	arena, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(arena, 0)
	// 5 single-block messages cannot fit a 4-block region.
	if _, err := p.BuildLoanBatch(0, []int{1, 1, 1, 1, 1}, false, nil); err == nil {
		t.Fatal("oversized batch succeeded")
	}
	if free := arena.FreeBlocks(); free != 4 {
		t.Errorf("failed batch leaked: %d blocks free, want 4", free)
	}
	// The region is whole: a batch that fits still builds.
	msgs, err := p.BuildLoanBatch(0, []int{1, 1, 1, 1}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.ReleaseBatch(msgs)
}

// TestBuildLoanBatchReleaseBatch checks the batched loan build (one
// arena transaction, uninitialised payload-shaped chains) and the
// batched release (one free transaction).
func TestBuildLoanBatchReleaseBatch(t *testing.T) {
	arena, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(arena, 0)
	ns := []int{5, 40, 0, 100}
	allocBefore, _ := arena.LockStats()
	msgs, err := p.BuildLoanBatch(7, ns, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := arena.LockStats(); got-allocBefore != 1 {
		t.Errorf("BuildLoanBatch took %d lock acquisitions, want 1", got-allocBefore)
	}
	if len(msgs) != len(ns) {
		t.Fatalf("built %d messages, want %d", len(msgs), len(ns))
	}
	for i, m := range msgs {
		if m.Length != ns[i] || m.Sender != 7 {
			t.Errorf("message %d header: len=%d sender=%d", i, m.Length, m.Sender)
		}
		if err := p.Check(m); err != nil {
			t.Errorf("message %d: %v", i, err)
		}
		// The loaned window is writable and round-trips.
		v := p.View(m)
		buf := make([]byte, ns[i])
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if n := v.CopyFrom(buf); n != ns[i] {
			t.Errorf("message %d fill wrote %d of %d", i, n, ns[i])
		}
		out := make([]byte, ns[i])
		v.CopyTo(out)
		if !bytes.Equal(out, buf) {
			t.Errorf("message %d payload corrupted", i)
		}
	}
	freeBefore, _ := arena.LockStats()
	p.ReleaseBatch(msgs)
	if got, _ := arena.LockStats(); got-freeBefore != 1 {
		t.Errorf("ReleaseBatch took %d lock acquisitions, want 1", got-freeBefore)
	}
	if free := arena.FreeBlocks(); free != arena.NumBlocks() {
		t.Errorf("%d of %d blocks free after ReleaseBatch", free, arena.NumBlocks())
	}
	if msgs, err = p.BuildLoanBatch(1, nil, false, nil); err != nil || msgs != nil {
		t.Errorf("empty batch: msgs=%v err=%v", msgs, err)
	}
}
