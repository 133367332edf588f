package msg

import (
	"bytes"
	"testing"

	"repro/internal/shm"
)

func TestBuildBatchRoundTrip(t *testing.T) {
	arena, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(arena, 0)
	bufs := [][]byte{
		[]byte("short"),
		bytes.Repeat([]byte{0x5A}, 50), // spans several 12-byte payloads
		nil,                            // zero-length message still gets a block
	}
	msgs, err := p.BuildBatch(7, bufs, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("%d messages, want 3", len(msgs))
	}
	out := make([]byte, 64)
	for i, m := range msgs {
		if m.Sender != 7 {
			t.Errorf("message %d sender = %d, want 7", i, m.Sender)
		}
		if err := p.Check(m); err != nil {
			t.Errorf("message %d: %v", i, err)
		}
		n := p.Extract(m, out)
		if !bytes.Equal(out[:n], bufs[i]) {
			t.Errorf("message %d: payload mismatch (%d bytes)", i, n)
		}
	}
	for _, m := range msgs {
		p.Release(m)
	}
	if free := arena.FreeBlocks(); free != 64 {
		t.Errorf("%d blocks free after release, want 64", free)
	}
}

func TestBuildBatchFailureLeaksNothing(t *testing.T) {
	arena, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(arena, 0)
	// 5 single-block messages cannot fit a 4-block region.
	bufs := make([][]byte, 5)
	for i := range bufs {
		bufs[i] = []byte{byte(i)}
	}
	if _, err := p.BuildBatch(0, bufs, false, nil); err == nil {
		t.Fatal("oversized batch succeeded")
	}
	if free := arena.FreeBlocks(); free != 4 {
		t.Errorf("failed batch leaked: %d blocks free, want 4", free)
	}
	if msgs, err := p.BuildBatch(0, nil, false, nil); err != nil || msgs != nil {
		t.Errorf("empty batch: %v, %v", msgs, err)
	}
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
