package shm

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// comb allocates every free block of a fresh arena as a one-block span
// and frees every other one, the first included, so that no free run is
// longer than one block: a payload of several blocks must be chained, one
// block per element — the shape the paper's linked free list gave every
// payload. It returns the blocks still held.
func comb(tb testing.TB, a *Arena) (teeth []int32) {
	tb.Helper()
	heads, _, err := a.AllocPayloads(make([]int, a.FreeBlocks()), false, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, h := range heads {
		if i%2 == 0 {
			a.FreeChain(h)
		} else {
			teeth = append(teeth, h)
		}
	}
	return teeth
}

func TestSpanAllocPayloadContiguous(t *testing.T) {
	a := mustArena(t, 16, 64)
	// 100 payload bytes fit one span of ceil(104/16) = 7 blocks: the span
	// carries a single 4-byte link word however many blocks it covers.
	head, tail, err := a.AllocPayload(100, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if head != tail {
		t.Fatalf("contiguous alloc split: head %d, tail %d", head, tail)
	}
	if got := a.ChainLen(head); got != 1 {
		t.Fatalf("chain has %d segments, want 1", got)
	}
	if got := a.ChainBlocks(head); got != 7 {
		t.Fatalf("span covers %d blocks, want 7", got)
	}
	if got := len(a.SegPayload(head)); got != 7*16-4 {
		t.Fatalf("segment payload %d bytes, want %d", got, 7*16-4)
	}
	a.FreeChain(head)
	if free := a.FreeBlocks(); free != 64 {
		t.Fatalf("%d blocks free after FreeChain, want 64", free)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanFragmentationFallsBackToChains(t *testing.T) {
	a := mustArena(t, 16, 16)
	// Fragment the region: the longest free run is a single block.
	teeth := comb(t, a)
	// 60 payload bytes need ceil(60/12) = 5 single-block spans.
	head, tail, err := a.AllocPayload(60, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ChainLen(head); got != 5 {
		t.Fatalf("fragmented alloc built %d segments, want 5", got)
	}
	if head == tail {
		t.Fatal("fragmented alloc claims to be contiguous")
	}
	// Capacity across segments covers the payload.
	capacity := 0
	for off := head; off != NilOffset; off = a.Next(off) {
		capacity += len(a.SegPayload(off))
	}
	if capacity < 60 {
		t.Fatalf("chain capacity %d < 60", capacity)
	}
	a.FreeChain(head)
	a.FreeChains(teeth)
	if free := a.FreeBlocks(); free != 16 {
		t.Fatalf("%d blocks free, want 16", free)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanWriteReadChainRoundtrip(t *testing.T) {
	a := mustArena(t, 16, 64)
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	head, _, err := a.AllocPayload(len(payload), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.WriteChain(head, payload); n != len(payload) {
		t.Fatalf("wrote %d bytes, want %d", n, len(payload))
	}
	got := make([]byte, len(payload))
	if n := a.ReadChain(head, len(payload), got); n != len(payload) {
		t.Fatalf("read %d bytes, want %d", n, len(payload))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across chain")
	}
	a.FreeChain(head)
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanAllocPayloadsBatch(t *testing.T) {
	a := mustArena(t, 16, 64)
	heads, tails, err := a.AllocPayloads([]int{10, 200, 0}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(heads) != 3 || len(tails) != 3 {
		t.Fatalf("got %d heads, %d tails, want 3 each", len(heads), len(tails))
	}
	for i, h := range heads {
		end := h
		for next := a.Next(end); next != NilOffset; next = a.Next(end) {
			end = next
		}
		if tails[i] != end {
			t.Errorf("chain %d tail %d does not match end %d", i, tails[i], end)
		}
	}
	for _, h := range heads {
		a.FreeChain(h)
	}
	if free := a.FreeBlocks(); free != 64 {
		t.Fatalf("%d blocks free after batch free, want 64", free)
	}
}

func TestSpanExhaustionAndWait(t *testing.T) {
	a := mustArena(t, 16, 8)
	// Demand accounting is the fully-fragmented worst case (BlocksFor), so
	// 96 bytes = 8 blocks of 12 payload bytes is the largest payload this
	// region admits; as a span it takes only ceil(100/16) = 7 blocks.
	head, _, err := a.AllocPayload(96, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ChainBlocks(head); got != 7 {
		t.Fatalf("span covers %d blocks, want 7", got)
	}
	single := allocBlock(t, a)
	defer a.FreeChain(single)
	if _, _, err := a.AllocPayload(1, false, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("err = %v, want ErrOutOfBlocks", err)
	}
	// Demand beyond the region fails even with wait (could never succeed).
	if _, _, err := a.AllocPayload(97, true, nil); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("oversized wait: err = %v, want ErrOutOfBlocks", err)
	}
	done := make(chan int32, 1)
	go func() {
		h, _, err := a.AllocPayload(20, true, nil)
		if err != nil {
			done <- NilOffset
			return
		}
		done <- h
	}()
	select {
	case <-done:
		t.Fatal("AllocPayload returned before the span was freed")
	case <-time.After(30 * time.Millisecond):
	}
	a.FreeChain(head)
	select {
	case h := <-done:
		if h == NilOffset {
			t.Fatal("waiting AllocPayload failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AllocPayload did not wake after FreeChain")
	}
}

func TestSpanStatsAndHighWater(t *testing.T) {
	a := mustArena(t, 16, 32)
	head, _, err := a.AllocPayload(100, false, nil) // 7 blocks
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Allocs != 7 {
		t.Errorf("Allocs = %d, want 7", st.Allocs)
	}
	if st.HighWater != 7 {
		t.Errorf("HighWater = %d, want 7", st.HighWater)
	}
	a.FreeChain(head)
	if st := a.Stats(); st.Frees != 7 {
		t.Errorf("Frees = %d, want 7", st.Frees)
	}
}

func TestSpanReuseAfterChurn(t *testing.T) {
	a := mustArena(t, 16, 32)
	for round := 0; round < 50; round++ {
		heads, _, err := a.AllocPayloads([]int{64, 17, 1, 200}, false, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Free in a different order than allocated to churn the bitmap.
		for i := len(heads) - 1; i >= 0; i-- {
			a.FreeChain(heads[i])
		}
		if err := a.CheckFreeList(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if free := a.FreeBlocks(); free != 32 {
		t.Fatalf("%d blocks free after churn, want 32", free)
	}
}
