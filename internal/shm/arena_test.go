package shm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustArena(t *testing.T, blockSize, nBlocks int) *Arena {
	t.Helper()
	a, err := New(Config{BlockSize: blockSize, NumBlocks: nBlocks})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// allocBlock allocates one block: the span of a zero-length payload.
func allocBlock(tb testing.TB, a *Arena) int32 {
	tb.Helper()
	off, _, err := a.AllocPayload(0, false, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return off
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{BlockSize: 4, NumBlocks: 10}); err == nil {
		t.Error("block size 4 accepted; link word leaves no payload")
	}
	if _, err := New(Config{BlockSize: 64, NumBlocks: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := New(Config{BlockSize: 1 << 20, NumBlocks: 1 << 12}); err == nil {
		t.Error("region over 2 GiB accepted")
	}
}

func TestPaperBlockSizeWorks(t *testing.T) {
	// The paper ran with 10-byte blocks; they must be usable.
	a := mustArena(t, 10, 32)
	if got := a.PayloadSize(); got != 6 {
		t.Fatalf("PayloadSize = %d, want 6", got)
	}
	off, _, err := a.AllocPayload(6, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(a.SegPayload(off), []byte("abcdef"))
	if !bytes.Equal(a.SegPayload(off), []byte("abcdef")) {
		t.Fatal("payload roundtrip failed")
	}
	a.FreeChain(off)
}

func TestAllocExhaustionAndRecycle(t *testing.T) {
	const n = 8
	a := mustArena(t, 16, n)
	offs := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		offs = append(offs, allocBlock(t, a))
	}
	if _, _, err := a.AllocPayload(0, false, nil); err != ErrOutOfBlocks {
		t.Fatalf("alloc past capacity: err = %v, want ErrOutOfBlocks", err)
	}
	if got := a.FreeBlocks(); got != 0 {
		t.Fatalf("FreeBlocks = %d, want 0", got)
	}
	for _, off := range offs {
		a.FreeChain(off)
	}
	if got := a.FreeBlocks(); got != n {
		t.Fatalf("FreeBlocks after recycle = %d, want %d", got, n)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetsDistinctAndAligned(t *testing.T) {
	a := mustArena(t, 32, 50)
	seen := make(map[int32]bool)
	for i := 0; i < 50; i++ {
		off := allocBlock(t, a)
		if off == NilOffset {
			t.Fatal("AllocPayload returned NilOffset without error")
		}
		if off%32 != 0 {
			t.Fatalf("offset %d not block-aligned", off)
		}
		if seen[off] {
			t.Fatalf("offset %d returned twice", off)
		}
		seen[off] = true
	}
}

// TestBlockIndexDivides holds blockIndex's multiply to the division it
// replaces, for block sizes from the minimum up and offsets across the
// whole int32 range, block boundaries and their neighbours included.
func TestBlockIndexDivides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bs := range []int{MinBlockSize, 6, 7, 10, 48, 64, 100, 4096, 65537, 1<<20 + 3} {
		a := mustArena(t, bs, 1)
		offs := []int32{0, 1, int32(bs) - 1, 1<<31 - 1, 1<<31 - 1 - int32((1<<31-1)%bs)}
		for i := 0; i < 10000; i++ {
			offs = append(offs, rng.Int31())
		}
		for _, off := range offs {
			for _, o := range []int32{off, max(off-1, 0)} {
				if got, want := a.blockIndex(o), o/int32(bs)-1; got != want {
					t.Fatalf("block size %d: blockIndex(%d) = %d, want %d", bs, o, got, want)
				}
			}
		}
	}
}

// TestBlocksForDivides holds the multiplies in BlocksFor, spanBlocksFor
// and checkOffset to the divisions they replace, for every block size
// from the minimum — a 1-byte payload, whose reciprocal 2⁶⁴ would not
// fit — to 4096: payload lengths around each of the first block
// boundaries and up to the int32 range, and offsets on and beside the
// first block boundaries.
func TestBlocksForDivides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for bs := MinBlockSize; bs <= 4096; bs++ {
		a := mustArena(t, bs, 4)
		p := bs - 4
		ns := []int{0, 1, 2, 3, 1<<31 - 1, 1<<31 - 2, 1<<31 - 1 - (1<<31-1)%p, 1 << 31, 1 << 40}
		for k := 1; k <= 4; k++ {
			for d := -1; d <= 1; d++ {
				ns = append(ns, k*p+d, k*bs-4+d)
			}
		}
		for range 64 {
			ns = append(ns, int(rng.Int31()))
		}
		for _, n := range ns {
			if got, want := a.BlocksFor(n), (n+p-1)/p; n > 0 && got != want {
				t.Fatalf("block size %d: BlocksFor(%d) = %d, want %d", bs, n, got, want)
			}
			if n <= 0 || n >= 1<<31-bs {
				continue // spanBlocksFor's n fits the region
			}
			if got, want := a.spanBlocksFor(n), int32((n+4+bs-1)/bs); got != want {
				t.Fatalf("block size %d: spanBlocksFor(%d) = %d, want %d", bs, n, got, want)
			}
		}
		for k := int32(0); k <= 5; k++ {
			for d := int32(-1); d <= 1; d++ {
				off := k*int32(bs) + d
				valid := off >= int32(bs) && off < int32(len(a.mem)) && off%int32(bs) == 0
				if got := !panics(func() { a.checkOffset(off) }); got != valid {
					t.Fatalf("block size %d: checkOffset(%d) accepts it %v, want %v", bs, off, got, valid)
				}
			}
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestChainWriteRead(t *testing.T) {
	a := mustArena(t, 16, 64) // 12-byte payloads
	msg := make([]byte, 100)
	rand.New(rand.NewSource(1)).Read(msg)

	// The demand is counted as if every block carried a link word; the
	// span the payload gets carries one.
	if n, want := a.BlocksFor(len(msg)), (100+11)/12; n != want {
		t.Fatalf("BlocksFor(100) = %d, want %d", n, want)
	}
	head, _, err := a.AllocPayload(len(msg), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.ChainBlocks(head), (100+4+15)/16; got != want {
		t.Fatalf("ChainBlocks = %d, want %d", got, want)
	}
	if w := a.WriteChain(head, msg); w != len(msg) {
		t.Fatalf("WriteChain wrote %d, want %d", w, len(msg))
	}
	out := make([]byte, len(msg))
	if r := a.ReadChain(head, len(msg), out); r != len(msg) {
		t.Fatalf("ReadChain read %d, want %d", r, len(msg))
	}
	if !bytes.Equal(out, msg) {
		t.Fatal("chain roundtrip corrupted data")
	}
	a.FreeChain(head)
	if got := a.FreeBlocks(); got != 64 {
		t.Fatalf("FreeBlocks after FreeChain = %d, want 64", got)
	}
}

func TestReadChainShortBuffer(t *testing.T) {
	a := mustArena(t, 16, 8)
	msg := []byte("hello, world — truncate me")
	head, _, err := a.AllocPayload(len(msg), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteChain(head, msg)
	out := make([]byte, 5)
	if r := a.ReadChain(head, len(msg), out); r != 5 {
		t.Fatalf("ReadChain into short buffer read %d, want 5", r)
	}
	if string(out) != "hello" {
		t.Fatalf("truncated read = %q, want %q", out, "hello")
	}
	a.FreeChain(head)
}

func TestAllocChainFailureLeaksNothing(t *testing.T) {
	a := mustArena(t, 16, 4)
	held := allocBlock(t, a)
	// Four blocks of demand against three free: nothing is taken.
	if _, _, err := a.AllocPayload(4*12, false, nil); err != ErrOutOfBlocks {
		t.Fatalf("err = %v, want ErrOutOfBlocks", err)
	}
	if got := a.FreeBlocks(); got != 3 {
		t.Fatalf("FreeBlocks = %d after failed AllocPayload, want 3 (leak)", got)
	}
	a.FreeChain(held)
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksForZeroLength(t *testing.T) {
	a := mustArena(t, 16, 4)
	if got := a.BlocksFor(0); got != 1 {
		t.Fatalf("BlocksFor(0) = %d, want 1 (zero-length messages occupy a block)", got)
	}
}

// The AllocWait tests hold AllocPayload with wait set: the arena's one
// wait loop, lockWithFree.
func TestAllocWaitWakesOnFree(t *testing.T) {
	a := mustArena(t, 16, 1)
	off := allocBlock(t, a)
	got := make(chan int32, 1)
	go func() {
		o, _, err := a.AllocPayload(0, true, nil)
		if err != nil {
			t.Error(err)
		}
		got <- o
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("waiting AllocPayload returned before any block was freed")
	default:
	}
	a.FreeChain(off)
	select {
	case o := <-got:
		if o != off {
			t.Fatalf("waiting AllocPayload returned %d, want recycled block %d", o, off)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting AllocPayload never woke after FreeChain")
	}
}

func TestAllocWaitStop(t *testing.T) {
	a := mustArena(t, 16, 1)
	allocBlock(t, a)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.AllocPayload(0, true, stop)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case err := <-errc:
		if err != ErrOutOfBlocks {
			t.Fatalf("aborted AllocPayload err = %v, want ErrOutOfBlocks", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting AllocPayload did not abort on stop")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := mustArena(t, 16, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]int32, 0, 16)
			for i := 0; i < 3000; i++ {
				if len(held) > 0 && (rng.Intn(2) == 0 || len(held) >= 16) {
					k := rng.Intn(len(held))
					a.FreeChain(held[k])
					held = append(held[:k], held[k+1:]...)
				} else {
					// One block each (12 payload bytes fill a 16-byte
					// block), so 8 workers holding 16 never exhaust 128.
					off, _, err := a.AllocPayload(12, true, nil)
					if err != nil {
						t.Error(err)
						return
					}
					// Scribble on the payload to catch aliasing with
					// another goroutine's block.
					p := a.SegPayload(off)
					for j := range p {
						p[j] = byte(seed)
					}
					held = append(held, off)
				}
			}
			for _, off := range held {
				p := a.SegPayload(off)
				for j := range p {
					if p[j] != byte(seed) {
						t.Errorf("payload of held block scribbled by another goroutine")
						break
					}
				}
				a.FreeChain(off)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := a.FreeBlocks(); got != 128 {
		t.Fatalf("FreeBlocks = %d after all frees, want 128", got)
	}
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsHighWater(t *testing.T) {
	a := mustArena(t, 16, 8)
	var offs []int32
	for i := 0; i < 5; i++ {
		offs = append(offs, allocBlock(t, a))
	}
	for _, o := range offs {
		a.FreeChain(o)
	}
	st := a.Stats()
	if st.HighWater != 5 {
		t.Fatalf("HighWater = %d, want 5", st.HighWater)
	}
	if st.Allocs != 5 || st.Frees != 5 {
		t.Fatalf("Allocs/Frees = %d/%d, want 5/5", st.Allocs, st.Frees)
	}
}

func TestSizeFor(t *testing.T) {
	cfg := SizeFor(16, 20, 64, 128)
	if cfg.BlockSize != 64 {
		t.Fatalf("BlockSize = %d, want 64", cfg.BlockSize)
	}
	if cfg.NumBlocks != 20*128 {
		t.Fatalf("NumBlocks = %d, want %d", cfg.NumBlocks, 20*128)
	}
	// Tiny inputs still produce a usable arena.
	cfg = SizeFor(1, 1, 1, 0)
	if cfg.BlockSize < MinBlockSize || cfg.NumBlocks < 64 {
		t.Fatalf("SizeFor floor violated: %+v", cfg)
	}
}

func TestInvalidOffsetPanics(t *testing.T) {
	a := mustArena(t, 16, 4)
	for _, off := range []int32{NilOffset, 7, 16 * 100, -16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SegPayload(%d) did not panic", off)
				}
			}()
			a.SegPayload(off)
		}()
	}
}

// Property: for any message, writing it through a chain and reading it back
// yields the original bytes, for a spread of block sizes.
func TestQuickChainRoundtrip(t *testing.T) {
	a8 := mustArena(t, 8, 2048)
	a10 := mustArena(t, 10, 2048)
	a64 := mustArena(t, 64, 512)
	f := func(msg []byte) bool {
		if len(msg) > 4096 {
			msg = msg[:4096]
		}
		for _, a := range []*Arena{a8, a10, a64} {
			head, _, err := a.AllocPayload(len(msg), false, nil)
			if err != nil {
				return false
			}
			a.WriteChain(head, msg)
			out := make([]byte, len(msg))
			a.ReadChain(head, len(msg), out)
			ok := bytes.Equal(out, msg)
			a.FreeChain(head)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any interleaving of allocs and frees conserves blocks.
func TestQuickConservation(t *testing.T) {
	f := func(ops []bool) bool {
		a, err := New(Config{BlockSize: 16, NumBlocks: 32})
		if err != nil {
			return false
		}
		var held []int32
		for _, alloc := range ops {
			if alloc {
				off, _, err := a.AllocPayload(0, false, nil)
				if err == nil {
					held = append(held, off)
				}
			} else if len(held) > 0 {
				a.FreeChain(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		if a.FreeBlocks()+len(held) != 32 {
			return false
		}
		return a.CheckFreeList() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a, _ := New(Config{BlockSize: 64, NumBlocks: 1024})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, _, _ := a.AllocPayload(0, false, nil)
		a.FreeChain(off)
	}
}

func BenchmarkChainRoundtrip1K(b *testing.B) {
	a, _ := New(Config{BlockSize: 64, NumBlocks: 1024})
	msg := make([]byte, 1024)
	out := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		head, _, _ := a.AllocPayload(len(msg), false, nil)
		a.WriteChain(head, msg)
		a.ReadChain(head, len(msg), out)
		a.FreeChain(head)
	}
}
