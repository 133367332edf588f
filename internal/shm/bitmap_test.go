package shm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSpans is the span allocator as it was before the bitmap went
// word-parallel: every search, take and free walks the bitmap one bit
// at a time. It is kept as the reference model the differential test and
// FuzzSpanBitmap hold the allocator to — placement is part of the
// arena's contract, since offsets cross the process boundary.
type refSpans struct {
	blockSize, nBlocks int32
	freeBits           []uint64
	spanLen            []int32
	nFree, lowFree     int32
}

func newRefSpans(blockSize, nBlocks int) *refSpans {
	r := &refSpans{
		blockSize: int32(blockSize),
		nBlocks:   int32(nBlocks),
		freeBits:  make([]uint64, (nBlocks+63)/64),
		spanLen:   make([]int32, nBlocks),
		nFree:     int32(nBlocks),
	}
	for i := 0; i < nBlocks; i++ {
		r.freeBits[i/64] |= 1 << (i % 64)
	}
	return r
}

func (r *refSpans) blocksFor(n int) int32 {
	if n <= 0 {
		return 1
	}
	p := int(r.blockSize) - 4
	return int32((n + p - 1) / p)
}

func (r *refSpans) spanBlocksFor(n int) int32 {
	if n <= 0 {
		return 1
	}
	return int32((n + 4 + int(r.blockSize) - 1) / int(r.blockSize))
}

func (r *refSpans) findFree() int32 {
	for i := r.lowFree; i < r.nBlocks; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) != 0 {
			r.lowFree = i
			return i
		}
	}
	panic("shm: findFreeLocked with no free blocks")
}

func (r *refSpans) bestRun(want int32) (start, length int32) {
	var bestStart, bestLen, runStart, runLen int32
	first := true
	for i := r.lowFree; i < r.nBlocks; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) != 0 {
			if first {
				r.lowFree = i
				first = false
			}
			if runLen == 0 {
				runStart = i
			}
			runLen++
			if runLen >= want {
				return runStart, runLen
			}
		} else {
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
			runLen = 0
		}
	}
	if runLen > bestLen {
		bestStart, bestLen = runStart, runLen
	}
	return bestStart, bestLen
}

func (r *refSpans) takeRun(start, k int32) {
	for i := start; i < start+k; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) == 0 {
			panic(fmt.Sprintf("shm: takeRun of allocated block %d", i))
		}
		r.freeBits[i/64] &^= 1 << (i % 64)
	}
	r.spanLen[start] = k
	r.nFree -= k
}

func (r *refSpans) freeSpan(off int32) {
	idx := off/r.blockSize - 1
	if idx < r.lowFree {
		r.lowFree = idx
	}
	k := r.spanLen[idx]
	if k < 1 {
		panic(fmt.Sprintf("shm: free of unallocated span at offset %d", off))
	}
	for i := idx; i < idx+k; i++ {
		if r.freeBits[i/64]&(1<<(i%64)) != 0 {
			panic(fmt.Sprintf("shm: double free of block %d", i))
		}
		r.freeBits[i/64] |= 1 << (i % 64)
	}
	r.spanLen[idx] = 0
	r.nFree += k
}

// span is one chain element: its offset and the blocks it covers.
type span struct{ off, blocks int32 }

// spanChain places payload bytes greedily, as spanChainLocked does.
func (r *refSpans) spanChain(payload int) []span {
	var chain []span
	for rem := payload; ; {
		want := r.spanBlocksFor(rem)
		start, length := r.bestRun(want)
		if length == 0 {
			panic("shm: spanChainLocked underflow")
		}
		if length > want {
			length = want
		}
		r.takeRun(start, length)
		chain = append(chain, span{(start + 1) * r.blockSize, length})
		rem -= int(length)*int(r.blockSize) - 4
		if rem <= 0 {
			return chain
		}
	}
}

// allocPayloads is AllocPayloads without the waiting: nil, false when
// the worst-case demand is not free.
func (r *refSpans) allocPayloads(ns []int) ([][]span, bool) {
	total := int32(0)
	for _, n := range ns {
		total += r.blocksFor(n)
	}
	if total > r.nFree {
		return nil, false
	}
	chains := make([][]span, len(ns))
	for i, n := range ns {
		chains[i] = r.spanChain(n)
	}
	return chains, true
}

func (r *refSpans) alloc() (int32, bool) {
	if r.nFree == 0 {
		return NilOffset, false
	}
	idx := r.findFree()
	r.takeRun(idx, 1)
	return (idx + 1) * r.blockSize, true
}

// panicText runs f and returns what it panicked with ("" if it did not).
func panicText(f func()) (text string) {
	defer func() {
		if p := recover(); p != nil {
			text = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// The steps of an allocator script.
const (
	opAllocPayload  = iota // sizes[0] payload bytes
	opAlloc                // one block
	opAllocPayloads        // one chain per entry of sizes
	opFreeChain            // live chain number pick
	opFreeChains           // up to five live chains from pick on
	opFreeBlock            // Free of arbitrary block number pick
)

type bitmapOp struct {
	kind  int
	sizes []int
	pick  int
}

// decodeBitmapScript turns fuzz bytes into a region size and a script:
// the first two bytes size the region (1..600 blocks, so most sizes are
// not a multiple of 64), then three bytes per op. Payloads run from 0 to
// 4095 bytes — up to 257 blocks of 16, so spans cross several words.
func decodeBitmapScript(data []byte) (nBlocks int, ops []bitmapOp) {
	if len(data) < 2 {
		return 0, nil
	}
	nBlocks = (int(data[0])|int(data[1])<<8)%600 + 1
	for data = data[2:]; len(data) >= 3; data = data[3:] {
		size := int(data[1]) | int(data[2]&0x0f)<<8
		if data[2]&0x10 != 0 {
			size &= 0x3f // bias towards one- to four-block payloads
		}
		op := bitmapOp{pick: int(data[1]) | int(data[2])<<8}
		switch k := data[0] % 16; {
		case k < 5:
			op.kind, op.sizes = opAllocPayload, []int{size}
		case k < 7:
			op.kind = opAlloc
		case k < 9:
			op.kind, op.sizes = opAllocPayloads, []int{size, size / 3, int(data[2]), size / 7}[:2+int(data[2])%3]
		case k < 13:
			op.kind = opFreeChain
		case k < 14:
			op.kind = opFreeChains
		default:
			op.kind = opFreeBlock
		}
		ops = append(ops, op)
	}
	return nBlocks, ops
}

// runBitmapScript drives ops through a span arena and the bit-serial
// reference, requiring after every op the same chains (offsets and span
// lengths), the same failures and panics, and the same allocator state:
// bitmap, spanLen, nFree and the lowFree bound.
func runBitmapScript(t *testing.T, nBlocks int, ops []bitmapOp) {
	t.Helper()
	const blockSize = 16
	a, err := New(Config{BlockSize: blockSize, NumBlocks: nBlocks, Spans: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSpans(blockSize, nBlocks)
	var live [][]span // chains allocated and not yet freed, as the reference placed them

	chainOf := func(head int32) []span {
		var c []span
		for off := head; off != NilOffset; off = a.Next(off) {
			c = append(c, span{off, a.spanLen[a.blockIndex(off)]})
		}
		return c
	}
	same := func(step int, what string) {
		t.Helper()
		if !slices.Equal(a.freeBits, ref.freeBits) {
			t.Fatalf("op %d (%s): bitmap %x, reference %x", step, what, a.freeBits, ref.freeBits)
		}
		if !slices.Equal(a.spanLen, ref.spanLen) {
			t.Fatalf("op %d (%s): spanLen %v, reference %v", step, what, a.spanLen, ref.spanLen)
		}
		if a.nFree != ref.nFree || a.lowFree != ref.lowFree {
			t.Fatalf("op %d (%s): nFree %d lowFree %d, reference %d %d",
				step, what, a.nFree, a.lowFree, ref.nFree, ref.lowFree)
		}
		if err := a.CheckFreeList(); err != nil {
			t.Fatalf("op %d (%s): %v", step, what, err)
		}
	}
	same(-1, "NewAt")

	for step, op := range ops {
		what := fmt.Sprintf("kind %d sizes %v pick %d", op.kind, op.sizes, op.pick)
		switch op.kind {
		case opAllocPayload, opAllocPayloads:
			var heads, tails []int32
			var err error
			if op.kind == opAllocPayload {
				var head, tail int32
				head, tail, err = a.AllocPayload(op.sizes[0], false, nil)
				heads, tails = []int32{head}, []int32{tail}
			} else {
				heads, tails, err = a.AllocPayloads(op.sizes, false, nil)
			}
			want, ok := ref.allocPayloads(op.sizes)
			if ok != (err == nil) {
				t.Fatalf("op %d (%s): err %v, reference succeeded: %v", step, what, err, ok)
			}
			if err != nil {
				if !errors.Is(err, ErrOutOfBlocks) {
					t.Fatalf("op %d (%s): err %v, want ErrOutOfBlocks", step, what, err)
				}
				break
			}
			for i, w := range want {
				if got := chainOf(heads[i]); !slices.Equal(got, w) {
					t.Fatalf("op %d (%s): chain %d placed at %v, reference %v", step, what, i, got, w)
				}
				if tails[i] != w[len(w)-1].off {
					t.Fatalf("op %d (%s): chain %d tail %d, reference %d", step, what, i, tails[i], w[len(w)-1].off)
				}
				live = append(live, w)
			}
		case opAlloc:
			off, err := a.Alloc()
			want, ok := ref.alloc()
			if ok != (err == nil) || off != want {
				t.Fatalf("op %d (%s): Alloc = %d, %v; reference %d, %v", step, what, off, err, want, ok)
			}
			if ok {
				a.setLink(off, NilOffset)
				live = append(live, []span{{off, 1}})
			}
		case opFreeChain, opFreeChains:
			if len(live) == 0 {
				break
			}
			n := 1
			if op.kind == opFreeChains {
				n = 1 + op.pick%min(len(live), 5)
			}
			var heads []int32
			for ; n > 0; n-- {
				i := op.pick % len(live)
				for _, s := range live[i] {
					ref.freeSpan(s.off)
				}
				heads = append(heads, live[i][0].off)
				live = slices.Delete(live, i, i+1)
			}
			if op.kind == opFreeChain {
				a.FreeChain(heads[0])
			} else {
				a.FreeChains(heads)
			}
		case opFreeBlock:
			// Free of an arbitrary block. A live span's first block is
			// left alone (its chain is freed by the chain ops); anything
			// else — a free block, a span's interior — must raise the
			// same panic from both, leaving both in the same state.
			off := int32(op.pick%nBlocks+1) * blockSize
			if ref.spanLen[off/blockSize-1] > 0 {
				break
			}
			want := panicText(func() { ref.freeSpan(off) })
			got := panicText(func() { a.Free(off) })
			if got != want || want == "" {
				t.Fatalf("op %d (%s): Free(%d) panicked with %q, reference %q", step, what, off, got, want)
			}
			a.mu.Unlock() // the panic left the free-pool lock held
		}
		same(step, what)
	}

	for _, c := range live {
		a.FreeChain(c[0].off)
		for _, s := range c {
			ref.freeSpan(s.off)
		}
	}
	same(len(ops), "final drain")
	if a.nFree != a.nBlocks {
		t.Fatalf("%d of %d blocks free after the drain", a.nFree, a.nBlocks)
	}
}

// TestSpanBitmapDifferential runs directed scripts — a full region, a
// comb-fragmented one that forces the greedy multi-span fallback, spans
// that cross one and several word boundaries — and seeded random ones
// over region sizes on both sides of every word boundary.
func TestSpanBitmapDifferential(t *testing.T) {
	payload := func(blocks int) int { return blocks*16 - 4 } // fills a span of that many blocks exactly
	alloc := func(blocks int) bitmapOp { return bitmapOp{kind: opAllocPayload, sizes: []int{payload(blocks)}} }
	free := func(i int) bitmapOp { return bitmapOp{kind: opFreeChain, pick: i} }

	t.Run("word-crossing spans", func(t *testing.T) {
		// 60 blocks, then a span over bits 60..69, one over 70..269
		// (three whole words inside), frees that reopen the low hole.
		runBitmapScript(t, 300, []bitmapOp{alloc(60), alloc(10), alloc(200), free(1), alloc(4), alloc(7), free(0), alloc(64), alloc(65)})
	})
	t.Run("full region", func(t *testing.T) {
		var ops []bitmapOp
		for i := 0; i < 131; i++ {
			ops = append(ops, bitmapOp{kind: opAlloc})
		}
		ops = append(ops, bitmapOp{kind: opAlloc}, alloc(1), free(130), alloc(1), free(64), free(63), alloc(2), alloc(1))
		runBitmapScript(t, 131, ops)
	})
	t.Run("comb fragmentation", func(t *testing.T) {
		// Allocate 200 single blocks, free every other one, then ask for
		// payloads no run can hold: the greedy builder must chain
		// single-block spans, earliest first, exactly as the reference.
		var ops []bitmapOp
		for i := 0; i < 200; i++ {
			ops = append(ops, bitmapOp{kind: opAlloc})
		}
		for i := 0; i < 100; i++ {
			ops = append(ops, free(i)) // chain i+i of the original 200
		}
		ops = append(ops, alloc(3), alloc(40), bitmapOp{kind: opAllocPayloads, sizes: []int{100, 5, 300}}, alloc(70), free(100), free(100), alloc(2))
		runBitmapScript(t, 200, ops)
	})
	t.Run("longest run is not the first", func(t *testing.T) {
		// Free runs of 3, 5 and 5 blocks: a request for 6 takes the
		// earliest longest (the first 5), then continues greedily.
		ops := []bitmapOp{alloc(2), alloc(3), alloc(60), alloc(5), alloc(2), alloc(5), alloc(53)}
		ops = append(ops, free(1), free(2), free(3), alloc(6), alloc(9))
		runBitmapScript(t, 130, ops)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1987))
		for _, nBlocks := range []int{1, 2, 63, 64, 65, 127, 128, 129, 257, 600} {
			for round := 0; round < 20; round++ {
				data := make([]byte, 2+3*400)
				rng.Read(data)
				_, ops := decodeBitmapScript(data)
				runBitmapScript(t, nBlocks, ops)
			}
		}
	})
}

// TestSpanBitmapCorruptionPanics holds the two panics only corrupted
// allocator state can reach to the reference's: same text, so the same
// first offending block, for runs inside one word and across several.
func TestSpanBitmapCorruptionPanics(t *testing.T) {
	for _, tc := range []struct{ start, k, hole int32 }{
		{3, 10, 3}, {3, 10, 12}, {60, 10, 63}, {60, 10, 64}, {10, 200, 191}, {0, 130, 129}, {64, 64, 100},
	} {
		// takeRun over a run with one block already allocated.
		a := spanArena(t, 16, 300)
		ref := newRefSpans(16, 300)
		a.takeRunLocked(tc.hole, 1)
		ref.takeRun(tc.hole, 1)
		want := panicText(func() { ref.takeRun(tc.start, tc.k) })
		if got := panicText(func() { a.takeRunLocked(tc.start, tc.k) }); got != want || want == "" {
			t.Errorf("takeRun(%d, %d) over allocated block %d: panic %q, reference %q", tc.start, tc.k, tc.hole, got, want)
		}

		// Free of a span with one block already free.
		a = spanArena(t, 16, 300)
		ref = newRefSpans(16, 300)
		a.takeRunLocked(tc.start, tc.k)
		ref.takeRun(tc.start, tc.k)
		a.freeBits[tc.hole/64] |= 1 << (tc.hole % 64)
		ref.freeBits[tc.hole/64] |= 1 << (tc.hole % 64)
		off := a.offsetOf(tc.start)
		want = panicText(func() { ref.freeSpan(off) })
		if got := panicText(func() { a.Free(off) }); got != want || want == "" {
			t.Errorf("free of span (%d, %d) with block %d free: panic %q, reference %q", tc.start, tc.k, tc.hole, got, want)
		}
	}
}

// FuzzSpanBitmap feeds arbitrary alloc/free scripts through the
// word-parallel allocator and the bit-serial reference (see
// runBitmapScript for what must match).
func FuzzSpanBitmap(f *testing.F) {
	f.Add([]byte{64, 0, 0, 200, 0, 0, 200, 0, 9, 0, 0, 0, 100, 1})
	f.Add([]byte{130, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 9, 1, 0, 0, 0, 3, 14, 7, 0, 13, 2, 0})
	f.Add([]byte{255, 1, 0, 255, 15, 0, 255, 15, 9, 0, 0, 0, 255, 15, 15, 64, 0, 15, 200, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 5, 0, 0, 9, 0, 0, 14, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nBlocks, ops := decodeBitmapScript(data)
		if nBlocks == 0 {
			return
		}
		runBitmapScript(t, nBlocks, ops)
	})
}
