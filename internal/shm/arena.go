// Package shm implements the shared-memory region that backs MPF.
//
// The original MPF mapped a region of physical memory into the virtual
// address space of every Unix process in the program and carved it into a
// free list of fixed-size message blocks at init time; all message payload
// flowed through those blocks. Goroutines share a heap, so a mapped region
// is not *needed* for correctness — but the region is load-bearing for the
// paper's performance story (Figure 3's asymptote is a copy-cost asymptote,
// and the per-block overhead of the linked free list is why small blocks
// hurt). This package therefore reproduces the layout faithfully:
//
//   - one contiguous byte arena, sized at Init from maxLNVCs/maxProcesses;
//   - fixed-size blocks addressed by int32 *offsets* (the portable stand-in
//     for pointers into a mapped region — offsets survive being mapped at
//     different addresses in different processes, which is exactly why the
//     original used them);
//   - a lock-protected singly-linked free list threaded through the blocks
//     themselves, one 4-byte link word per block.
//
// The one layout rule, in both allocation modes: the chain element at
// offset off (a block, or a span of k blocks) keeps its link word in
// [off-4, off) — the last word of the slot before it; the first block's
// lands in the burnt block 0 — and its payload is [off, off+k*blockSize-4).
// The region base is 64-byte aligned, so every payload starts on a block
// boundary and, for block sizes that are multiples of 64 (the default),
// on a cache line. That is what the structural copies need: go1.24's
// memmove sends a copy of 2 KiB or more whose destination is 16-aligned
// to REP MOVSQ, which runs at a sixth of its speed when the source sits
// at 4 mod 8 — where every payload sat while the link word led the block
// (see alignedCopy for the same hazard from the caller's side). A block
// still costs 4 bytes of link, so PayloadSize, BlocksFor and the span
// length rule are what they were; peers in other processes are handed
// payload offsets and never read link words.
//
// Beyond the paper, the arena offers a contiguous-span allocation mode
// (Config.Spans): a free *bitmap* replaces the linked list and a payload
// is placed, whenever fragmentation permits, in one run of physically
// adjacent blocks carrying a single link word. A multi-kilobyte message
// then occupies one contiguous, line-aligned byte range instead of a chain
// of 60-byte fragments — which is what lets the zero-copy plane (msg.View,
// core.SendLoan/ReceiveView) hand callers a single writable or readable
// slice instead of walking a chain. Chains still exist in span mode —
// a chain element is simply a span of one or more blocks, described by
// SegPayload — and every chain API (WriteChain, ReadChain, FreeChain)
// is span-aware. The classic linked-list layout remains the fidelity
// baseline (core's ClassicChains / mpf.WithClassicChains) and the copy
// ablation's paper-plane configuration.
//
// The arena is safe for concurrent use.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/spinlock"
)

// NilOffset is the arena's nil pointer. Offset 0 is deliberately burned
// (the first block starts at blockSize) so that the zero value of an
// offset-valued field is unmistakably invalid, the same trick the original
// played by reserving the region's first word.
const NilOffset int32 = 0

// ErrOutOfBlocks is returned by Alloc when the free list is empty and the
// arena was created with a fixed size (the paper's configuration).
var ErrOutOfBlocks = errors.New("shm: out of message blocks")

// MinBlockSize is the smallest usable block: the free-list link word plus
// at least one payload byte. The paper ran with 10-byte blocks, which this
// bound admits.
const MinBlockSize = 5

// Arena is a shared region divided into fixed-size blocks.
type Arena struct {
	mem       []byte
	blockSize int32
	nBlocks   int32
	spans     bool

	mu       spinlock.TAS
	freeHead int32 // classic mode: offset of first free block, NilOffset if none
	nFree    int32

	// Span mode replaces the linked free list with a bitmap so runs of
	// physically adjacent free blocks can be found: bit i set means
	// block i (at offset (i+1)*blockSize) is free. spanLen[i] records,
	// for an allocated span starting at block i, how many blocks it
	// covers — the metadata FreeChain and SegPayload need, kept at the
	// side because the span's interior has no per-block link words.
	// lowFree is a lower bound on the lowest free block index (no free
	// bit exists below it); every scan starts there and tightens it, so
	// allocations do not re-walk a long-lived allocated prefix while
	// holding the lock. Frees lower it again.
	freeBits []uint64
	spanLen  []int32
	lowFree  int32

	// waiters is the number of goroutines blocked in AllocWait; guarded
	// by mu, signalled via cond.
	cond    condSignal
	waiters int32

	stats Stats
	huge  HugeStats
}

// condSignal is a tiny condition variable over the arena spinlock. A full
// sync.Cond would also work; this variant exists so the arena has no
// dependency on sync and so tests can count wakeups.
type condSignal struct {
	ch chan struct{}
}

func (c *condSignal) init() { c.ch = make(chan struct{}) }

// Stats counts allocator activity. Read it via Arena.Stats.
type Stats struct {
	Allocs      uint64 // successful block allocations
	Frees       uint64 // blocks returned
	AllocFails  uint64 // Alloc calls that found the free list empty
	AllocBlocks uint64 // blocked AllocWait episodes
	HighWater   int32  // maximum simultaneously-allocated blocks
}

// HugeStats records the outcome of the huge-page hint, in the style of
// LockStats: set once at creation, read lock-free by the bench so it
// can report whether the hint took on this run.
type HugeStats struct {
	// Requested mirrors Config.HugePages.
	Requested bool
	// AdvisedBytes is how much of the region madvise actually covered
	// after shrinking to 2 MiB boundaries (0 when the region is too
	// small, the platform has no madvise, or the call failed).
	AdvisedBytes int64
	// Err holds the madvise failure, if any; advisory, never fatal.
	Err error
}

// Config sizes an Arena.
type Config struct {
	// BlockSize is the size of each block in bytes, including the 4-byte
	// link word (kept in the slot's last word; the payload starts on the
	// block boundary). The paper's experiments used 10.
	BlockSize int
	// NumBlocks is the number of blocks in the region.
	NumBlocks int
	// Spans selects the contiguous-span allocation mode: payloads are
	// placed in runs of adjacent blocks (single-segment views) found
	// via a free bitmap instead of the paper's linked free list. All
	// chain APIs work identically in both modes.
	Spans bool
	// HugePages asks the kernel to back the region with transparent
	// huge pages (madvise MADV_HUGEPAGE on the region's huge-page-
	// aligned interior). Purely advisory: unsupported platforms and
	// small regions degrade to base pages; HugeStats reports whether
	// and how far the hint took.
	HugePages bool
}

// SizeFor estimates the arena configuration for a facility with the given
// limits, mirroring the paper's init(maxLNVCs, maxProcesses) sizing rule:
// enough blocks for every process to have several maximum-size messages in
// flight on every LNVC it plausibly uses.
func SizeFor(maxLNVCs, maxProcs, blockSize, msgBlocksPerProc int) Config {
	if blockSize < MinBlockSize {
		blockSize = MinBlockSize
	}
	if msgBlocksPerProc <= 0 {
		msgBlocksPerProc = 64
	}
	n := maxProcs * msgBlocksPerProc
	if min := 4 * maxLNVCs; n < min {
		n = min
	}
	if n < 64 {
		n = 64
	}
	return Config{BlockSize: blockSize, NumBlocks: n}
}

// Bytes returns the region size the configuration occupies — what a
// caller carving an arena out of a shared segment must reserve for
// NewAt. The +1 burns offset 0 so NilOffset stays unmistakably
// invalid.
func (cfg Config) Bytes() int64 {
	return int64(cfg.BlockSize) * int64(cfg.NumBlocks+1)
}

// New creates an arena over a fresh process-private region whose base is
// 64-byte aligned (alignedBytes), like a segment window's.
func New(cfg Config) (*Arena, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	return NewAt(cfg, alignedBytes(cfg.Bytes()))
}

// NewAt creates an arena over caller-provided memory — the segment
// window that makes the region truly shared: point it at
// Segment.At(arenaOff, cfg.Bytes()) and every offset the arena hands
// out (message chains, loan spans, view payloads) is resolvable by any
// process that mapped the same segment. mem must be cfg.Bytes() long
// and zeroed (fresh segments are), and should start on a 64-byte
// boundary (AlignUp) so payloads are line-aligned.
//
// Only the block *bytes* live in mem. The allocator's own state — the
// free bitmap, span lengths, the spinlock, waiter bookkeeping — stays
// in this process's heap: the arena has exactly one allocating owner
// (the serving parent), and attached peers only dereference offsets
// they were handed over a ring. See DESIGN.md §15 for why the
// single-allocator model is the right cut.
func NewAt(cfg Config, mem []byte) (*Arena, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if int64(len(mem)) != cfg.Bytes() {
		return nil, fmt.Errorf("shm: arena region is %d bytes, config needs %d", len(mem), cfg.Bytes())
	}
	a := &Arena{
		mem:       mem,
		blockSize: int32(cfg.BlockSize),
		nBlocks:   int32(cfg.NumBlocks),
		spans:     cfg.Spans,
	}
	a.cond.init()
	if cfg.HugePages {
		a.huge.Requested = true
		a.huge.AdvisedBytes, a.huge.Err = AdviseHugeBytes(mem)
	}
	if a.spans {
		a.freeBits = make([]uint64, (cfg.NumBlocks+63)/64)
		a.flipRunLocked(0, a.nBlocks, true)
		a.spanLen = make([]int32, cfg.NumBlocks)
		a.freeHead = NilOffset
	} else {
		// Thread the free list through the blocks, first block at offset
		// blockSize (offset 0 is reserved as NilOffset).
		a.freeHead = a.blockSize
		for i := int32(0); i < a.nBlocks; i++ {
			off := (i + 1) * a.blockSize
			next := off + a.blockSize
			if i == a.nBlocks-1 {
				next = NilOffset
			}
			a.setLink(off, next)
		}
	}
	a.nFree = a.nBlocks
	return a, nil
}

// check validates a configuration's block geometry.
func (cfg Config) check() error {
	if cfg.BlockSize < MinBlockSize {
		return fmt.Errorf("shm: block size %d below minimum %d", cfg.BlockSize, MinBlockSize)
	}
	if cfg.NumBlocks < 1 {
		return fmt.Errorf("shm: need at least 1 block, got %d", cfg.NumBlocks)
	}
	if cfg.Bytes() > 1<<31-1 {
		return fmt.Errorf("shm: region of %d bytes exceeds 2 GiB offset space", cfg.Bytes())
	}
	return nil
}

// Spans reports whether the arena runs in contiguous-span mode.
func (a *Arena) Spans() bool { return a.spans }

// BlockSize returns the configured block size including the link word.
func (a *Arena) BlockSize() int { return int(a.blockSize) }

// PayloadSize returns the usable payload bytes per block.
func (a *Arena) PayloadSize() int { return int(a.blockSize) - 4 }

// NumBlocks returns the total number of blocks in the region.
func (a *Arena) NumBlocks() int { return int(a.nBlocks) }

// FreeBlocks returns the current number of free blocks.
func (a *Arena) FreeBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.nFree)
}

// Stats returns a snapshot of allocator statistics.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// LockStats reports the free-pool lock's traffic: total acquisitions
// and the subset whose first attempt found the lock held. This is the
// number the batched payload plane amortises — a LoanBatch of k
// messages costs one acquisition here where k single loans cost k —
// and what mpfbench -loanbatch asserts on. Reading it takes no lock,
// so snapshots can bracket a measured interval without perturbing it
// (note that FreeBlocks and Stats each cost one acquisition).
func (a *Arena) LockStats() (acquisitions, contended uint64) {
	return a.mu.Stats()
}

// HugeStats reports the huge-page hint's outcome for this arena's
// region. Like LockStats it takes no lock: the fields are written once
// at creation.
func (a *Arena) HugeStats() HugeStats { return a.huge }

// The link word of the element at off is the last word of the slot
// before it (block 0, burnt for NilOffset, takes the first block's), so
// the payload owns the block boundary. See the package comment.
func (a *Arena) setLink(off, next int32) {
	binary.LittleEndian.PutUint32(a.mem[off-4:off], uint32(next))
}

func (a *Arena) link(off int32) int32 {
	return int32(binary.LittleEndian.Uint32(a.mem[off-4 : off]))
}

// Alloc pops one block off the free list. It returns ErrOutOfBlocks when
// the region is exhausted.
func (a *Arena) Alloc() (int32, error) {
	a.mu.Lock()
	off, err := a.allocLocked()
	a.mu.Unlock()
	return off, err
}

func (a *Arena) allocLocked() (int32, error) {
	if a.spans {
		if a.nFree == 0 {
			a.stats.AllocFails++
			return NilOffset, ErrOutOfBlocks
		}
		idx := a.findFreeLocked()
		a.takeRunLocked(idx, 1)
		return a.offsetOf(idx), nil
	}
	if a.freeHead == NilOffset {
		a.stats.AllocFails++
		return NilOffset, ErrOutOfBlocks
	}
	off := a.freeHead
	a.freeHead = a.link(off)
	a.nFree--
	a.stats.Allocs++
	if used := a.nBlocks - a.nFree; used > a.stats.HighWater {
		a.stats.HighWater = used
	}
	return off, nil
}

// offsetOf converts a block index to its arena offset; blockIndex is the
// inverse. Block 0 lives at offset blockSize (offset 0 is NilOffset).
func (a *Arena) offsetOf(idx int32) int32   { return (idx + 1) * a.blockSize }
func (a *Arena) blockIndex(off int32) int32 { return off/a.blockSize - 1 }

// BlockIndex returns the index in [0, NumBlocks) of the block at offset
// off: how a table kept beside the region, one entry per block, is
// addressed (msg.Pool's message headers). NilOffset maps to -1.
func (a *Arena) BlockIndex(off int32) int { return int(a.blockIndex(off)) }

// findFreeLocked returns the index of the lowest free block, scanning
// words from the lowFree bound and tightening it. The caller must have
// checked nFree > 0.
func (a *Arena) findFreeLocked() int32 {
	for w := int(a.lowFree / 64); w < len(a.freeBits); w++ {
		if a.freeBits[w] != 0 {
			idx := int32(w*64 + bits.TrailingZeros64(a.freeBits[w]))
			a.lowFree = idx
			return idx
		}
	}
	panic("shm: findFreeLocked with no free blocks")
}

// bestRunLocked scans for a run of want consecutive free blocks,
// starting at the lowest free block (which tightens the lowFree bound).
// It returns the first such run immediately; failing that, the earliest
// longest run found (length 0 when the region is exhausted). The scan
// moves a bitmap word at a time: an all-allocated or all-free word costs
// one step, and a mixed word one step per run boundary in it
// (bits.TrailingZeros64 of the word and of its complement), never one
// per block.
func (a *Arena) bestRunLocked(want int32) (start, length int32) {
	if a.nFree == 0 {
		return 0, 0
	}
	var bestStart, bestLen, runStart, runLen int32
	for wi := int(a.findFreeLocked() >> 6); wi < len(a.freeBits); wi++ {
		w := a.freeBits[wi]
		for pos := 0; pos < 64; {
			rest := w >> pos
			if z := bits.TrailingZeros64(rest); z > 0 {
				// Allocated blocks — to the end of the word when rest
				// is zero — close the current run.
				if runLen > bestLen {
					bestStart, bestLen = runStart, runLen
				}
				runLen = 0
				if rest == 0 {
					break
				}
				pos += z
				rest >>= z
			}
			// The shifts filled rest's top with zeros, so the lowest set
			// bit of its complement is at most 64-pos: the length of the
			// free run starting at pos, clipped to this word.
			ones := bits.TrailingZeros64(^rest)
			if runLen == 0 {
				runStart = int32(wi)<<6 + int32(pos)
			}
			runLen += int32(ones)
			if runLen >= want {
				return runStart, want
			}
			pos += ones
		}
	}
	if runLen > bestLen {
		bestStart, bestLen = runStart, runLen
	}
	return bestStart, bestLen
}

// flipRunLocked flips the free bits of blocks [start, start+k) a word at
// a time under a range mask: to free when toFree is set, to allocated
// otherwise. Every bit must be in the opposite state beforehand; one that
// is not is allocator corruption, found by a masked compare and reported
// for the lowest offending block before the word is changed.
func (a *Arena) flipRunLocked(start, k int32, toFree bool) {
	for i, end := start, start+k; i < end; {
		lo := uint(i) & 63
		n := min(64-lo, uint(end-i))
		mask := ^uint64(0) >> (64 - n) << lo
		w := &a.freeBits[i>>6]
		want := mask
		if toFree {
			want = 0
		}
		if bad := *w&mask ^ want; bad != 0 {
			block := i&^63 + int32(bits.TrailingZeros64(bad))
			if toFree {
				panic(fmt.Sprintf("shm: double free of block %d", block))
			}
			panic(fmt.Sprintf("shm: takeRun of allocated block %d", block))
		}
		*w ^= mask
		i += int32(n)
	}
}

// takeRunLocked marks blocks [start, start+k) allocated as one span.
func (a *Arena) takeRunLocked(start, k int32) {
	a.flipRunLocked(start, k, false)
	a.spanLen[start] = k
	a.nFree -= k
	a.stats.Allocs += uint64(k)
	if used := a.nBlocks - a.nFree; used > a.stats.HighWater {
		a.stats.HighWater = used
	}
}

// freeSpanLocked returns the span starting at off to the bitmap.
func (a *Arena) freeSpanLocked(off int32) {
	idx := a.blockIndex(off)
	if idx < a.lowFree {
		a.lowFree = idx
	}
	k := a.spanLen[idx]
	if k < 1 {
		panic(fmt.Sprintf("shm: free of unallocated span at offset %d", off))
	}
	a.flipRunLocked(idx, k, true)
	a.spanLen[idx] = 0
	a.nFree += k
	a.stats.Frees += uint64(k)
}

// spanBlocksFor returns the blocks one contiguous span needs for n
// payload bytes: the span carries a single 4-byte link word however
// many blocks it covers.
func (a *Arena) spanBlocksFor(n int) int32 {
	if n <= 0 {
		return 1
	}
	return int32((n + 4 + int(a.blockSize) - 1) / int(a.blockSize))
}

// spanChainLocked builds a chain holding payload bytes from free runs:
// one contiguous span in the common case, several spans under
// fragmentation (greedy longest-run). The caller must hold the lock and
// have verified nFree >= BlocksFor(payload) — the fully-fragmented
// worst case — which guarantees success (see the demand invariant in
// AllocPayload).
func (a *Arena) spanChainLocked(payload int) (head, tail int32) {
	rem := payload
	head, tail = NilOffset, NilOffset
	for {
		want := a.spanBlocksFor(rem)
		start, length := a.bestRunLocked(want)
		if length == 0 {
			panic("shm: spanChainLocked underflow")
		}
		if length > want {
			length = want
		}
		a.takeRunLocked(start, length)
		off := a.offsetOf(start)
		a.setLink(off, NilOffset)
		if head == NilOffset {
			head = off
		} else {
			a.setLink(tail, off)
		}
		tail = off
		rem -= int(length)*int(a.blockSize) - 4
		if rem <= 0 {
			return head, tail
		}
	}
}

// AllocWait pops one block, blocking until one is available. It is the
// default message_send policy: the paper's region is fixed-size, so a
// sender that outruns its receivers must wait for blocks to be recycled.
// The stop channel aborts the wait (used at facility shutdown); a nil stop
// never aborts.
//
// Waiter accounting: each waiter owns its own registration — it
// increments waiters before sleeping and decrements after waking,
// whether woken or aborted. Wakers never touch the count; they only
// replace-and-close the channel when waiters > 0. This keeps the
// invariant "a sleeping waiter's channel is the current one and will be
// closed by the next free" without any reset/decrement interleavings
// that could strand a later waiter.
func (a *Arena) AllocWait(stop <-chan struct{}) (int32, error) {
	for {
		a.mu.Lock()
		off, err := a.allocLocked()
		if err == nil {
			a.mu.Unlock()
			return off, nil
		}
		a.stats.AllocBlocks++
		a.waiters++
		ch := a.cond.ch
		a.mu.Unlock()
		aborted := false
		select {
		case <-ch:
			// A free arrived (or a broadcast); retry.
		case <-stop:
			aborted = true
		}
		a.mu.Lock()
		a.waiters--
		a.mu.Unlock()
		if aborted {
			return NilOffset, ErrOutOfBlocks
		}
	}
}

// AllocChain allocates n blocks linked head→…→tail via their link words,
// returning the head offset. On failure nothing is leaked. wait selects
// between Alloc and AllocWait semantics.
func (a *Arena) AllocChain(n int, wait bool, stop <-chan struct{}) (int32, error) {
	if n <= 0 {
		return NilOffset, fmt.Errorf("shm: AllocChain of %d blocks", n)
	}
	var head, tail int32 = NilOffset, NilOffset
	for i := 0; i < n; i++ {
		var off int32
		var err error
		if wait {
			off, err = a.AllocWait(stop)
		} else {
			off, err = a.Alloc()
		}
		if err != nil {
			if head != NilOffset {
				a.FreeChain(head)
			}
			return NilOffset, err
		}
		a.setLink(off, NilOffset)
		if head == NilOffset {
			head = off
		} else {
			a.setLink(tail, off)
		}
		tail = off
	}
	return head, nil
}

// lockWithFree takes the free-pool lock once at least demand blocks are
// free and returns holding it; on error the lock is not held. With wait
// set, exhaustion blocks until frees cover the whole demand (stop
// aborts, as in AllocWait); a demand beyond the region errors
// immediately instead of deadlocking.
func (a *Arena) lockWithFree(demand int, wait bool, stop <-chan struct{}) error {
	if demand > int(a.nBlocks) {
		return fmt.Errorf("shm: allocation of %d blocks exceeds region of %d: %w",
			demand, a.nBlocks, ErrOutOfBlocks)
	}
	a.mu.Lock()
	for {
		if int(a.nFree) >= demand {
			return nil
		}
		if !wait {
			a.stats.AllocFails++
			a.mu.Unlock()
			return ErrOutOfBlocks
		}
		a.stats.AllocBlocks++
		a.waiters++
		ch := a.cond.ch
		a.mu.Unlock()
		aborted := false
		select {
		case <-ch:
			// Frees arrived; retry the whole reservation.
		case <-stop:
			aborted = true
		}
		// One acquisition per wake: the hold that de-registers the waiter
		// is the hold that retries the reservation.
		a.mu.Lock()
		a.waiters--
		if aborted {
			a.mu.Unlock()
			return ErrOutOfBlocks
		}
	}
}

// chainLocked links n single blocks head→…→tail. The caller holds the
// lock and has verified nFree >= n.
func (a *Arena) chainLocked(n int) (head, tail int32) {
	head, tail = NilOffset, NilOffset
	for j := 0; j < n; j++ {
		off, err := a.allocLocked()
		if err != nil {
			// Unreachable: nFree covers the chain.
			panic("shm: chainLocked underflow")
		}
		a.setLink(off, NilOffset)
		if head == NilOffset {
			head = off
		} else {
			a.setLink(tail, off)
		}
		tail = off
	}
	return head, tail
}

// offsetPairs returns two n-element result slices carved from one
// allocation. Batch allocators call it before taking the free-pool lock:
// a heap allocation can run a garbage-collection assist, which must not
// happen with the spinlock held.
func offsetPairs(n int) (heads, tails []int32) {
	buf := make([]int32, 2*n)
	return buf[:n:n], buf[n:]
}

// AllocChains allocates one chain per entry of ns — ns[i] blocks linked
// head→…→tail — in a single arena transaction: the free-list lock is
// taken once for the whole batch, not once per block or per chain. This
// is the allocator half of the batched send path: a SendBatch of k
// messages costs one lock acquisition here instead of the sum of the
// messages' block counts. Both endpoints of every chain are returned so
// callers building message headers need not re-walk the links. On
// failure nothing is leaked.
//
// With wait set, exhaustion blocks until the batch's full block demand
// can be met (stop aborts, as in AllocWait); the demand must not exceed
// the region or the call errors immediately instead of deadlocking.
func (a *Arena) AllocChains(ns []int, wait bool, stop <-chan struct{}) (heads, tails []int32, err error) {
	total := 0
	for _, n := range ns {
		if n <= 0 {
			return nil, nil, fmt.Errorf("shm: AllocChains chain of %d blocks", n)
		}
		total += n
	}
	if total == 0 {
		return nil, nil, nil
	}
	heads, tails = offsetPairs(len(ns))
	if err := a.lockWithFree(total, wait, stop); err != nil {
		return nil, nil, err
	}
	for i, n := range ns {
		heads[i], tails[i] = a.chainLocked(n)
	}
	a.mu.Unlock()
	return heads, tails, nil
}

// AllocPayload allocates a chain able to hold n payload bytes, returning
// both endpoints. In span mode the chain is one contiguous span whenever
// a long enough free run exists (several spans under fragmentation); in
// classic mode it is BlocksFor(n) linked blocks, allocated in a single
// free-list transaction. wait and stop have AllocWait's semantics,
// applied to the chain's worst-case block demand. It is AllocPayloads for
// one payload, without the result slices.
func (a *Arena) AllocPayload(n int, wait bool, stop <-chan struct{}) (head, tail int32, err error) {
	if n < 0 && a.spans {
		return NilOffset, NilOffset, fmt.Errorf("shm: AllocPayload payload of %d bytes", n)
	}
	if err := a.lockWithFree(a.BlocksFor(n), wait, stop); err != nil {
		return NilOffset, NilOffset, err
	}
	head, tail = a.payloadChainLocked(n)
	a.mu.Unlock()
	return head, tail, nil
}

// payloadChainLocked builds the chain for n payload bytes in the arena's
// mode. The caller holds the lock and has verified nFree >= BlocksFor(n).
func (a *Arena) payloadChainLocked(n int) (head, tail int32) {
	if a.spans {
		return a.spanChainLocked(n)
	}
	return a.chainLocked(a.BlocksFor(n))
}

// AllocPayloads is the batch form of AllocPayload: one chain per payload
// length in ns, all allocated under a single lock acquisition — the
// allocator half of the batched send path, span-aware. Either every
// chain is built or none is. It is AllocPayloadsInto with result slices
// of its own.
func (a *Arena) AllocPayloads(ns []int, wait bool, stop <-chan struct{}) (heads, tails []int32, err error) {
	if len(ns) == 0 {
		return nil, nil, nil
	}
	heads, tails = offsetPairs(len(ns))
	if err := a.AllocPayloadsInto(ns, heads, tails, wait, stop); err != nil {
		return nil, nil, err
	}
	return heads, tails, nil
}

// AllocPayloadsInto is AllocPayloads writing chain i's endpoints to
// heads[i] and tails[i] — both at least len(ns) long, the caller's, and
// untouched on error — so a batch whose caller has somewhere to put them
// (msg.Pool's stack buffers) allocates nothing on the heap.
//
// The block demand used for capacity checks and the wait loop is the
// fully-fragmented worst case, BlocksFor(len): a span of L blocks holds
// L*blockSize-4 >= L*(blockSize-4) payload bytes, so once that demand is
// free the greedy span builder cannot run out.
func (a *Arena) AllocPayloadsInto(ns []int, heads, tails []int32, wait bool, stop <-chan struct{}) error {
	total := 0
	for _, n := range ns {
		if n < 0 && a.spans {
			return fmt.Errorf("shm: AllocPayloads payload of %d bytes", n)
		}
		total += a.BlocksFor(n)
	}
	if len(ns) == 0 {
		return nil
	}
	heads, tails = heads[:len(ns)], tails[:len(ns)]
	if err := a.lockWithFree(total, wait, stop); err != nil {
		return err
	}
	for i, n := range ns {
		heads[i], tails[i] = a.payloadChainLocked(n)
	}
	a.mu.Unlock()
	return nil
}

// Free returns one block (or, in span mode, the whole span starting at
// off) to the free pool.
func (a *Arena) Free(off int32) {
	a.checkOffset(off)
	a.mu.Lock()
	if a.spans {
		a.freeSpanLocked(off)
		a.wakeAndUnlock()
		return
	}
	a.setLink(off, a.freeHead)
	a.freeHead = off
	a.nFree++
	a.stats.Frees++
	a.wakeAndUnlock()
}

// wakeAndUnlock releases the lock, waking block-pool waiters by
// replace-and-close only; waiters de-register themselves (see
// AllocWait), so a waiter aborting on stop can never consume another
// waiter's registration.
func (a *Arena) wakeAndUnlock() {
	if a.waiters > 0 {
		old := a.cond.ch
		a.cond.ch = make(chan struct{})
		a.mu.Unlock()
		close(old)
		return
	}
	a.mu.Unlock()
}

// FreeChain returns a linked chain (as built by AllocChain, AllocPayload
// or message assembly) to the free pool in one lock acquisition. In span
// mode each chain element is a span; its full run of blocks is returned.
// It is FreeChains for a single chain.
func (a *Arena) FreeChain(head int32) {
	a.FreeChains([]int32{head})
}

// FreeChains returns a whole batch of chains to the free pool in a
// single lock acquisition — the release half of the batched payload
// plane, mirroring AllocChains/AllocPayloads on the allocation side. A
// batched receive that consumed k messages (core's unpinAll, the
// selector's view harvest) pays one free-pool transaction here instead
// of k FreeChain calls. NilOffset entries are skipped, so callers can
// pass message heads verbatim.
func (a *Arena) FreeChains(heads []int32) {
	if len(heads) == 0 {
		return
	}
	if a.spans {
		// Collect every chain's element offsets outside the lock (the
		// link words are owned by the caller until the release); the
		// stack buffer covers typical batches without a heap allocation.
		var offsBuf [32]int32
		offs := offsBuf[:0]
		for _, head := range heads {
			if head == NilOffset {
				continue
			}
			for off := head; off != NilOffset; off = a.link(off) {
				a.checkOffset(off)
				offs = append(offs, off)
			}
		}
		if len(offs) == 0 {
			return
		}
		a.mu.Lock()
		for _, off := range offs {
			a.freeSpanLocked(off)
		}
		a.wakeAndUnlock()
		return
	}
	// Classic mode: find each chain's tail and length outside the lock,
	// then splice them all onto the free list under one acquisition.
	type chainEnd struct {
		head, tail int32
		n          int32
	}
	var endsBuf [16]chainEnd
	ends := endsBuf[:0]
	for _, head := range heads {
		if head == NilOffset {
			continue
		}
		a.checkOffset(head)
		n := int32(1)
		tail := head
		for {
			next := a.link(tail)
			if next == NilOffset {
				break
			}
			a.checkOffset(next)
			tail = next
			n++
		}
		ends = append(ends, chainEnd{head: head, tail: tail, n: n})
	}
	if len(ends) == 0 {
		return
	}
	a.mu.Lock()
	for _, c := range ends {
		a.setLink(c.tail, a.freeHead)
		a.freeHead = c.head
		a.nFree += c.n
		a.stats.Frees += uint64(c.n)
	}
	a.wakeAndUnlock()
}

// Next returns the block following off in a chain, or NilOffset.
func (a *Arena) Next(off int32) int32 {
	a.checkOffset(off)
	return a.link(off)
}

// SetNext links block off to next (next may be NilOffset).
func (a *Arena) SetNext(off, next int32) {
	a.checkOffset(off)
	if next != NilOffset {
		a.checkOffset(next)
	}
	a.setLink(off, next)
}

// Payload returns the payload bytes of the single block at off. The
// returned slice aliases the arena; the caller owns the block.
func (a *Arena) Payload(off int32) []byte {
	a.checkOffset(off)
	return a.mem[off : off+a.blockSize-4]
}

// SegPayload returns the payload bytes of the chain element at off: the
// block's payload in classic mode, the whole span's in span mode (one
// 4-byte link word however many blocks the span covers). The returned
// slice aliases the arena; the caller owns the element. This is the
// segment accessor msg.View iterates.
func (a *Arena) SegPayload(off int32) []byte {
	a.checkOffset(off)
	k := int32(1)
	if a.spans {
		k = a.spanLen[a.blockIndex(off)]
		if k < 1 {
			panic(fmt.Sprintf("shm: SegPayload of unallocated span at offset %d", off))
		}
	}
	return a.mem[off : off+k*a.blockSize-4]
}

// checkOffset panics if off is not a valid block offset. Offset bugs in a
// shared region are memory corruption; failing loudly is the only sane
// policy.
func (a *Arena) checkOffset(off int32) {
	if off < a.blockSize || off >= int32(len(a.mem)) || off%a.blockSize != 0 {
		panic(fmt.Sprintf("shm: invalid block offset %d (block size %d, region %d)", off, a.blockSize, len(a.mem)))
	}
}

// BlocksFor returns the number of blocks needed to hold n payload bytes.
// Zero-length messages still occupy one block so that the message exists
// in the FIFO.
func (a *Arena) BlocksFor(n int) int {
	if n <= 0 {
		return 1
	}
	p := a.PayloadSize()
	return (n + p - 1) / p
}

// WriteChain copies buf into the chain starting at head, returning the
// number of bytes written. The chain's payload capacity must cover buf.
func (a *Arena) WriteChain(head int32, buf []byte) int {
	written := 0
	off := head
	for written < len(buf) {
		if off == NilOffset {
			panic("shm: WriteChain ran out of blocks")
		}
		written += alignedCopy(a.SegPayload(off), buf[written:])
		off = a.Next(off)
	}
	return written
}

// sliceAddr is the address of b's first byte, for alignment arithmetic.
func sliceAddr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// alignedCopy is copy for the two structural copies between caller memory
// and the region — the one place WriteChain (and through it Pool.Build,
// View.CopyFrom, LoanBatch.Fill) and ReadChain move payload bytes. It
// answers one branch of go1.24's runtime/memmove_amd64.s: a forward copy
// of 2048 bytes or more whose destination is 16-byte aligned goes to
// fwdBy8 (REP MOVSQ) whatever the source's alignment, and REP MOVSQ from a
// source that is not 8-byte aligned runs at about a sixth of its speed
// (~700 ns against ~110 ns per 16 KiB on the reference box). Payloads
// start on block boundaries, so the region side is the aligned one; when
// the other side is not (a caller's buf[4:], a frame after a 4-byte
// prefix, an odd block size) the head bytes up to the source's next
// 8-byte boundary are copied first, which both aligns the source and
// takes the destination off the REP MOVSQ branch.
func alignedCopy(dst, src []byte) int {
	if n := min(len(dst), len(src)); n >= 2048 && sliceAddr(dst)&15 == 0 {
		if mis := int(sliceAddr(src) & 7); mis != 0 {
			h := 8 - mis
			copy(dst[:h], src[:h])
			return h + copy(dst[h:], src[h:])
		}
	}
	return copy(dst, src)
}

// ReadChain copies length bytes from the chain starting at head into buf,
// returning the number of bytes copied (min of length and len(buf)).
func (a *Arena) ReadChain(head int32, length int, buf []byte) int {
	want := length
	if want > len(buf) {
		want = len(buf)
	}
	read := 0
	off := head
	for read < want {
		if off == NilOffset {
			panic("shm: ReadChain ran out of blocks")
		}
		p := a.SegPayload(off)
		remain := want - read
		if remain < len(p) {
			p = p[:remain]
		}
		read += alignedCopy(buf[read:], p)
		off = a.Next(off)
	}
	return read
}

// ChainLen walks a chain and returns its element count (segments, not
// blocks — the two differ in span mode). Intended for tests and
// invariant checks.
func (a *Arena) ChainLen(head int32) int {
	n := 0
	for off := head; off != NilOffset; off = a.Next(off) {
		n++
	}
	return n
}

// ChainBlocks walks a chain and returns the number of region blocks it
// occupies (span-aware). Intended for tests and invariant checks.
func (a *Arena) ChainBlocks(head int32) int {
	n := int32(0)
	for off := head; off != NilOffset; off = a.Next(off) {
		a.checkOffset(off)
		if a.spans {
			n += a.spanLen[a.blockIndex(off)]
		} else {
			n++
		}
	}
	return int(n)
}

// CheckFreeList verifies free-pool integrity: every free block is a valid
// offset, no block appears twice, and the count matches nFree (in span
// mode, that the bitmap population matches nFree). It is an O(nBlocks)
// diagnostic for tests.
func (a *Arena) CheckFreeList() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spans {
		n := int32(0)
		for i, w := range a.freeBits {
			if i == len(a.freeBits)-1 && a.nBlocks%64 != 0 {
				if w>>(a.nBlocks%64) != 0 {
					return fmt.Errorf("shm: free bitmap marks blocks beyond the region")
				}
			}
			n += int32(bits.OnesCount64(w))
		}
		if n != a.nFree {
			return fmt.Errorf("shm: free bitmap has %d blocks, counter says %d", n, a.nFree)
		}
		return nil
	}
	seen := make(map[int32]bool, a.nFree)
	n := int32(0)
	for off := a.freeHead; off != NilOffset; off = a.link(off) {
		if off < a.blockSize || off >= int32(len(a.mem)) || off%a.blockSize != 0 {
			return fmt.Errorf("shm: free list contains invalid offset %d", off)
		}
		if seen[off] {
			return fmt.Errorf("shm: free list cycle at offset %d", off)
		}
		seen[off] = true
		n++
		if n > a.nBlocks {
			return fmt.Errorf("shm: free list longer than region (%d blocks)", n)
		}
	}
	if n != a.nFree {
		return fmt.Errorf("shm: free list has %d blocks, counter says %d", n, a.nFree)
	}
	return nil
}
