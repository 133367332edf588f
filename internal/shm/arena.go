// Package shm implements the shared-memory region that backs MPF.
//
// The original MPF mapped a region of physical memory into the virtual
// address space of every Unix process in the program and carved it into a
// free list of fixed-size message blocks at init time; all message payload
// flowed through those blocks. Goroutines share a heap, so a mapped region
// is not *needed* for correctness — but the region is load-bearing for the
// paper's performance story (Figure 3's asymptote is a copy-cost asymptote).
// This package keeps the paper's region and its addressing:
//
//   - one contiguous byte arena, sized at Init from maxLNVCs/maxProcesses;
//   - fixed-size blocks addressed by int32 *offsets* (the portable stand-in
//     for pointers into a mapped region — offsets survive being mapped at
//     different addresses in different processes, which is exactly why the
//     original used them);
//   - chains of elements, each charged one 4-byte link word.
//
// What it does not keep is the paper's free list. Free blocks are bits in
// a *bitmap*, and a payload is placed, whenever fragmentation permits, in
// one run of physically adjacent blocks — a span — charged a single link
// word. A multi-kilobyte message then occupies one contiguous,
// line-aligned byte range instead of a chain of 60-byte fragments, which
// is what lets the zero-copy plane (msg.View, core.SendLoan/ReceiveView)
// hand callers a single slice. Under fragmentation a payload is a chain
// of several spans (SegPayload describes one), and every chain API
// (WriteChain, ReadChain, FreeChain) walks it. The per-block cost of the
// paper's linked list lives on in internal/simmpf, which the paper's
// figures run on.
//
// The one layout rule: the chain element at offset off (a span of k
// blocks) has the payload [off, off+k*blockSize-4). The 4 bytes before
// it, [off-4, off) — the last word of the slot before; the first block's
// lands in the burnt block 0 — are the element's link word in the
// paper's block accounting, but nothing reads or writes them: the link
// itself is next[idx], a table in this process's heap beside the bitmap,
// so no word a peer can reach decides where a chain walk or a free goes.
// The region base is 64-byte aligned, so every payload starts on a block
// boundary and, for block sizes that are multiples of 64 (the default),
// on a cache line. That is what the structural copies need: go1.24's
// memmove sends a copy of 2 KiB or more whose destination is 16-aligned
// to REP MOVSQ, which runs at a sixth of its speed when the source sits
// at 4 mod 8 — where every payload sat while the link word led the
// block (see alignedCopy for the same hazard from the caller's side). A
// block still costs its 4 reserved bytes, so PayloadSize, BlocksFor and
// the span length rule are what they were.
//
// The arena is safe for concurrent use.
package shm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/spinlock"
)

// NilOffset is the arena's nil pointer. Offset 0 is deliberately burned
// (the first block starts at blockSize) so that the zero value of an
// offset-valued field is unmistakably invalid, the same trick the original
// played by reserving the region's first word.
const NilOffset int32 = 0

// ErrOutOfBlocks is returned by an allocation that finds too few free
// blocks and may not wait (the paper's fixed-size region), or whose wait
// was aborted.
var ErrOutOfBlocks = errors.New("shm: out of message blocks")

// MinBlockSize is the smallest usable block: the link word plus at least
// one payload byte. The paper ran with 10-byte blocks, which this bound
// admits.
const MinBlockSize = 5

// NoSlot is the recycle slot of no circuit: AllocPayloadIn and
// FreeChainIn given it are AllocPayload and FreeChain.
const NoSlot = -1

// Arena is a shared region divided into fixed-size blocks.
type Arena struct {
	mem       []byte
	blockSize int32
	nBlocks   int32
	// perBlock and perPayload divide by the block size and the payload
	// size with one multiply each: a chain walk takes a block index per
	// element, and every send sizes its demand.
	perBlock, perPayload recip

	// slots are the recycle slots, one per circuit (Config.Slots), and
	// parked is raised while an allocation sleeps for blocks: the two
	// halves of the rule that no block parked in a slot strands an
	// allocation (lockWithFree, FreeChainIn).
	slots  []recycleSlot
	parked atomic.Bool

	mu    spinlock.TAS
	nFree int32

	// The free bitmap: bit i set means block i (at offset
	// (i+1)*blockSize) is free, so runs of physically adjacent free
	// blocks can be found. spanLen[i] and next[i] record, for an
	// allocated span starting at block i, how many blocks it covers and
	// the offset of the chain's next element — the metadata FreeChain
	// and SegPayload need, kept at the side where no peer can write it.
	// next[i] belongs to the chain's owner between allocation and free,
	// like the span's bytes. lowFree is a lower bound on the lowest free
	// block index (no free bit exists below it); every scan starts there
	// and tightens it, so allocations do not re-walk a long-lived
	// allocated prefix while holding the lock. Frees lower it again.
	freeBits []uint64
	spanLen  []int32
	next     []int32
	lowFree  int32

	// wake is the channel lockWithFree's waiters sleep on, and waiters
	// the number registered on it since it was made; both guarded by mu.
	// A channel rather than a sync.Cond because a waiter also selects on
	// its stop channel.
	wake    chan struct{}
	waiters int32

	stats Stats
}

// recip is ⌈2⁶³/d⌉ for a divisor 1 ≤ d ≤ 2³¹: div(x) is ⌊x/d⌋ with one
// multiply, exact for every x < 2³² (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019: the error term x·(recip·d −
// 2⁶³) stays below 2⁶³). 2⁶³ rather than 2⁶⁴ keeps d = 1, the payload of
// a MinBlockSize block, in range.
type recip uint64

func recipOf(d int32) recip { return recip((1<<63-1)/uint64(d) + 1) }

func (r recip) div(x uint64) uint64 {
	hi, lo := bits.Mul64(uint64(r), x)
	return hi<<1 | lo>>63
}

// A recycleSlot holds at most one chain: a single span that its
// circuit's last retirement parked there for the circuit's next send
// (FreeChainIn, AllocPayloadIn). The arena owns it. Its blocks stay
// allocated in the bitmap but count as free (FreeBlocks), and an
// allocation short of blocks takes every parked chain back
// (drainSlotsLocked). It holds no segment word. Each slot has a cache
// line to itself: the slot array is a multiple of 64 bytes long, and
// the allocator starts such objects on line boundaries.
type recycleSlot struct {
	// chain is the parked span, head<<32 | blocks, or 0 when empty.
	chain atomic.Uint64
	// reuses counts sends that took the parked chain back.
	reuses atomic.Uint64
	_      [48]byte
}

// Stats counts allocator activity. Read it via Arena.Stats.
type Stats struct {
	Allocs      uint64 // blocks allocated
	Frees       uint64 // blocks returned
	AllocFails  uint64 // allocations that found too few free blocks and could not wait
	AllocBlocks uint64 // times an allocation blocked waiting for frees
	Wakes       uint64 // frees that woke blocked allocations; never above AllocBlocks
	HighWater   int32  // maximum simultaneously-allocated blocks
	// SlotReuses counts allocations served from a recycle slot, without
	// the lock. A span parked in a slot stays counted in Allocs; Frees
	// counts it when a drain returns it to the bitmap.
	SlotReuses uint64
}

// Config sizes an Arena.
type Config struct {
	// BlockSize is the size of each block in bytes, including the 4
	// bytes of link word the paper's layout charges it (reserved in the
	// slot's last word and never read; the payload starts on the block
	// boundary). The paper's experiments used 10.
	BlockSize int
	// NumBlocks is the number of blocks in the region.
	NumBlocks int
	// Deprecated: Spans is ignored. The span bitmap is the arena's only
	// layout; the field remains so that existing literals still compile.
	Spans bool
	// Slots is the number of recycle slots, numbered from 0: one per
	// circuit, so that a closed loop's message reuses the span its last
	// retirement freed (AllocPayloadIn, FreeChainIn).
	Slots int
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
	return Config{BlockSize: blockSize, NumBlocks: n, Slots: maxLNVCs}
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
// free bitmap, span lengths, chain links, the lock, waiter bookkeeping —
// stays in this process's heap: the arena has exactly one allocating owner
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
		mem:        mem,
		blockSize:  int32(cfg.BlockSize),
		perBlock:   recipOf(int32(cfg.BlockSize)),
		perPayload: recipOf(int32(cfg.BlockSize) - 4),
		nBlocks:    int32(cfg.NumBlocks),
		slots:      make([]recycleSlot, max(cfg.Slots, 0)),
		freeBits:   make([]uint64, (cfg.NumBlocks+63)/64),
		spanLen:    make([]int32, cfg.NumBlocks),
		next:       make([]int32, cfg.NumBlocks),
		nFree:      int32(cfg.NumBlocks),
	}
	a.wake = make(chan struct{})
	a.flipRunLocked(0, a.nBlocks, true)
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

// BlockSize returns the configured block size including the link word.
func (a *Arena) BlockSize() int { return int(a.blockSize) }

// PayloadSize returns the usable payload bytes per block.
func (a *Arena) PayloadSize() int { return int(a.blockSize) - 4 }

// NumBlocks returns the total number of blocks in the region.
func (a *Arena) NumBlocks() int { return int(a.nBlocks) }

// FreeBlocks returns the current number of free blocks, those parked in
// recycle slots included: they are taken back before any allocation
// fails or waits.
func (a *Arena) FreeBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int(a.nFree)
	for i := range a.slots {
		n += int(int32(a.slots[i].chain.Load()))
	}
	return n
}

// Stats returns a snapshot of allocator statistics.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	st := a.stats
	a.mu.Unlock()
	for i := range a.slots {
		st.SlotReuses += a.slots[i].reuses.Load()
	}
	return st
}

// LockStats reports the free-pool lock's traffic: total acquisitions
// and the subset whose first attempt found the lock held. This is the
// number the batched payload plane amortises — a LoanBatch of k
// messages costs one acquisition here where k single loans cost k —
// and what core's TestBatchedPlaneArenaLocks counts. The read waits
// out a holder and is not itself counted, so snapshots can bracket a
// measured interval without perturbing it (FreeBlocks and Stats each
// count one acquisition).
func (a *Arena) LockStats() (acquisitions, contended uint64) {
	return a.mu.Stats()
}

// The link of the element at off lives in next, never in the region
// (see the package comment).
func (a *Arena) setLink(off, next int32) { a.next[a.blockIndex(off)] = next }

func (a *Arena) link(off int32) int32 { return a.next[a.blockIndex(off)] }

// offsetOf converts a block index to its arena offset; blockIndex is the
// inverse. Block 0 lives at offset blockSize (offset 0 is NilOffset).
func (a *Arena) offsetOf(idx int32) int32 { return (idx + 1) * a.blockSize }
func (a *Arena) blockIndex(off int32) int32 {
	return int32(a.perBlock.div(uint64(off))) - 1
}

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
// payload bytes: the span is charged a single 4-byte link word however
// many blocks it covers. n must fit the region, as a payload whose
// demand was admitted does.
func (a *Arena) spanBlocksFor(n int) int32 {
	if n <= 0 {
		return 1
	}
	return int32(a.perBlock.div(uint64(n) + uint64(a.blockSize) + 3))
}

// spanChainLocked builds a chain holding payload bytes from free runs:
// one contiguous span in the common case, several spans under
// fragmentation (greedy longest-run). The caller must hold the lock and
// have verified nFree >= BlocksFor(payload) — the fully-fragmented
// worst case — which guarantees success (see the demand invariant in
// AllocPayloadsInto).
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

// lockWithFree takes the free-pool lock once at least demand blocks are
// free and returns holding it; on error the lock is not held. It is the
// arena's one wait loop. With wait set, exhaustion blocks until frees
// cover the whole demand — the default message_send policy: the paper's
// region is fixed-size, so a sender that outruns its receivers must wait
// for blocks to be recycled. The stop channel aborts the wait (used at
// facility shutdown; a nil stop never aborts), and a demand beyond the
// region errors immediately instead of deadlocking.
//
// Waiter accounting: a waiter registers on the current wake channel by
// incrementing waiters before it sleeps. The next free replaces and
// closes that channel and zeroes the count in the same hold
// (wakeAndUnlock), so a woken waiter has nothing to de-register, and a
// waiter aborting on stop de-registers only while its channel is still
// the current one. The count is therefore never below the number of
// sleepers on the current channel: a sleeping waiter's channel is the
// current one and the next free closes it, and one park costs one
// channel however many frees arrive before the woken waiter runs.
//
// Recycle slots: blocks parked in them are free, so a short allocation
// takes every parked chain back (drainSlotsLocked) before it fails or
// sleeps. One that may sleep first raises parked, and keeps it raised
// for as long as any waiter is registered. A deposit made after the
// drain passed its slot then sees the flag and frees its chain through
// the lock, which wakes the waiter (FreeChainIn): the flag's store
// precedes the drain's loads, the deposit's CAS precedes its load of the
// flag, and the atomics are sequentially consistent, so either the
// drain finds the chain or the deposit finds the flag.
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
		if wait {
			a.parked.Store(true)
		}
		if a.drainSlotsLocked() && int(a.nFree) >= demand {
			if a.waiters == 0 {
				a.parked.Store(false)
			}
			return nil
		}
		if !wait {
			a.stats.AllocFails++
			a.mu.Unlock()
			return ErrOutOfBlocks
		}
		a.stats.AllocBlocks++
		a.waiters++
		ch := a.wake
		a.mu.Unlock()
		select {
		case <-ch:
			// Frees arrived; retry the whole reservation, in the wake's one
			// acquisition.
			a.mu.Lock()
		case <-stop:
			a.mu.Lock()
			if ch == a.wake {
				a.waiters--
			}
			if a.waiters == 0 {
				a.parked.Store(false)
			}
			a.mu.Unlock()
			return ErrOutOfBlocks
		}
	}
}

// drainSlotsLocked returns every chain parked in a recycle slot to the
// bitmap and reports whether there was one. Blocks it frees beyond the
// caller's demand may fit a registered waiter, so it wakes them.
func (a *Arena) drainSlotsLocked() bool {
	drained := false
	for i := range a.slots {
		s := &a.slots[i]
		if s.chain.Load() == 0 {
			continue
		}
		if w := s.chain.Swap(0); w != 0 {
			a.freeSpanLocked(int32(w >> 32))
			drained = true
		}
	}
	if drained && a.waiters > 0 {
		close(a.rewakeLocked())
	}
	return drained
}

// offsetPairs returns two n-element result slices carved from one
// allocation. Batch allocators call it before taking the free-pool lock:
// a heap allocation can run a garbage-collection assist, which must not
// happen with the free-pool lock held.
func offsetPairs(n int) (heads, tails []int32) {
	buf := make([]int32, 2*n)
	return buf[:n:n], buf[n:]
}

// AllocPayload allocates a chain able to hold n payload bytes, returning
// both endpoints: one contiguous span whenever a long enough free run
// exists, several spans under fragmentation, all in one free-pool
// transaction. wait and stop are lockWithFree's, applied to the chain's
// worst-case block demand. It is AllocPayloads for one payload, without
// the result slices.
func (a *Arena) AllocPayload(n int, wait bool, stop <-chan struct{}) (head, tail int32, err error) {
	if n < 0 {
		return NilOffset, NilOffset, fmt.Errorf("shm: AllocPayload payload of %d bytes", n)
	}
	if err := a.lockWithFree(a.BlocksFor(n), wait, stop); err != nil {
		return NilOffset, NilOffset, err
	}
	head, tail = a.spanChainLocked(n)
	a.mu.Unlock()
	return head, tail, nil
}

// AllocPayloadIn is AllocPayload for a send on the circuit that owns
// recycle slot slot: when the slot holds a span of exactly the length
// an n-byte payload gets, one CAS takes it back, without the lock —
// the closed loop's path, fed by the circuit's FreeChainIn. Otherwise,
// or given NoSlot, it is AllocPayload.
func (a *Arena) AllocPayloadIn(slot, n int, wait bool, stop <-chan struct{}) (head, tail int32, err error) {
	if slot != NoSlot && n >= 0 {
		s := &a.slots[slot]
		// A span of k blocks holds k*blockSize-4 bytes, the one link word
		// charged, and is the span n bytes get when one block fewer would
		// not hold them.
		if w := s.chain.Load(); w != 0 {
			capacity := int(int32(w))*int(a.blockSize) - 4
			if n <= capacity && n > capacity-int(a.blockSize) && s.chain.CompareAndSwap(w, 0) {
				s.reuses.Add(1)
				head = int32(w >> 32)
				return head, head, nil
			}
		}
	}
	return a.AllocPayload(n, wait, stop)
}

// AllocPayloads is the batch form of AllocPayload: one chain per payload
// length in ns, all allocated under a single lock acquisition — the
// allocator half of the batched send path: a LoanBatch of k messages
// costs one acquisition here, not k. Either every chain is built or none
// is. It is AllocPayloadsInto with result slices of its own.
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
		if n < 0 {
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
		heads[i], tails[i] = a.spanChainLocked(n)
	}
	a.mu.Unlock()
	return nil
}

// wakeAndUnlock releases the lock, waking the block-pool waiters
// registered on the current channel by replace-and-close and zeroing
// their count (see lockWithFree). A free that finds no registration —
// every free after the first while a woken waiter is on its way back to
// the lock — is a plain unlock and allocates nothing.
func (a *Arena) wakeAndUnlock() {
	if a.waiters == 0 {
		a.mu.Unlock()
		return
	}
	old := a.rewakeLocked()
	a.parked.Store(false)
	a.mu.Unlock()
	close(old)
}

// rewakeLocked replaces the wake channel and zeroes the count of the
// waiters registered on the old one, which it returns for the caller to
// close: every one of them retries.
func (a *Arena) rewakeLocked() chan struct{} {
	old := a.wake
	a.wake = make(chan struct{})
	a.waiters = 0
	a.stats.Wakes++
	return old
}

// FreeChain returns a chain (as built by AllocPayload or message
// assembly) to the free pool in one lock acquisition: every element's
// full span of blocks. It is FreeChains for a single chain.
func (a *Arena) FreeChain(head int32) {
	a.FreeChains([]int32{head})
}

// FreeChainIn is FreeChain for a chain retired from the circuit that
// owns recycle slot slot: a single-span chain is parked in the slot,
// with one CAS and without the lock, for the circuit's next
// AllocPayloadIn, when the slot is empty. Any other chain, a full slot
// or NoSlot takes FreeChain's path, and so does a parked chain that
// finds an allocation waiting for blocks (see lockWithFree).
func (a *Arena) FreeChainIn(slot int, head int32) {
	if slot != NoSlot {
		a.checkOffset(head)
		idx, s := a.blockIndex(head), &a.slots[slot]
		// A full slot is seen by a load, not a failed CAS: a stream's
		// retirements find it full 62 times in 64.
		if a.next[idx] == NilOffset && s.chain.Load() == 0 {
			w := uint64(head)<<32 | uint64(a.spanLen[idx])
			if s.chain.CompareAndSwap(0, w) && (!a.parked.Load() || !s.chain.CompareAndSwap(w, 0)) {
				return // parked, or already taken back by a send or a drain
			}
		}
	}
	a.FreeChain(head)
}

// FreeChains returns a whole batch of chains to the free pool in a
// single lock acquisition — the release half of the batched payload
// plane, mirroring AllocPayloads on the allocation side. A batched
// receive that consumed k messages (core's unpinAll, the selector's view
// harvest) pays one free-pool transaction here instead of k FreeChain
// calls. NilOffset entries are skipped, so callers can pass message
// heads verbatim.
func (a *Arena) FreeChains(heads []int32) {
	// Collect every chain's element offsets outside the lock (the links
	// are owned by the caller until the release); the stack buffer
	// covers typical batches without a heap allocation.
	var offsBuf [32]int32
	offs := offsBuf[:0]
	for _, head := range heads {
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
}

// Next returns the element following off in a chain, or NilOffset.
func (a *Arena) Next(off int32) int32 {
	a.checkOffset(off)
	return a.link(off)
}

// SegPayload returns the payload bytes of the chain element at off: the
// whole span's, less one 4-byte link word however many blocks the span
// covers. The returned slice aliases the arena; the caller owns the
// element. This is the segment accessor msg.View iterates.
func (a *Arena) SegPayload(off int32) []byte {
	a.checkOffset(off)
	k := a.spanLen[a.blockIndex(off)]
	if k < 1 {
		panic(fmt.Sprintf("shm: SegPayload of unallocated span at offset %d", off))
	}
	return a.mem[off : off+k*a.blockSize-4]
}

// checkOffset panics if off is not a valid block offset. Offset bugs in a
// shared region are memory corruption; failing loudly is the only sane
// policy.
func (a *Arena) checkOffset(off int32) {
	if off < a.blockSize || off >= int32(len(a.mem)) || int32(a.perBlock.div(uint64(off)))*a.blockSize != off {
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
	p := int(a.blockSize) - 4
	if uint64(n) >= 1<<31 { // beyond any region, and beyond recip's range
		return (n + p - 1) / p
	}
	return int(a.perPayload.div(uint64(n + p - 1)))
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

// CheckFreeList verifies free-pool integrity: the bitmap marks no block
// beyond the region and its population matches nFree. It is an
// O(nBlocks) diagnostic for tests.
func (a *Arena) CheckFreeList() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int32(0)
	for i, w := range a.freeBits {
		if i == len(a.freeBits)-1 && a.nBlocks%64 != 0 && w>>(a.nBlocks%64) != 0 {
			return fmt.Errorf("shm: free bitmap marks blocks beyond the region")
		}
		n += int32(bits.OnesCount64(w))
	}
	if n != a.nFree {
		return fmt.Errorf("shm: free bitmap has %d blocks, counter says %d", n, a.nFree)
	}
	return nil
}
