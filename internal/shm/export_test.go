package shm

import "fmt"

// AttachRing binds a handle to a ring previously formatted by
// InitRing — possibly in another process's mapping of the same
// segment.
func AttachRing(seg *Segment, base int64) (*XRing, error) {
	if base < 0 || base%64 != 0 || base+ringHdrBytes > seg.Size() {
		return nil, fmt.Errorf("shm: ring base %d invalid for segment of %d bytes", base, seg.Size())
	}
	if seg.Atomic32(base+ringOffMagic).Load() != ringMagic {
		return nil, fmt.Errorf("shm: no ring at segment offset %d", base)
	}
	capacity := seg.Atomic32(base + ringOffCap).Load()
	if capacity < 2 || capacity&(capacity-1) != 0 || base+RingBytes(int(capacity)) > seg.Size() {
		return nil, fmt.Errorf("shm: ring at %d has corrupt capacity %d", base, capacity)
	}
	return RingAt(seg, base, int(capacity)), nil
}

// ChainLen walks a chain and returns its element count (segments, not
// blocks). Intended for tests and invariant checks.
func (a *Arena) ChainLen(head int32) int {
	n := 0
	for off := head; off != NilOffset; off = a.Next(off) {
		n++
	}
	return n
}

// ChainBlocks walks a chain and returns the number of region blocks its
// spans occupy. Intended for tests and invariant checks.
func (a *Arena) ChainBlocks(head int32) int {
	n := int32(0)
	for off := head; off != NilOffset; off = a.Next(off) {
		n += a.spanLen[a.blockIndex(off)]
	}
	return int(n)
}
