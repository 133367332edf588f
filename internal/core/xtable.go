package core

// The cross-process descriptor table. The paper's MPF kept all of its
// descriptors inside the mapped region; this port's LNVC descriptors
// are Go structs full of pointers and cannot leave the serving
// process, so the process boundary gets its own table — a small,
// fixed-layout structure inside the segment that holds, per peer
// process: a state word naming the slot's incarnation, followed by two
// SPSC descriptor rings per slot
// (down = parent→child, up = child→parent). Everything in it is
// offsets and atomic words; no Go pointer crosses the boundary.
//
// The table header carries the same protocol generation the attach
// handshake quotes. AttachSegTable refuses a mismatch, so a child
// holding a stale handshake (a recycled segment, a restarted parent)
// fails loudly at attach instead of misreading a layout it was never
// told about.
//
// Layout (all offsets relative to the table base, 64-aligned):
//
//	+0   magic, version
//	+8   generation (uint64)
//	+16  nSlots, ringCap (uint32 each)
//	+64  slot 0, +128 slot 1, … (64 bytes per slot):
//	       +0  state    free(0)/attached(1) in the low byte, the
//	            slot's incarnation in the high 24 bits — one word, so a
//	            peer reads both in one load
//	       +8…+63       free
//	+64·(nSlots+1)  the rings, down then up for slot 0, then slot 1, …
//
// No ring offset is stored: every process derives ring i's base from
// (base, nSlots, ringCap) alone (ringBase), so no word a peer can write
// decides which memory the server formats or pushes into. The formatting
// process binds every ring once, in InitSegTable, and uses those
// handles for the table's life; a peer binds its own slot's pair.
//
// The slot state word is a notice from the server to the slot's peer,
// one store per change (SetSlot): the server begins an incarnation by
// writing attached|gen before the handshake that hands gen to the peer,
// and ends it by writing free|gen. The peer reads it to learn that its
// incarnation is over; nothing in the server reads it back, so a peer
// that writes into it changes only what it tells itself. Which
// incarnation is live, and when it ends, is the server's own record
// (mpf's bridgeState), not a word in the segment.

import (
	"errors"
	"fmt"

	"repro/internal/shm"
)

// Slot states (the low byte of the slot state word).
const (
	SlotFree     uint32 = 0
	SlotAttached uint32 = 1
)

const (
	segTableMagic = 0x5458504D // "MPXT"
	// segTableVersion 5: the server alone writes the slot state word and
	// has no detached or dead state (version 4 stored no pid; version 3
	// derived the ring offsets instead of storing them; version 2 packed
	// the attach generation into the state word).
	segTableVersion = 5
	segTableHdr     = 64
	segSlotBytes    = 64

	slotOffState = 0

	// slotStateMask isolates the state from the packed word; the
	// incarnation occupies the remaining 24 bits (wrap-around after 16M
	// incarnations of one slot is acceptable ABA exposure).
	slotStateMask = 0xFF
	slotGenShift  = 8
)

// ErrGenerationMismatch is returned when a peer attaches with a
// generation that does not match the table's — a stale handshake
// against a recycled or restarted segment.
var ErrGenerationMismatch = errors.New("mpf: segment table generation mismatch")

// SegTable is a process-local handle onto the in-segment table. Every
// attached process holds its own handle over its own mapping.
type SegTable struct {
	seg     *shm.Segment
	base    int64
	nSlots  int
	ringCap int
	rings   []*shm.XRing // the formatter's handles, down and up per slot; nil in a peer
}

// segRingSpace is one ring's 64-aligned footprint.
func segRingSpace(ringCap int) int64 { return shm.AlignUp(shm.RingBytes(ringCap)) }

// ringBase is where ring j of a table lives — slot j/2's down ring for
// even j, its up ring for odd j: after the header and the slots, one
// 64-aligned footprint each. The one source of ring geometry.
func ringBase(base int64, nSlots, ringCap, j int) int64 {
	return base + segTableHdr + int64(nSlots)*segSlotBytes + int64(j)*segRingSpace(ringCap)
}

// SegTableBytes returns the full table footprint — header, slots and
// both rings of every slot — for segment layout planning.
func SegTableBytes(nSlots, ringCap int) int64 {
	return segTableHdr + int64(nSlots)*segSlotBytes + int64(nSlots)*2*segRingSpace(ringCap)
}

// InitSegTable formats a table (and all of its rings) at base inside a
// fresh, zeroed region of the segment, stamping it with generation.
func InitSegTable(seg *shm.Segment, base int64, nSlots, ringCap int, generation uint64) (*SegTable, error) {
	if nSlots < 1 || nSlots > 1<<16 {
		return nil, fmt.Errorf("mpf: segment table with %d slots", nSlots)
	}
	if base < 0 || base%64 != 0 {
		return nil, fmt.Errorf("mpf: segment table base %d not 64-aligned", base)
	}
	if base+SegTableBytes(nSlots, ringCap) > seg.Size() {
		return nil, fmt.Errorf("mpf: segment table of %d bytes at %d exceeds segment of %d",
			SegTableBytes(nSlots, ringCap), base, seg.Size())
	}
	t := &SegTable{seg: seg, base: base, nSlots: nSlots, ringCap: ringCap, rings: make([]*shm.XRing, 2*nSlots)}
	for j := range t.rings {
		var err error
		if t.rings[j], err = shm.InitRing(seg, ringBase(base, nSlots, ringCap, j), ringCap); err != nil {
			return nil, err
		}
	}
	seg.Atomic64(base + 8).Store(generation)
	seg.Atomic32(base + 16).Store(uint32(nSlots))
	seg.Atomic32(base + 20).Store(uint32(ringCap))
	seg.Atomic32(base + 4).Store(segTableVersion)
	// Magic last: an attacher that races formatting sees no table
	// rather than a half-formatted one.
	seg.Atomic32(base + 0).Store(segTableMagic)
	return t, nil
}

// AttachSegTable binds to a table formatted by another process's
// InitSegTable, verifying magic, version and the protocol generation
// from the attach handshake.
func AttachSegTable(seg *shm.Segment, base int64, generation uint64) (*SegTable, error) {
	if base < 0 || base%64 != 0 || base+segTableHdr > seg.Size() {
		return nil, fmt.Errorf("mpf: segment table base %d invalid for segment of %d bytes", base, seg.Size())
	}
	if seg.Atomic32(base+0).Load() != segTableMagic {
		return nil, fmt.Errorf("mpf: no segment table at offset %d", base)
	}
	if v := seg.Atomic32(base + 4).Load(); v != segTableVersion {
		return nil, fmt.Errorf("mpf: segment table version %d, want %d", v, segTableVersion)
	}
	if g := seg.Atomic64(base + 8).Load(); g != generation {
		return nil, fmt.Errorf("mpf: table stamped generation %d, handshake says %d: %w",
			g, generation, ErrGenerationMismatch)
	}
	nSlots := int(seg.Atomic32(base + 16).Load())
	ringCap := int(seg.Atomic32(base + 20).Load())
	if nSlots < 1 || nSlots > 1<<16 || ringCap < 2 || ringCap&(ringCap-1) != 0 ||
		base+SegTableBytes(nSlots, ringCap) > seg.Size() {
		return nil, fmt.Errorf("mpf: segment table at %d has corrupt geometry (%d slots, ring cap %d)",
			base, nSlots, ringCap)
	}
	return &SegTable{seg: seg, base: base, nSlots: nSlots, ringCap: ringCap}, nil
}

func (t *SegTable) slotBase(i int) int64 { return t.base + segTableHdr + int64(i)*segSlotBytes }

func (t *SegTable) checkSlot(i int) {
	if i < 0 || i >= t.nSlots {
		panic(fmt.Sprintf("mpf: segment table slot %d of %d", i, t.nSlots))
	}
}

// NSlots returns the table's slot count.
func (t *SegTable) NSlots() int { return t.nSlots }

// RingCap returns the per-direction ring capacity in records.
func (t *SegTable) RingCap() int { return t.ringCap }

// SetSlot stores state and gen into slot i's state word, one store:
// the server's notice to the slot's peer that incarnation gen has begun
// (SlotAttached) or ended (SlotFree).
func (t *SegTable) SetSlot(i int, state, gen uint32) {
	t.checkSlot(i)
	t.seg.Atomic32(t.slotBase(i) + slotOffState).Store(state | gen<<slotGenShift)
}

// SlotState returns slot i's current ownership state.
func (t *SegTable) SlotState(i int) uint32 {
	t.checkSlot(i)
	return t.seg.Atomic32(t.slotBase(i)+slotOffState).Load() & slotStateMask
}

// SlotStateGen reads state and generation from the one atomic word —
// how a peer learns whether its incarnation is still the slot's.
func (t *SegTable) SlotStateGen(i int) (state, gen uint32) {
	t.checkSlot(i)
	w := t.seg.Atomic32(t.slotBase(i) + slotOffState).Load()
	return w & slotStateMask, w >> slotGenShift
}

// Rings returns slot i's descriptor rings: down (parent→child) and up
// (child→parent). The formatting table returns the handles InitSegTable
// made, the same pair for the table's life, so their waiter counters
// only grow; a peer table binds a fresh pair at the derived offsets —
// a child does so once, for its own slot, at attach.
func (t *SegTable) Rings(i int) (down, up *shm.XRing) {
	t.checkSlot(i)
	if t.rings != nil {
		return t.rings[2*i], t.rings[2*i+1]
	}
	return shm.RingAt(t.seg, ringBase(t.base, t.nSlots, t.ringCap, 2*i), t.ringCap),
		shm.RingAt(t.seg, ringBase(t.base, t.nSlots, t.ringCap, 2*i+1), t.ringCap)
}

// ReformatRings re-initialises both of slot i's rings in place —
// indices zeroed, closed flag cleared, stale records unreachable. The
// teardown step that guarantees a slot's next incarnation starts from
// clean rings whatever its predecessor left queued. Only safe between
// incarnations (no live peer owns either ring end).
func (t *SegTable) ReformatRings(i int) {
	down, up := t.Rings(i)
	down.Reset()
	up.Reset()
}
