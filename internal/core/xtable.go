package core

// The cross-process descriptor table. The paper's MPF kept all of its
// descriptors inside the mapped region; this port's LNVC descriptors
// are Go structs full of pointers and cannot leave the serving
// process, so the process boundary gets its own table — a small,
// fixed-layout structure inside the segment that records, per attached
// peer process: an ownership state word with its attach generation,
// followed by two SPSC descriptor rings per slot
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
//	       +0  state    free(0)/attached(1)/detached(2)/dead(3) in the
//	            low byte, the slot's cumulative attach generation in
//	            the high 24 bits — one word, so every transition is one
//	            CAS that names both the state AND the incarnation it
//	            applies to
//	       +8…+63       free
//	+64·(nSlots+1)  the rings, down then up for slot 0, then slot 1, …
//
// No ring offset is stored: every process derives ring i's base from
// (base, nSlots, ringCap) alone (ringBase), so no word a peer can write
// decides which memory the server formats or pushes into. The formatting
// process binds every ring once, in InitSegTable, and uses those
// handles for the table's life; a peer binds its own slot's pair.
//
// Slot claiming is one CAS on the state word, so peers may attach and
// detach concurrently with each other and with the serving facility's
// allocator traffic — TestSegmentAttachChurnRace drives exactly that.
//
// Crash robustness rides on the packed generation:
// a reaper that decides slot i's owner died marks it dead with
// MarkDead(i, gen) — a CAS from (attached|gen) to (dead|gen) that can
// only ever hit the incarnation the reaper observed. If the owner
// detached and a new peer claimed the slot in the meantime, the
// generation moved and the CAS fails harmlessly: a stale death can
// never get a live newcomer reclaimed out from under it. The table
// records no pid: which peer died is the server's knowledge (the exits
// its exec group waits on), not a word the peer could rewrite. Dead
// slots refuse Claim until the reclaimer finishes tearing down the
// incarnation's in-flight state and releases the slot with
// FreeSlot(i, gen).

import (
	"errors"
	"fmt"

	"repro/internal/shm"
)

// Slot states (the low byte of the slot state word), CAS-transitioned
// free→attached→{detached,dead}→…; dead→free is the reclaimer's
// transition, everything else may claim free or detached slots.
const (
	SlotFree     uint32 = 0
	SlotAttached uint32 = 1
	SlotDetached uint32 = 2
	// SlotDead marks a slot whose owner was declared dead by a reaper;
	// it refuses claims until reclamation completes (FreeSlot).
	SlotDead uint32 = 3
)

const (
	segTableMagic = 0x5458504D // "MPXT"
	// segTableVersion 4: the slot stores no pid (version 3 derived the
	// ring offsets instead of storing them; version 2 packed the attach
	// generation into the state word, making dead-peer marking a single
	// ABA-safe CAS).
	segTableVersion = 4
	segTableHdr     = 64
	segSlotBytes    = 64

	slotOffState = 0

	// slotStateMask isolates the state from the packed word; the attach
	// generation occupies the remaining 24 bits (wrap-around after 16M
	// attaches of one slot is acceptable ABA exposure).
	slotStateMask = 0xFF
	slotGenShift  = 8
)

// ErrGenerationMismatch is returned when a peer attaches with a
// generation that does not match the table's — a stale handshake
// against a recycled or restarted segment.
var ErrGenerationMismatch = errors.New("mpf: segment table generation mismatch")

// ErrNoFreeSlot is returned by ClaimAny when every slot is attached.
var ErrNoFreeSlot = errors.New("mpf: no free segment table slot")

// ErrSlotDead is returned by Claim when the slot is held mid-reclaim:
// its previous owner died and the reclaimer has not freed it yet.
var ErrSlotDead = errors.New("mpf: segment table slot held by dead-peer reclamation")

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

// Claim takes ownership of slot i: one CAS from free or detached to
// attached, bumping the slot's attach generation in the same word. A
// slot already attached is refused; a dead slot is refused with
// ErrSlotDead until reclamation frees it.
func (t *SegTable) Claim(i int) error {
	_, err := t.ClaimGen(i)
	return err
}

// ClaimGen is Claim returning the attach generation the claim was
// stamped with — the number peers bake into in-flight ring-record tags
// so records from a dead previous incarnation can be told apart.
func (t *SegTable) ClaimGen(i int) (uint32, error) {
	t.checkSlot(i)
	state := t.seg.Atomic32(t.slotBase(i) + slotOffState)
	for {
		w := state.Load()
		switch w & slotStateMask {
		case SlotAttached:
			return 0, fmt.Errorf("mpf: segment table slot %d already attached", i)
		case SlotDead:
			return 0, fmt.Errorf("mpf: segment table slot %d: %w", i, ErrSlotDead)
		}
		gen := (w>>slotGenShift + 1) & (1<<24 - 1)
		if state.CompareAndSwap(w, SlotAttached|gen<<slotGenShift) {
			return gen, nil
		}
	}
}

// ClaimAny claims the first available slot, returning its index.
func (t *SegTable) ClaimAny() (int, error) {
	for i := 0; i < t.nSlots; i++ {
		if s := t.SlotState(i); s == SlotAttached || s == SlotDead {
			continue
		}
		if err := t.Claim(i); err == nil {
			return i, nil
		}
	}
	return -1, ErrNoFreeSlot
}

// Detach releases slot i: one CAS from attached to detached preserving
// the generation. The slot's rings stay formatted (indices and queued
// records intact), so a future peer can claim the slot again. A slot
// already marked dead is left alone — a reaper got there first and the
// reclaimer owns the teardown; the late detach must not resurrect it.
func (t *SegTable) Detach(i int) {
	t.checkSlot(i)
	state := t.seg.Atomic32(t.slotBase(i) + slotOffState)
	for {
		w := state.Load()
		if w&slotStateMask != SlotAttached {
			return
		}
		if state.CompareAndSwap(w, w&^slotStateMask|SlotDetached) {
			return
		}
	}
}

// MarkDead transitions slot i from attached to dead — but only the
// incarnation the caller observed: the CAS binds both state and attach
// generation, so if the owner detached and somebody else claimed the
// slot, the generation moved and the marking fails. Returns whether
// the slot is now dead by this call.
func (t *SegTable) MarkDead(i int, gen uint32) bool {
	t.checkSlot(i)
	return t.seg.Atomic32(t.slotBase(i)+slotOffState).
		CompareAndSwap(SlotAttached|gen<<slotGenShift, SlotDead|gen<<slotGenShift)
}

// FreeSlot releases a dead slot back to free once reclamation is done,
// again bound to the generation MarkDead named. Returns whether the
// release happened.
func (t *SegTable) FreeSlot(i int, gen uint32) bool {
	t.checkSlot(i)
	return t.seg.Atomic32(t.slotBase(i)+slotOffState).
		CompareAndSwap(SlotDead|gen<<slotGenShift, SlotFree|gen<<slotGenShift)
}

// SlotState returns slot i's current ownership state.
func (t *SegTable) SlotState(i int) uint32 {
	t.checkSlot(i)
	return t.seg.Atomic32(t.slotBase(i)+slotOffState).Load() & slotStateMask
}

// SlotStateGen reads state and generation from the one atomic word —
// the consistent snapshot reapers base a MarkDead decision on.
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
// reclamation step that guarantees a slot's next claimant starts from
// clean rings whatever its dead predecessor left queued. Only safe
// while the slot is held dead (no live peer owns either ring end).
func (t *SegTable) ReformatRings(i int) {
	down, up := t.Rings(i)
	down.Reset()
	up.Reset()
}
