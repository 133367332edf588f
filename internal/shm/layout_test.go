package shm

import (
	"testing"
	"unsafe"
)

// The in-segment layout contract: the ring header's words are hammered
// from two processes, so each protocol word — and each half of a
// NotifyWord — must own a 64-byte line. Unlike the in-process structs
// these offsets are wire format: getting them wrong is not just false
// sharing but cross-process corruption, which is why ringMagic and
// HandshakeVersion were bumped when NotifyBytes grew.
func TestRingHeaderLayout(t *testing.T) {
	offs := map[string]int64{
		"magic":          ringOffMagic,
		"tail":           ringOffTail,
		"head":           ringOffHead,
		"closed":         ringOffClosed,
		"data":           ringOffData,
		"data.sleepers":  ringOffData + notifySleeperOff,
		"space":          ringOffSpace,
		"space.sleepers": ringOffSpace + notifySleeperOff,
	}
	lines := make(map[int64]string)
	for name, off := range offs {
		if off%64 != 0 {
			t.Errorf("ring %s word at offset %d, want a 64-byte boundary", name, off)
		}
		if prev, dup := lines[off/64]; dup {
			t.Errorf("ring %s and %s share cache line %d", name, prev, off/64)
		}
		lines[off/64] = name
	}
	if NotifyBytes != 2*64 {
		t.Errorf("NotifyBytes = %d, want two cache lines", NotifyBytes)
	}
	if ringOffSpace-ringOffData < NotifyBytes {
		t.Errorf("space word at %d overlaps data NotifyWord [%d,%d)",
			ringOffSpace, ringOffData, ringOffData+NotifyBytes)
	}
	if ringHdrBytes < ringOffSpace+NotifyBytes {
		t.Errorf("records at %d overlap space NotifyWord [%d,%d)",
			ringHdrBytes, ringOffSpace, ringOffSpace+NotifyBytes)
	}
	if ringHdrBytes%64 != 0 {
		t.Errorf("ringHdrBytes = %d, want a 64-byte multiple so records start line-aligned", ringHdrBytes)
	}
}

// TestRecycleSlotsOwnLines: each recycle slot is one line, and the
// array starts on a line, so a slot's CAS never invalidates another
// circuit's slot or any arena word.
func TestRecycleSlotsOwnLines(t *testing.T) {
	if got := unsafe.Sizeof(recycleSlot{}); got != 64 {
		t.Fatalf("recycleSlot is %d bytes, want 64", got)
	}
	for _, n := range []int{1, 3, 16, 100, 1024} {
		a, err := New(Config{BlockSize: 64, NumBlocks: 64, Slots: n})
		if err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(&a.slots[0])); addr%64 != 0 {
			t.Errorf("%d slots start at %#x, off a cache line", n, addr)
		}
	}
}
