package msg

import "repro/internal/shm"

// View is a window onto a message's payload where it lives: the shared
// region's blocks. It is the zero-copy half of the paper's data plane —
// where Build/Extract perform the two structural copies (user buffer →
// blocks, blocks → user buffer), a View lets the sender write payload
// in place (core.SendLoan) and lets receivers read it in place
// (core.ReceiveView), so N BROADCAST receivers share one payload
// instance instead of taking N copies.
//
// A View iterates the chain's *segments*. One segment is a whole run of
// physically adjacent blocks, so payloads that fit one free run — the
// common case — expose a single contiguous slice (Contiguous). Under
// fragmentation a payload is several segments, down to one per block in
// a region where no free run is longer than a block.
//
// A View aliases arena memory. It is valid only while the message's
// blocks are owned by the holder: for loans, between allocation and
// Commit/Abort; for receive views, between the claim and Release. The
// pin lifecycle in internal/core enforces this; nothing in this package
// does.
type View struct {
	arena  *shm.Arena
	head   int32
	length int
}

// NewView constructs a view over length payload bytes starting at the
// chain head. Intended for internal/core; tests may use it directly.
func NewView(arena *shm.Arena, head int32, length int) View {
	return View{arena: arena, head: head, length: length}
}

// Len returns the payload length in bytes.
func (v View) Len() int { return v.length }

// Segments calls yield for each payload segment in order, trimmed to
// the view's length; returning false stops the iteration. Segments of
// a loan view are writable (they alias the shared region).
func (v View) Segments(yield func(seg []byte) bool) {
	rem := v.length
	for off := v.head; off != shm.NilOffset && rem > 0; off = v.arena.Next(off) {
		seg := v.arena.SegPayload(off)
		if len(seg) > rem {
			seg = seg[:rem]
		}
		rem -= len(seg)
		if !yield(seg) {
			return
		}
	}
}

// NumSegments returns the number of segments the view spans (1 in the
// contiguous common case).
func (v View) NumSegments() int {
	n := 0
	v.Segments(func([]byte) bool { n++; return true })
	return n
}

// Contiguous returns the whole payload as one slice when it occupies a
// single segment, and (nil, false) otherwise. This is the zero-copy
// fast path; multi-segment payloads are walked with Segments or
// flattened with CopyTo.
func (v View) Contiguous() ([]byte, bool) {
	if v.length == 0 {
		return nil, true
	}
	if v.head == shm.NilOffset {
		return nil, false
	}
	seg := v.arena.SegPayload(v.head)
	if len(seg) >= v.length {
		return seg[:v.length], true
	}
	return nil, false
}

// CopyTo copies the payload into buf, returning the number of bytes
// copied (min of view length and len(buf)). It is the escape hatch back
// to the copying plane for callers that need a private buffer.
func (v View) CopyTo(buf []byte) int {
	if v.length == 0 || v.head == shm.NilOffset {
		return 0
	}
	return v.arena.ReadChain(v.head, v.length, buf)
}

// CopyFrom copies buf into the payload, returning the number of bytes
// copied (min of view length and len(buf)). Only meaningful on loan
// views, whose blocks the caller owns.
func (v View) CopyFrom(buf []byte) int {
	n := len(buf)
	if n > v.length {
		n = v.length
	}
	if n == 0 {
		return 0
	}
	return v.arena.WriteChain(v.head, buf[:n])
}
