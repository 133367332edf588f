package shm

// The attach handshake. A child process that receives the segment fd
// knows nothing about what is inside the region, so the fd travels
// with a small fixed-size frame describing the layout: where the
// descriptor table and the arena start, how the arena is carved
// (block size, block count, layout flags), which table slot the child
// is given and the incarnation of that slot it is (the server's
// choice, like the slot), and a protocol generation stamped by the
// parent at serve time. The generation is the staleness guard: it is also
// written into the segment's table header, and AttachSegTable refuses
// a mismatch — a child launched against one serve instance cannot
// attach a recycled or restarted segment whose layout it would
// misread.
//
// The frame is versioned and little-endian with explicit fixed-width
// fields, so parent and child binaries built from different trees fail
// cleanly (ErrHandshakeVersion) instead of silently disagreeing about
// the region's layout.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HandshakeVersion is the current attach-protocol version. Bump it
// whenever the frame layout or the in-segment structures it describes
// change incompatibly. Version 2: NotifyWords widened to two cache
// lines (NotifyBytes 8 → 128), moving the ring's space word and the
// record base. Version 3: the table's slot state word packs the attach
// generation (table version 2) and ring-record tags carry a generation
// byte, so a stale binary would misread both — fail at the frame.
// Version 4: the frame carries the slot's incarnation (Gen) and the
// child no longer claims the slot itself (table version 5).
const HandshakeVersion = 4

// HandshakeBytes is the fixed wire size of an encoded handshake.
const HandshakeBytes = 60

const handshakeMagic = 0x3146504D // "MPF1"

// ErrHandshakeVersion is returned when the peer speaks a different
// attach-protocol version (or is not MPF at all).
var ErrHandshakeVersion = errors.New("shm: attach handshake version mismatch")

// ErrHandshakeTimeout is returned when the handshake frame does not
// arrive within the receive deadline — the classic symptom of a parent
// that died between spawning the child and sending the segment.
var ErrHandshakeTimeout = errors.New("shm: attach handshake timed out")

// ErrPeerDead is returned by deadline- or abort-bounded cross-process
// waits when the other side of the segment has been declared dead
// (process gone, slot reaped) rather than merely slow.
var ErrPeerDead = errors.New("shm: segment peer is dead")

// Handshake flag bits.
const (
	// HandshakeSpans marks an arena carved by the span bitmap. It is the
	// only layout, so DecodeHandshake refuses a frame without it: a peer
	// that does not set it expects the paper's linked free list.
	HandshakeSpans = 1 << 0
)

// Handshake describes a segment to an attaching process.
type Handshake struct {
	// Generation stamps the serving facility instance; it must match
	// the generation in the segment's table header.
	Generation uint64
	// SegSize is the full segment length — cross-checked against the
	// received fd's own size before mapping.
	SegSize int64
	// TableOff is the segment offset of the descriptor table header.
	TableOff int64
	// ArenaOff is the segment offset of the block arena's first byte.
	ArenaOff int64
	// BlockSize and NumBlocks describe the arena carving, so the child
	// can validate ring descriptors against block bounds.
	BlockSize int32
	NumBlocks int32
	// Slot is the table slot assigned to this child.
	Slot int32
	// Flags carries HandshakeSpans and future layout bits.
	Flags uint32
	// Gen is the incarnation of Slot the server began for this child:
	// the generation byte of its ring-record tags and the value its
	// slot state word holds while the incarnation lives.
	Gen uint32
}

// Encode serializes h into its fixed HandshakeBytes wire form.
func (h Handshake) Encode() []byte {
	b := make([]byte, HandshakeBytes)
	binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
	binary.LittleEndian.PutUint32(b[4:8], HandshakeVersion)
	binary.LittleEndian.PutUint64(b[8:16], h.Generation)
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.SegSize))
	binary.LittleEndian.PutUint64(b[24:32], uint64(h.TableOff))
	binary.LittleEndian.PutUint64(b[32:40], uint64(h.ArenaOff))
	binary.LittleEndian.PutUint32(b[40:44], uint32(h.BlockSize))
	binary.LittleEndian.PutUint32(b[44:48], uint32(h.NumBlocks))
	binary.LittleEndian.PutUint32(b[48:52], uint32(h.Slot))
	binary.LittleEndian.PutUint32(b[52:56], h.Flags)
	binary.LittleEndian.PutUint32(b[56:60], h.Gen)
	return b
}

// DecodeHandshake parses a received frame, validating magic, version,
// layout flags and basic field sanity.
func DecodeHandshake(b []byte) (Handshake, error) {
	if len(b) < HandshakeBytes {
		return Handshake{}, fmt.Errorf("shm: short handshake frame (%d of %d bytes)", len(b), HandshakeBytes)
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != handshakeMagic {
		return Handshake{}, fmt.Errorf("shm: bad handshake magic %#x: %w", m, ErrHandshakeVersion)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != HandshakeVersion {
		return Handshake{}, fmt.Errorf("shm: handshake version %d, want %d: %w", v, HandshakeVersion, ErrHandshakeVersion)
	}
	h := Handshake{
		Generation: binary.LittleEndian.Uint64(b[8:16]),
		SegSize:    int64(binary.LittleEndian.Uint64(b[16:24])),
		TableOff:   int64(binary.LittleEndian.Uint64(b[24:32])),
		ArenaOff:   int64(binary.LittleEndian.Uint64(b[32:40])),
		BlockSize:  int32(binary.LittleEndian.Uint32(b[40:44])),
		NumBlocks:  int32(binary.LittleEndian.Uint32(b[44:48])),
		Slot:       int32(binary.LittleEndian.Uint32(b[48:52])),
		Flags:      binary.LittleEndian.Uint32(b[52:56]),
		Gen:        binary.LittleEndian.Uint32(b[56:60]),
	}
	if h.Flags&HandshakeSpans == 0 {
		return Handshake{}, fmt.Errorf("shm: handshake flags %#x lack the span layout: %w", h.Flags, ErrHandshakeVersion)
	}
	if h.SegSize <= 0 || h.TableOff < 0 || h.ArenaOff < 0 ||
		h.TableOff >= h.SegSize || h.ArenaOff >= h.SegSize ||
		h.BlockSize < MinBlockSize || h.NumBlocks < 1 || h.Slot < 0 {
		return Handshake{}, fmt.Errorf("shm: handshake describes an impossible layout (%+v)", h)
	}
	return h, nil
}
