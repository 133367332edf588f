package shm

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestHandshakeRoundtrip(t *testing.T) {
	h := Handshake{
		Generation: 0xA1B2C3D4E5F60718,
		SegSize:    1 << 20,
		TableOff:   64,
		ArenaOff:   8192,
		BlockSize:  64,
		NumBlocks:  1024,
		Slot:       3,
		Flags:      HandshakeSpans,
		Gen:        0xABCDEF,
	}
	b := h.Encode()
	if len(b) != HandshakeBytes {
		t.Fatalf("encoded to %d bytes, want %d", len(b), HandshakeBytes)
	}
	got, err := DecodeHandshake(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip: got %+v, want %+v", got, h)
	}
}

// TestHandshakeRefusesNonSpanPeer: a frame without HandshakeSpans comes
// from a peer that expects the paper's linked free list, which this
// arena no longer has; it must fail as a version mismatch, whatever
// other layout bits it carries.
func TestHandshakeRefusesNonSpanPeer(t *testing.T) {
	for _, flags := range []uint32{0, 1 << 1, 1<<31 | 1<<2} {
		h := Handshake{SegSize: 1 << 16, TableOff: 64, ArenaOff: 4096, BlockSize: 64, NumBlocks: 16, Flags: flags}
		if _, err := DecodeHandshake(h.Encode()); !errors.Is(err, ErrHandshakeVersion) {
			t.Errorf("flags %#x: %v, want ErrHandshakeVersion", flags, err)
		}
	}
}

func TestHandshakeRejectsBadFrames(t *testing.T) {
	good := Handshake{SegSize: 1 << 16, TableOff: 64, ArenaOff: 4096, BlockSize: 64, NumBlocks: 16, Flags: HandshakeSpans}.Encode()
	if _, err := DecodeHandshake(good); err != nil {
		t.Fatalf("good frame refused: %v", err)
	}

	short := good[:HandshakeBytes-1]
	if _, err := DecodeHandshake(short); err == nil {
		t.Fatal("short frame accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	if _, err := DecodeHandshake(badMagic); !errors.Is(err, ErrHandshakeVersion) {
		t.Fatalf("bad magic: %v, want ErrHandshakeVersion", err)
	}

	badVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badVersion[4:8], HandshakeVersion+1)
	if _, err := DecodeHandshake(badVersion); !errors.Is(err, ErrHandshakeVersion) {
		t.Fatalf("future version: %v, want ErrHandshakeVersion", err)
	}

	for name, mutate := range map[string]func(h *Handshake){
		"zero segment":       func(h *Handshake) { h.SegSize = 0 },
		"table past end":     func(h *Handshake) { h.TableOff = h.SegSize },
		"arena past end":     func(h *Handshake) { h.ArenaOff = h.SegSize + 1 },
		"tiny blocks":        func(h *Handshake) { h.BlockSize = MinBlockSize - 1 },
		"no blocks":          func(h *Handshake) { h.NumBlocks = 0 },
		"negative slot":      func(h *Handshake) { h.Slot = -1 },
		"negative table off": func(h *Handshake) { h.TableOff = -8 },
	} {
		h := Handshake{SegSize: 1 << 16, TableOff: 64, ArenaOff: 4096, BlockSize: 64, NumBlocks: 16, Flags: HandshakeSpans}
		mutate(&h)
		if _, err := DecodeHandshake(h.Encode()); err == nil {
			t.Errorf("%s: impossible layout accepted", name)
		}
	}
}
