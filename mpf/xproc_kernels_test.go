package mpf

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// The bridge's two byte kernels against the serial loops they replaced.
// The serial forms are the protocol's definition — what a peer built
// from any earlier commit computes — and live only here, as oracles.

func xsumSerial(b []byte) uint16 {
	var s uint32
	for _, c := range b {
		s = s*31 + uint32(c)
	}
	return uint16(s ^ s>>16)
}

func fillPatternSerial(b []byte, slot, seq int) {
	x := uint32(slot)*2654435761 + uint32(seq)*40503 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
}

// kernelsAgree fills want serially and got with the kernel for (slot,
// seq) — the bytes around got must stay as they were — and checksums
// the pattern, and then data, both ways.
func kernelsAgree(got, want, data []byte, slot, seq int) error {
	fillPatternSerial(want, slot, seq)
	fillPattern(got, slot, seq)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fillPattern(%d B, slot %d, seq %d) differs from the serial fill", len(got), slot, seq)
	}
	if f, s := xsum(got), xsumSerial(want); f != s {
		return fmt.Errorf("xsum over the %d B pattern of slot %d, seq %d: %#x, serial %#x", len(got), slot, seq, f, s)
	}
	if f, s := xsum(data), xsumSerial(data); f != s {
		return fmt.Errorf("xsum over %d B: %#x, serial %#x", len(data), f, s)
	}
	return nil
}

// TestBridgeKernelsMatchSerial: every length from nothing to past two
// KiB (every tail length behind every count of whole steps), at every
// start offset within sixteen bytes of a 64-byte boundary, for the
// slots and sequence numbers the protocol uses — the up phase's carry
// bit 20.
func TestBridgeKernelsMatchSerial(t *testing.T) {
	const maxLen, guard = 2100, 0xA5
	raw := make([]byte, maxLen+16+64+8)
	buf := raw[alignPad(raw):]
	want := make([]byte, maxLen)
	data := make([]byte, maxLen+16)
	fillPatternSerial(data, 3, 99)
	data[7], data[8], data[100] = 0xFF, 0xFF, 0xFF // every lane at its maximum somewhere

	seqs := []int{0, 1, 63, 64, 65535, 1 << 20, 1<<20 | 1, 1<<20 | 65535}
	for n := 0; n <= maxLen; n++ {
		for off := 0; off < 16; off++ {
			slot, seq := (n+off)%8, seqs[(n*16+off)%len(seqs)]
			for i := range buf {
				buf[i] = guard
			}
			if err := kernelsAgree(buf[off:off+n], want[:n], data[off:off+n], slot, seq); err != nil {
				t.Fatalf("offset %d: %v", off, err)
			}
			for i, c := range buf {
				if (i < off || i >= off+n) && c != guard {
					t.Fatalf("fillPattern(%d B at offset %d) wrote byte %d", n, off, i)
				}
			}
		}
	}
	// Every slot against every sequence number, at the benchmark's size.
	for slot := 0; slot < 8; slot++ {
		for _, seq := range seqs {
			if err := kernelsAgree(buf[:1024], want[:1024], data[:1024], slot, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// alignPad returns how far into b its first 64-byte boundary is.
func alignPad(b []byte) int {
	return int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) % 64)
}

// FuzzBridgeKernels asserts both identities over arbitrary bytes, slots
// and sequence numbers: the checksum of data, and the pattern of
// (slot, seq) over len(data) bytes.
func FuzzBridgeKernels(f *testing.F) {
	f.Add([]byte(nil), 0, 0)
	f.Add([]byte{0xFF}, 1, 1<<20)
	f.Add(bytes.Repeat([]byte{0xFF}, 49), 7, 65535)
	f.Add(bytes.Repeat([]byte{0x80, 0x7F, 0x00}, 341), -1, -1)
	f.Fuzz(func(t *testing.T, data []byte, slot, seq int) {
		got, want := make([]byte, len(data)), make([]byte, len(data))
		if err := kernelsAgree(got, want, data, slot, seq); err != nil {
			t.Fatal(err)
		}
	})
}

// The benchmark's payload is 1 KiB less the block's link word.
var (
	kernelBuf [1020]byte
	kernelSum uint16
)

// The wrappers keep the compiler from specialising a kernel to the
// benchmark loop: inlined, the serial fill of a buffer that does not
// escape reads 0.2 ns/B and measures nothing.

//go:noinline
func benchXsum(b []byte) uint16 { return xsum(b) }

//go:noinline
func benchXsumSerial(b []byte) uint16 { return xsumSerial(b) }

//go:noinline
func benchFill(b []byte, slot, seq int) { fillPattern(b, slot, seq) }

//go:noinline
func benchFillSerial(b []byte, slot, seq int) { fillPatternSerial(b, slot, seq) }

func BenchmarkBridgeKernels(b *testing.B) {
	kernels := []struct {
		name string
		run  func(i int)
	}{
		{"xsum/fast", func(int) { kernelSum += benchXsum(kernelBuf[:]) }},
		{"xsum/serial", func(int) { kernelSum += benchXsumSerial(kernelBuf[:]) }},
		{"fill/fast", func(i int) { benchFill(kernelBuf[:], 0, i) }},
		{"fill/serial", func(i int) { benchFillSerial(kernelBuf[:], 0, i) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(kernelBuf)))
			for i := 0; i < b.N; i++ {
				k.run(i)
			}
		})
	}
}
