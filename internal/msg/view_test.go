package msg

import (
	"bytes"
	"testing"

	"repro/internal/shm"
)

func poolOver(t *testing.T) *Pool {
	t.Helper()
	a, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(a, 0)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func TestViewReadsWhatBuildWrote(t *testing.T) {
	p := poolOver(t)
	payload := pattern(200)
	m, err := p.Build(1, payload, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	if v.Len() != 200 {
		t.Fatalf("view length %d, want 200", v.Len())
	}
	roundTrips(t, v, payload)
	p.Release(m)
}

// roundTrips checks that the segment walk and CopyTo both reproduce the
// payload v was built over.
func roundTrips(t *testing.T, v View, payload []byte) {
	t.Helper()
	var got []byte
	v.Segments(func(seg []byte) bool {
		got = append(got, seg...)
		return true
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("segment walk does not reproduce the payload")
	}
	out := make([]byte, len(payload))
	if n := v.CopyTo(out); n != len(payload) || !bytes.Equal(out, payload) {
		t.Fatalf("CopyTo returned %d / wrong bytes", n)
	}
}

func TestViewContiguousUnderSpans(t *testing.T) {
	p := poolOver(t)
	m, err := p.Build(1, pattern(200), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	if v.NumSegments() != 1 {
		t.Fatalf("200-byte payload spans %d segments, want 1", v.NumSegments())
	}
	seg, ok := v.Contiguous()
	if !ok || len(seg) != 200 {
		t.Fatalf("Contiguous = (%d bytes, %v), want (200, true)", len(seg), ok)
	}
	if !bytes.Equal(seg, pattern(200)) {
		t.Fatal("contiguous view shows wrong bytes")
	}
	p.Release(m)
}

// TestViewMultiSegmentFragmented builds a payload in a region where no
// free run is longer than one block — every block taken singly, every
// other one freed — so that its view is one segment per block.
func TestViewMultiSegmentFragmented(t *testing.T) {
	p := poolOver(t)
	a := p.Arena()
	singles, _, err := a.AllocPayloads(make([]int, a.NumBlocks()), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var teeth []int32
	for i := 0; i < len(singles); i += 2 {
		a.FreeChain(singles[i])
		teeth = append(teeth, singles[i+1])
	}
	m, err := p.Build(1, pattern(100), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	// 16-byte blocks carry 12 payload bytes each: 100 bytes is 9
	// single-block segments, so the view cannot be contiguous.
	if want := 9; v.NumSegments() != want {
		t.Fatalf("fragmented view spans %d segments, want %d", v.NumSegments(), want)
	}
	if _, ok := v.Contiguous(); ok {
		t.Fatal("multi-segment view claims contiguity")
	}
	roundTrips(t, v, pattern(100))
	p.Release(m)
	a.FreeChains(teeth)
	if free := a.FreeBlocks(); free != a.NumBlocks() {
		t.Fatalf("%d of %d blocks free after release", free, a.NumBlocks())
	}
}

func TestBuildLoanWriteInPlace(t *testing.T) {
	p := poolOver(t)
	m, err := p.BuildLoan(2, 150, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(m); err != nil {
		t.Fatal(err)
	}
	payload := pattern(150)
	v := p.View(m)
	if n := v.CopyFrom(payload); n != 150 {
		t.Fatalf("CopyFrom wrote %d, want 150", n)
	}
	out := make([]byte, 150)
	if n := p.Extract(m, out); n != 150 || !bytes.Equal(out, payload) {
		t.Fatalf("extract after in-place write: %d bytes / mismatch", n)
	}
	p.Release(m)
	if free := p.Arena().FreeBlocks(); free != p.Arena().NumBlocks() {
		t.Fatalf("%d of %d blocks free after release", free, p.Arena().NumBlocks())
	}
}

func TestViewZeroLength(t *testing.T) {
	p := poolOver(t)
	m, err := p.Build(1, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	if v.Len() != 0 {
		t.Fatalf("zero-length view has length %d", v.Len())
	}
	seg, ok := v.Contiguous()
	if !ok || len(seg) != 0 {
		t.Fatalf("zero-length Contiguous = (%d, %v)", len(seg), ok)
	}
	if v.NumSegments() != 0 {
		t.Fatalf("zero-length view yields %d segments", v.NumSegments())
	}
	p.Release(m)
}
