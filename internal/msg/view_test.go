package msg

import (
	"bytes"
	"testing"

	"repro/internal/shm"
)

func poolOver(t *testing.T, spans bool) *Pool {
	t.Helper()
	a, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 64, Spans: spans})
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
	for _, spans := range []bool{false, true} {
		p := poolOver(t, spans)
		payload := pattern(200)
		m, err := p.Build(1, payload, false, nil)
		if err != nil {
			t.Fatalf("spans=%v: %v", spans, err)
		}
		v := p.View(m)
		if v.Len() != 200 {
			t.Fatalf("spans=%v: view length %d, want 200", spans, v.Len())
		}
		var got []byte
		v.Segments(func(seg []byte) bool {
			got = append(got, seg...)
			return true
		})
		if !bytes.Equal(got, payload) {
			t.Fatalf("spans=%v: segment walk does not reproduce the payload", spans)
		}
		out := make([]byte, 200)
		if n := v.CopyTo(out); n != 200 || !bytes.Equal(out, payload) {
			t.Fatalf("spans=%v: CopyTo returned %d / wrong bytes", spans, n)
		}
		p.Release(m)
	}
}

func TestViewContiguousUnderSpans(t *testing.T) {
	p := poolOver(t, true)
	m, err := p.Build(1, pattern(200), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	if v.NumSegments() != 1 {
		t.Fatalf("span-mode 200-byte payload spans %d segments, want 1", v.NumSegments())
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

func TestViewMultiSegmentClassic(t *testing.T) {
	p := poolOver(t, false)
	m, err := p.Build(1, pattern(100), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := p.View(m)
	// Classic 16-byte blocks carry 12 payload bytes each: 100 bytes is 9
	// blocks, so the view cannot be contiguous.
	if want := 9; v.NumSegments() != want {
		t.Fatalf("classic view spans %d segments, want %d", v.NumSegments(), want)
	}
	if _, ok := v.Contiguous(); ok {
		t.Fatal("multi-segment view claims contiguity")
	}
	p.Release(m)
}

func TestBuildLoanWriteInPlace(t *testing.T) {
	for _, spans := range []bool{false, true} {
		p := poolOver(t, spans)
		m, err := p.BuildLoan(2, 150, false, nil)
		if err != nil {
			t.Fatalf("spans=%v: %v", spans, err)
		}
		if err := p.Check(m); err != nil {
			t.Fatalf("spans=%v: %v", spans, err)
		}
		payload := pattern(150)
		v := p.View(m)
		if n := v.CopyFrom(payload); n != 150 {
			t.Fatalf("spans=%v: CopyFrom wrote %d, want 150", spans, n)
		}
		out := make([]byte, 150)
		if n := p.Extract(m, out); n != 150 || !bytes.Equal(out, payload) {
			t.Fatalf("spans=%v: extract after in-place write: %d bytes / mismatch", spans, n)
		}
		p.Release(m)
		if free := p.Arena().FreeBlocks(); free != p.Arena().NumBlocks() {
			t.Fatalf("spans=%v: %d of %d blocks free after release", spans, free, p.Arena().NumBlocks())
		}
	}
}

func TestViewZeroLength(t *testing.T) {
	p := poolOver(t, true)
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
