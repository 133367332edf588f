package shm

import (
	"bytes"
	"testing"
)

func TestHeapSegmentBasics(t *testing.T) {
	seg, err := NewSegment(4096)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Kind() != HeapSegment || seg.Shared() {
		t.Fatalf("heap segment reports kind=%v shared=%v", seg.Kind(), seg.Shared())
	}
	if seg.Size() != 4096 {
		t.Fatalf("size = %d, want 4096", seg.Size())
	}

	w := seg.At(128, 16)
	copy(w, "hello, segment!!")
	if got := seg.Bytes()[128:144]; !bytes.Equal(got, []byte("hello, segment!!")) {
		t.Fatalf("window write not visible through Bytes: %q", got)
	}

	off, ok := seg.OffsetOf(w)
	if !ok || off != 128 {
		t.Fatalf("OffsetOf(window@128) = %d, %v", off, ok)
	}
	if _, ok := seg.OffsetOf(make([]byte, 8)); ok {
		t.Fatal("OffsetOf located a foreign slice")
	}
	if _, ok := seg.OffsetOf(nil); ok {
		t.Fatal("OffsetOf located an empty slice")
	}

	a32 := seg.Atomic32(256)
	a32.Store(0xDEADBEEF)
	if seg.Atomic32(256).Load() != 0xDEADBEEF {
		t.Fatal("atomic32 word not shared between handles")
	}
	a64 := seg.Atomic64(264)
	a64.Store(1 << 40)
	if seg.Atomic64(264).Load() != 1<<40 {
		t.Fatal("atomic64 word not shared between handles")
	}

	if err := seg.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestSegmentBoundsPanic(t *testing.T) {
	seg, _ := NewSegment(1024)
	for name, f := range map[string]func(){
		"At past end":     func() { seg.At(1000, 100) },
		"At negative":     func() { seg.At(-1, 8) },
		"Atomic32 odd":    func() { seg.Atomic32(3) },
		"Atomic64 odd":    func() { seg.Atomic64(4) },
		"Atomic32 at end": func() { seg.Atomic32(1024) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAlignUp(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 64, 63: 64, 64: 64, 65: 128, 384: 384}
	for in, want := range cases {
		if got := AlignUp(in); got != want {
			t.Errorf("AlignUp(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestArenaNewAtOverSegment(t *testing.T) {
	cfg := Config{BlockSize: 64, NumBlocks: 32}
	seg, err := NewSegment(AlignUp(cfg.Bytes()) + 64)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	a, err := NewAt(cfg, seg.At(64, cfg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	head, _, err := a.AllocPayload(100, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := a.SegPayload(head)
	copy(payload, "through the segment")
	// The payload slice must alias the segment: that aliasing is what
	// turns a loan into a ring descriptor another process can resolve.
	segOff, ok := seg.OffsetOf(payload)
	if !ok {
		t.Fatal("arena payload does not alias its backing segment")
	}
	if got := seg.At(segOff, 19); string(got) != "through the segment" {
		t.Fatalf("segment window reads %q", got)
	}
	a.FreeChain(head)
	if err := a.CheckFreeList(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewAt(cfg, make([]byte, 10)); err == nil {
		t.Fatal("NewAt accepted an undersized region")
	}
}
