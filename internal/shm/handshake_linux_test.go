//go:build linux && (amd64 || arm64)

package shm

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

func unixPair(t *testing.T) (*net.UnixConn, *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fd int, name string) *net.UnixConn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close()
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		uc, ok := c.(*net.UnixConn)
		if !ok {
			t.Fatalf("FileConn returned %T", c)
		}
		return uc
	}
	a, b := mk(fds[0], "hs-a"), mk(fds[1], "hs-b")
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestSegmentPassing runs the full fd-passing handshake over a
// socketpair: the "parent" side sends its memfd segment plus layout
// frame, the "child" side maps it independently and reads the parent's
// writes through its own mapping.
func TestSegmentPassing(t *testing.T) {
	parent, child := unixPair(t)
	seg, err := NewSharedSegment("mpf-hs", 1<<16)
	if err != nil {
		if errors.Is(err, ErrNoSharedBackend) {
			t.Skip("no shared backend")
		}
		t.Fatal(err)
	}
	defer seg.Close()
	copy(seg.At(8192, 5), "proof")

	want := Handshake{
		Generation: 42,
		TableOff:   64,
		ArenaOff:   4096,
		BlockSize:  64,
		NumBlocks:  128,
		Slot:       2,
		Flags:      HandshakeSpans,
		Gen:        9,
	}
	if err := SendSegment(parent, seg, want); err != nil {
		t.Fatal(err)
	}
	got, h, err := RecvSegment(child)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	want.SegSize = seg.Size() // SendSegment stamps the true size
	if h != want {
		t.Fatalf("handshake arrived as %+v, want %+v", h, want)
	}
	if got.Size() != seg.Size() || !got.Shared() {
		t.Fatalf("attached segment: size %d shared %v", got.Size(), got.Shared())
	}
	if string(got.At(8192, 5)) != "proof" {
		t.Fatal("pre-handshake write not visible through received mapping")
	}
	got.At(8192, 5)[0] = 'P'
	if string(seg.At(8192, 5)) != "Proof" {
		t.Fatal("child write not visible through original mapping")
	}
	if err := got.Close(); err != nil {
		t.Fatalf("attached close: %v", err)
	}
}

func TestSendSegmentRejectsHeap(t *testing.T) {
	parent, _ := unixPair(t)
	seg, _ := NewSegment(4096)
	defer seg.Close()
	if err := SendSegment(parent, seg, Handshake{}); !errors.Is(err, ErrNoSharedBackend) {
		t.Fatalf("heap segment send: %v, want ErrNoSharedBackend", err)
	}
}

// TestRecvSegmentTimeout covers the orphaned-child scenarios: no frame
// within the deadline, and a parent that closed its end (died) before
// sending anything. Both must surface ErrHandshakeTimeout, not hang.
func TestRecvSegmentTimeout(t *testing.T) {
	_, child := unixPair(t)
	if _, _, err := RecvSegmentTimeout(child, 30*time.Millisecond); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("silent parent: %v, want ErrHandshakeTimeout", err)
	}

	parent2, child2 := unixPair(t)
	parent2.Close()
	if _, _, err := RecvSegmentTimeout(child2, time.Second); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("dead parent: %v, want ErrHandshakeTimeout", err)
	}
}
