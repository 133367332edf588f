package msg

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/shm"
)

func newPool(t *testing.T, blockSize, nBlocks int) *Pool {
	t.Helper()
	a, err := shm.New(shm.Config{BlockSize: blockSize, NumBlocks: nBlocks})
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(a, 32)
}

func TestBuildExtractRoundtrip(t *testing.T) {
	p := newPool(t, 16, 128)
	payload := make([]byte, 200)
	rand.New(rand.NewSource(7)).Read(payload)

	m, err := p.Build(3, payload, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Length != 200 || m.Sender != 3 {
		t.Fatalf("header = %+v", m)
	}
	if err := p.Check(m); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 200)
	if n := p.Extract(m, out); n != 200 {
		t.Fatalf("Extract = %d, want 200", n)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("payload corrupted")
	}
	p.Release(m)
	if got := p.Arena().FreeBlocks(); got != 128 {
		t.Fatalf("blocks leaked: %d free, want 128", got)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	p := newPool(t, 16, 8)
	m, err := p.Build(0, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Length != 0 {
		t.Fatalf("Length = %d, want 0", m.Length)
	}
	// Zero-length messages still hold one block so they exist in shared
	// memory; extraction copies nothing.
	if err := p.Check(m); err != nil {
		t.Fatal(err)
	}
	if n := p.Extract(m, make([]byte, 4)); n != 0 {
		t.Fatalf("Extract of empty message = %d, want 0", n)
	}
	p.Release(m)
}

func TestExtractTruncates(t *testing.T) {
	p := newPool(t, 16, 32)
	m, err := p.Build(0, []byte("0123456789"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if n := p.Extract(m, out); n != 4 {
		t.Fatalf("Extract = %d, want 4", n)
	}
	if string(out) != "0123" {
		t.Fatalf("out = %q", out)
	}
	p.Release(m)
}

func TestBuildExhaustion(t *testing.T) {
	p := newPool(t, 16, 2) // 24 bytes of payload capacity
	if _, err := p.Build(0, make([]byte, 100), false, nil); !errors.Is(err, shm.ErrOutOfBlocks) {
		t.Fatalf("err = %v, want ErrOutOfBlocks", err)
	}
	if got := p.Arena().FreeBlocks(); got != 2 {
		t.Fatalf("failed Build leaked blocks: %d free, want 2", got)
	}
}

// TestBuildReleaseNoAllocs pins the single-message arena transactions
// (AllocPayload, FreeChain) and the header free list at zero heap
// allocations per message, in both allocation modes: nothing on this
// path may allocate, least of all under the arena spinlock.
func TestBuildReleaseNoAllocs(t *testing.T) {
	for _, spans := range []bool{false, true} {
		a, err := shm.New(shm.Config{BlockSize: 64, NumBlocks: 512, Spans: spans})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPool(a, 8)
		buf := make([]byte, 1024)
		n := testing.AllocsPerRun(200, func() {
			m, err := p.Build(1, buf, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Release(m)
		})
		if n != 0 {
			t.Errorf("spans %v: Build+Release made %v heap allocations, want 0", spans, n)
		}
	}
}

func TestHeaderRecycling(t *testing.T) {
	p := newPool(t, 16, 32)
	m1, _ := p.Build(0, []byte("x"), false, nil)
	p.Release(m1)
	m2, _ := p.Build(0, []byte("y"), false, nil)
	if m1 != m2 {
		t.Log("header not recycled (GC fallback is permitted, but pool should reuse when possible)")
	}
	if m2.Length != 1 {
		t.Fatalf("recycled header not reset: %+v", m2)
	}
	// Stale refcount fields must have been cleared by reuse.
	if m2.Pending != 0 || m2.FCFSNeeded || m2.Next != nil {
		t.Fatalf("recycled header carries stale state: %+v", m2)
	}
	p.Release(m2)
}

func TestQueueFIFOAndSeq(t *testing.T) {
	p := newPool(t, 16, 64)
	var q Queue
	var msgs []*Message
	for i := 0; i < 5; i++ {
		m, err := p.Build(0, []byte{byte(i)}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		q.Enqueue(m)
		msgs = append(msgs, m)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i, m := range msgs {
		if m.Seq != uint64(i) {
			t.Fatalf("msgs[%d].Seq = %d", i, m.Seq)
		}
	}
	// FIFO order via Walk.
	i := 0
	q.Walk(func(m, prev *Message) bool {
		if m != msgs[i] {
			t.Fatalf("walk position %d: wrong message", i)
		}
		if i == 0 && prev != nil {
			t.Fatal("head has non-nil prev")
		}
		if i > 0 && prev != msgs[i-1] {
			t.Fatal("prev mismatch")
		}
		i++
		return true
	})
	if i != 5 {
		t.Fatalf("walk visited %d, want 5", i)
	}
}

func TestQueueRemoveHeadMiddleTail(t *testing.T) {
	var q Queue
	ms := []*Message{{}, {}, {}, {}}
	for _, m := range ms {
		q.Enqueue(m)
	}
	q.Remove(ms[0], nil) // head
	if q.Head() != ms[1] || q.Len() != 3 {
		t.Fatal("remove head failed")
	}
	q.Remove(ms[2], ms[1]) // middle
	if ms[1].Next != ms[3] || q.Len() != 2 {
		t.Fatal("remove middle failed")
	}
	q.Remove(ms[3], ms[1]) // tail
	if q.Len() != 1 {
		t.Fatal("remove tail failed")
	}
	// Tail must be reset so the next enqueue links correctly.
	m := &Message{}
	q.Enqueue(m)
	if ms[1].Next != m {
		t.Fatal("enqueue after tail removal broke the list")
	}
}

func TestQueueRemoveMismatchPanics(t *testing.T) {
	var q Queue
	a, b := &Message{}, &Message{}
	q.Enqueue(a)
	q.Enqueue(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Remove with wrong prev did not panic")
		}
	}()
	q.Remove(b, nil) // b is not the head
}

func TestQueueAfter(t *testing.T) {
	var q Queue
	ms := []*Message{{}, {}, {}}
	for _, m := range ms {
		q.Enqueue(m)
	}
	if got := q.After(0); got != ms[0] {
		t.Fatal("After(0) != first")
	}
	if got := q.After(2); got != ms[2] {
		t.Fatal("After(2) != third")
	}
	if got := q.After(3); got != nil {
		t.Fatal("After past end != nil")
	}
	// After removal, After skips the hole.
	q.Remove(ms[1], ms[0])
	if got := q.After(1); got != ms[2] {
		t.Fatal("After(1) after removal != third")
	}
}

func TestQueueWalkEarlyStop(t *testing.T) {
	var q Queue
	for i := 0; i < 4; i++ {
		q.Enqueue(&Message{})
	}
	n := 0
	q.Walk(func(m, prev *Message) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("walk visited %d, want 2", n)
	}
}

// Property: Build/Extract roundtrips for arbitrary payloads and any block
// size, and never leaks blocks.
func TestQuickBuildExtract(t *testing.T) {
	a, err := shm.New(shm.Config{BlockSize: 10, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(a, 8)
	f := func(payload []byte, sender uint8) bool {
		if len(payload) > 8192 {
			payload = payload[:8192]
		}
		m, err := p.Build(int(sender), payload, false, nil)
		if err != nil {
			return false
		}
		out := make([]byte, len(payload))
		n := p.Extract(m, out)
		ok := n == len(payload) && bytes.Equal(out, payload) && p.Check(m) == nil
		p.Release(m)
		return ok && a.FreeBlocks() == 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue operations preserve FIFO order of the surviving
// messages under arbitrary enqueue/dequeue-head interleavings.
func TestQuickQueueFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		var q Queue
		var model []uint64
		for _, enq := range ops {
			if enq {
				m := &Message{}
				q.Enqueue(m)
				model = append(model, m.Seq)
			} else if h := q.Head(); h != nil {
				q.Remove(h, nil)
				model = model[1:]
			}
		}
		if q.Len() != len(model) {
			return false
		}
		i := 0
		good := true
		q.Walk(func(m, prev *Message) bool {
			if m.Seq != model[i] {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildRelease128(b *testing.B) {
	a, _ := shm.New(shm.Config{BlockSize: 64, NumBlocks: 1024})
	p := NewPool(a, 8)
	payload := make([]byte, 128)
	b.SetBytes(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := p.Build(0, payload, false, nil)
		p.Release(m)
	}
}
