package msg

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	return NewPool(a, 0)
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
// (AllocPayload, FreeChain) and the header lookup at zero heap
// allocations per message: nothing on this path may allocate, least of
// all under the arena lock.
func TestBuildReleaseNoAllocs(t *testing.T) {
	a, err := shm.New(shm.Config{BlockSize: 64, NumBlocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(a, 0)
	buf := make([]byte, 1024)
	n := testing.AllocsPerRun(200, func() {
		m, err := p.Build(1, buf, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(m)
	})
	if n != 0 {
		t.Errorf("Build+Release made %v heap allocations, want 0", n)
	}
}

// TestHeaderRecycling: a released message's head, handed out again, comes
// with the same header, reset.
func TestHeaderRecycling(t *testing.T) {
	p := newPool(t, 16, 32)
	m1, _ := p.Build(0, []byte("x"), false, nil)
	m1.Pending, m1.FCFSNeeded, m1.Next = 2, true, m1
	p.Release(m1)
	m2, _ := p.Build(0, []byte("y"), false, nil)
	if m1 != m2 {
		t.Fatalf("first fit returned head %d with header %p, was %p", m2.Head, m2, m1)
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

// TestHeaderFollowsHeadBlock holds the binding rule: the header of a
// message is the table entry of its head block — the same object every
// time that block heads a message, handed out zeroed — and the arena
// lock alone orders its hand-over from one owner of the block to the
// next. The second half is two goroutines taking turns on a one-block
// region with nothing but the arena between them; run under -race it is
// what catches a Release that frees the chain before it has finished
// with the header.
func TestHeaderFollowsHeadBlock(t *testing.T) {
	a, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(a, 0)
	byHead := map[int32]*Message{}
	var held []*Message
	for round := 0; round < 6; round++ {
		// Hold a varying number back so that heads move around.
		for len(held) > round%3 {
			p.Release(held[0])
			held = held[1:]
		}
		for i := 0; i < 4; i++ {
			m, err := p.Build(round, make([]byte, 1+5*i), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Check(m); err != nil {
				t.Fatal(err)
			}
			if first, ok := byHead[m.Head]; ok && first != m {
				t.Fatalf("head %d got header %p, had %p before", m.Head, m, first)
			}
			byHead[m.Head] = m
			if want := (Message{Length: 1 + 5*i, Head: m.Head, Tail: m.Tail, Sender: round, Blocks: a.BlocksFor(1 + 5*i)}); *m != want {
				t.Fatalf("header handed out as %+v, want %+v", *m, want)
			}
			// What a circuit would leave behind.
			m.Seq, m.Pending, m.Pins, m.FCFSNeeded, m.Orphan, m.Next = 99, 3, 2, true, true, m
			held = append(held, m)
		}
	}
	p.ReleaseBatch(held)
	for head, m := range byHead {
		if m.Head != shm.NilOffset || m.Next != nil {
			t.Fatalf("released header of head %d still names a chain: %+v", head, *m)
		}
	}
	if free := a.FreeBlocks(); free != a.NumBlocks() {
		t.Fatalf("%d of %d blocks free", free, a.NumBlocks())
	}

	a, err = shm.New(shm.Config{BlockSize: 64, NumBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	p = NewPool(a, 0)
	const turns = 2000
	var owner atomic.Int32 // who held the block last, to count hand-overs
	var handovers atomic.Int32
	var wg sync.WaitGroup
	for g := 1; g <= 2; g++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 1; i <= turns; i++ {
				m, err := p.BuildLoan(me, me, true, nil)
				if err != nil {
					t.Errorf("goroutine %d: %v", me, err)
					return
				}
				if owner.Swap(int32(me)) != int32(me) {
					handovers.Add(1)
				}
				if want := (Message{Length: me, Head: m.Head, Tail: m.Head, Sender: me, Blocks: 1}); *m != want {
					t.Errorf("goroutine %d, turn %d: header handed out as %+v, want %+v", me, i, *m, want)
					return
				}
				m.Seq, m.Pins, m.Pending = uint64(i), me, me
				p.Release(m)
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	if handovers.Load() < 2 {
		t.Fatalf("the block changed hands %d times in %d turns each: the goroutines never alternated", handovers.Load(), turns)
	}
	t.Logf("%d hand-overs of the one block in %d turns", handovers.Load(), 2*turns)
}

// built returns n one-byte messages from a fresh pool: the Queue tests
// link the pool's own headers, as core does, never fabricated ones.
func built(t *testing.T, n int) (*Pool, []*Message) {
	t.Helper()
	p := newPool(t, 16, n)
	ms := make([]*Message, n)
	for i := range ms {
		var err error
		if ms[i], err = p.Build(0, []byte{byte(i)}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	return p, ms
}

func TestQueueFIFOAndSeq(t *testing.T) {
	_, msgs := built(t, 5)
	var q Queue
	for _, m := range msgs {
		q.Enqueue(m)
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
	p, ms := built(t, 5)
	var q Queue
	for _, m := range ms[:4] {
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
	q.Enqueue(ms[4])
	if ms[1].Next != ms[4] {
		t.Fatal("enqueue after tail removal broke the list")
	}
	// A removed message is unlinked: releasing it, and reusing its head
	// for a new message, leaves the queue alone.
	p.Release(ms[0])
	m, err := p.Build(0, []byte("again"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m != ms[0] {
		t.Fatalf("first fit did not return the freed head's header")
	}
	if q.Head() != ms[1] || q.Head().Next != ms[4] || q.Len() != 2 {
		t.Fatal("reuse of a removed message's head disturbed the queue")
	}
}

func TestQueueRemoveMismatchPanics(t *testing.T) {
	_, ms := built(t, 2)
	var q Queue
	q.Enqueue(ms[0])
	q.Enqueue(ms[1])
	defer func() {
		if recover() == nil {
			t.Fatal("Remove with wrong prev did not panic")
		}
	}()
	q.Remove(ms[1], nil) // not the head
}

func TestQueueAfter(t *testing.T) {
	_, ms := built(t, 3)
	var q Queue
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
	_, ms := built(t, 4)
	var q Queue
	for _, m := range ms {
		q.Enqueue(m)
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
	p := NewPool(a, 0)
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
// messages under arbitrary enqueue/dequeue-head interleavings, with every
// dequeued message released so that later ones reuse its head and header.
func TestQuickQueueFIFO(t *testing.T) {
	a, err := shm.New(shm.Config{BlockSize: 16, NumBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(a, 0)
	f := func(ops []bool) bool {
		if len(ops) > a.NumBlocks() {
			ops = ops[:a.NumBlocks()]
		}
		var q Queue
		var model []uint64
		for _, enq := range ops {
			if enq {
				m, err := p.Build(0, nil, false, nil)
				if err != nil {
					return false
				}
				q.Enqueue(m)
				model = append(model, m.Seq)
			} else if h := q.Head(); h != nil {
				q.Remove(h, nil)
				p.Release(h)
				model = model[1:]
			}
		}
		if q.Len() != len(model) {
			return false
		}
		i := 0
		good := true
		var left []*Message
		q.Walk(func(m, prev *Message) bool {
			if m.Seq != model[i] || p.Check(m) != nil {
				good = false
				return false
			}
			left = append(left, m)
			i++
			return true
		})
		p.ReleaseBatch(left)
		return good && i == len(model) && a.FreeBlocks() == a.NumBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildRelease128(b *testing.B) {
	a, _ := shm.New(shm.Config{BlockSize: 64, NumBlocks: 1024})
	p := NewPool(a, 0)
	payload := make([]byte, 128)
	b.SetBytes(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := p.Build(0, payload, false, nil)
		p.Release(m)
	}
}
