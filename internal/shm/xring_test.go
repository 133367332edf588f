package shm

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func ringPair(t *testing.T, capacity int) (*XRing, *XRing) {
	t.Helper()
	seg, err := NewSegment(4096 + RingBytes(capacity))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	prod, err := InitRing(seg, 1024, capacity)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := AttachRing(seg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

func TestRingPushPopWraparound(t *testing.T) {
	prod, cons := ringPair(t, 4)
	// 3× capacity forces wraparound of the 2-bit index space.
	for round := 0; round < 12; round++ {
		rec := Record{Off: int64(round * 64), Len: int32(round), Tag: uint16(round), Word: uint16(round * 3)}
		ok, err := prod.TryPush(rec)
		if err != nil || !ok {
			t.Fatalf("round %d: TryPush = %v, %v", round, ok, err)
		}
		got, ok, err := cons.TryPop()
		if err != nil || !ok {
			t.Fatalf("round %d: TryPop = %v, %v", round, ok, err)
		}
		if got != rec {
			t.Fatalf("round %d: popped %+v, pushed %+v", round, got, rec)
		}
	}
	if _, ok, _ := cons.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingFullAndBatch(t *testing.T) {
	prod, cons := ringPair(t, 4)
	for i := 0; i < 4; i++ {
		if ok, _ := prod.TryPush(Record{Off: int64(i)}); !ok {
			t.Fatalf("push %d into empty ring failed", i)
		}
	}
	if ok, _ := prod.TryPush(Record{}); ok {
		t.Fatal("push into full ring succeeded")
	}
	if prod.Len() != 4 {
		t.Fatalf("Len = %d, want 4", prod.Len())
	}
	for i := 0; i < 4; i++ {
		rec, ok, _ := cons.TryPop()
		if !ok || rec.Off != int64(i) {
			t.Fatalf("pop %d: %+v, %v", i, rec, ok)
		}
	}

	batch := []Record{{Off: 10}, {Off: 20}, {Off: 30}}
	if err := prod.PushBatch(batch, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, want := range batch {
		rec, err := cons.Pop(time.Now().Add(time.Second))
		if err != nil || rec.Off != want.Off {
			t.Fatalf("batch pop: %+v, %v", rec, err)
		}
	}
	if err := prod.PushBatch(make([]Record, 5), time.Time{}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestRingBlockingHandoff(t *testing.T) {
	prod, cons := ringPair(t, 8)
	const n = 5000
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := prod.Push(Record{Off: int64(i), Word: uint16(i)}, time.Now().Add(10*time.Second)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		rec, err := cons.Pop(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if rec.Off != int64(i) {
			t.Fatalf("pop %d: got Off %d (SPSC order violated)", i, rec.Off)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("producer: %v", err)
	}
	data, space := cons.WaitStats()
	t.Logf("consumer stats: data=%+v space=%+v", data, space)
}

func TestRingTimeoutAndClose(t *testing.T) {
	prod, cons := ringPair(t, 2)
	if _, err := cons.Pop(time.Now().Add(20 * time.Millisecond)); !errors.Is(err, ErrRingTimeout) {
		t.Fatalf("pop on empty ring: %v, want timeout", err)
	}
	prod.TryPush(Record{Off: 1})
	prod.TryPush(Record{Off: 2})
	if err := prod.Push(Record{Off: 3}, time.Now().Add(20*time.Millisecond)); !errors.Is(err, ErrRingTimeout) {
		t.Fatalf("push into full ring: %v, want timeout", err)
	}

	prod.Close()
	if err := prod.Push(Record{}, time.Time{}); !errors.Is(err, ErrRingClosed) {
		t.Fatalf("push after close: %v", err)
	}
	// Queued records drain before the close is reported.
	for want := int64(1); want <= 2; want++ {
		rec, err := cons.Pop(time.Time{})
		if err != nil || rec.Off != want {
			t.Fatalf("drain pop: %+v, %v", rec, err)
		}
	}
	if _, err := cons.Pop(time.Time{}); !errors.Is(err, ErrRingClosed) {
		t.Fatalf("pop after drain: %v, want closed", err)
	}
}

func TestRingAttachValidation(t *testing.T) {
	seg, _ := NewSegment(RingBytes(8) + 128)
	defer seg.Close()
	if _, err := InitRing(seg, 0, 3); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
	if _, err := InitRing(seg, 33, 8); err == nil {
		t.Fatal("misaligned base accepted")
	}
	if _, err := InitRing(seg, 64, 1<<20); err == nil {
		t.Fatal("oversized ring accepted")
	}
	if _, err := AttachRing(seg, 64); err == nil {
		t.Fatal("attach to unformatted memory succeeded")
	}
	if _, err := InitRing(seg, 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachRing(seg, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNotifyDeadline(t *testing.T) {
	seg, _ := NewSegment(256)
	defer seg.Close()
	n := NotifyAt(seg, 0)
	start := time.Now()
	v, ok := n.Wait(n.Load(), time.Now().Add(30*time.Millisecond))
	if ok {
		t.Fatalf("wait with no poster reported progress (v=%d)", v)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("deadline wait returned after %v", elapsed)
	}
}

// TestNotifySpinWindow holds the waiting rule: an event due within the
// spin window is met polling, with no kernel sleep and so no wake
// syscall for the poster; one that is not finds the waiter asleep and
// wakes it; and a deadline shorter than the window is overrun by no
// more than the window. Each leg is the best of several attempts: on a
// two-vCPU box either side can lose its CPU for longer than the window.
func TestNotifySpinWindow(t *testing.T) {
	seg, _ := NewSegment(256)
	defer seg.Close()
	n := NotifyAt(seg, 0)
	const attempts = 25

	// waitPost runs one Wait with a Post d after the waiter set out, and
	// returns the kernel sleeps and wake syscalls it took.
	waitPost := func(d time.Duration) (sleeps, wakes uint64) {
		before, old := n.Stats(), n.Load()
		var setOut atomic.Bool
		posted := make(chan struct{})
		go func() {
			defer close(posted)
			for !setOut.Load() {
				runtime.Gosched()
			}
			if d < 10*notifySpinWindow {
				for t0 := time.Now(); time.Since(t0) < d; {
				}
			} else {
				time.Sleep(d)
			}
			n.Post()
		}()
		setOut.Store(true)
		if v, ok := n.Wait(old, time.Time{}); !ok || v != old+1 {
			t.Fatalf("Wait(%d) with a Post after %v = %d, %v", old, d, v, ok)
		}
		<-posted
		after := n.Stats()
		return after.Sleeps - before.Sleeps, after.Wakes - before.Wakes
	}

	within := false
	for i := 0; i < attempts && !within; i++ {
		sleeps, wakes := waitPost(notifySpinWindow / 5)
		within = sleeps == 0 && wakes == 0
	}
	if !within {
		t.Errorf("a Post %v into a Wait never found the waiter still polling in %d attempts", notifySpinWindow/5, attempts)
	}

	beyond := false
	for i := 0; i < attempts && !beyond; i++ {
		sleeps, wakes := waitPost(20 * notifySpinWindow)
		beyond = sleeps >= 1 && wakes >= 1
	}
	if !beyond {
		t.Errorf("a Post %v into a Wait never found the waiter asleep and woke it in %d attempts", 20*notifySpinWindow, attempts)
	}

	const short = notifySpinWindow / 5
	best := time.Hour
	for i := 0; i < attempts; i++ {
		start := time.Now()
		if v, ok := n.Wait(n.Load(), start.Add(short)); ok {
			t.Fatalf("Wait with no poster reported progress (v=%d)", v)
		}
		best = min(best, time.Since(start))
	}
	if best > short+notifySpinWindow {
		t.Errorf("a %v deadline returned after %v at best, want within one %v window of it", short, best, notifySpinWindow)
	}
}

func TestRingAbortableWaits(t *testing.T) {
	prod, cons := ringPair(t, 2)

	// Fast path: data ready, abort never consulted.
	prod.TryPush(Record{Off: 7})
	rec, err := cons.PopAbort(time.Time{}, func() error {
		t.Error("abort probed with data ready")
		return nil
	})
	if err != nil || rec.Off != 7 {
		t.Fatalf("PopAbort with data: %+v, %v", rec, err)
	}

	// Slow path: empty ring, dead peer — the probe ends the wait well
	// before any deadline would.
	dead := errors.New("peer dead")
	start := time.Now()
	if _, err := cons.PopAbort(time.Now().Add(10*time.Second), func() error { return dead }); !errors.Is(err, dead) {
		t.Fatalf("PopAbort with dead peer: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("abort took %v", time.Since(start))
	}

	// Producer side: full ring, dead consumer.
	prod.TryPush(Record{Off: 1})
	prod.TryPush(Record{Off: 2})
	if err := prod.PushAbort(Record{Off: 3}, time.Now().Add(10*time.Second), func() error { return dead }); !errors.Is(err, dead) {
		t.Fatalf("PushAbort with dead peer: %v", err)
	}

	// A live-but-silent peer still hits the real deadline.
	cons.TryPop()
	cons.TryPop()
	if _, err := cons.PopAbort(time.Now().Add(30*time.Millisecond), func() error { return nil }); !errors.Is(err, ErrRingTimeout) {
		t.Fatalf("PopAbort deadline: %v", err)
	}
}

// TestRingPopBatch covers the run pop: a batch larger than what is
// queued takes what there is, a shorter one leaves the rest, runs
// straddle the index wrap-around, an empty ring gives 0 without error
// and a closed one drains before it reports the close.
func TestRingPopBatch(t *testing.T) {
	prod, cons := ringPair(t, 4)
	dst := make([]Record, 8)
	if n, err := cons.PopBatch(dst); n != 0 || err != nil {
		t.Fatalf("PopBatch on an empty ring = %d, %v", n, err)
	}
	next := int64(0)
	push := func(k int) {
		t.Helper()
		recs := make([]Record, k)
		for i := range recs {
			recs[i] = Record{Off: next + int64(i), Word: uint16(next) + uint16(i)}
		}
		if err := prod.PushBatch(recs, time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		next += int64(k)
	}
	want := int64(0)
	pop := func(buf []Record, n int) {
		t.Helper()
		got, err := cons.PopBatchAbort(buf, time.Now().Add(time.Second), nil)
		if err != nil || got != n {
			t.Fatalf("PopBatchAbort = %d, %v, want %d records", got, err, n)
		}
		for _, rec := range buf[:got] {
			if rec.Off != want || rec.Word != uint16(want) {
				t.Fatalf("popped %+v, want Off %d", rec, want)
			}
			want++
		}
	}
	// Twelve rounds of three on a ring of four: every run but the first
	// straddles the 2-bit index wrap.
	for round := 0; round < 12; round++ {
		push(3)
		pop(dst, 3) // batch larger than queued
	}
	push(4)
	pop(dst[:3], 3) // batch smaller than queued
	if cons.Len() != 1 {
		t.Fatalf("Len = %d after a short pop, want 1", cons.Len())
	}
	push(2)
	prod.Close()
	pop(dst, 3) // a closed ring drains first
	if n, err := cons.PopBatch(dst); n != 0 || !errors.Is(err, ErrRingClosed) {
		t.Fatalf("PopBatch after the drain = %d, %v, want closed", n, err)
	}
	if n, err := cons.PopBatchAbort(dst, time.Time{}, nil); n != 0 || !errors.Is(err, ErrRingClosed) {
		t.Fatalf("PopBatchAbort after the drain = %d, %v, want closed", n, err)
	}
}

// TestRingBatchAbort: the batch forms carry the liveness hook. A full
// ring whose consumer is dead and an empty one whose producer is dead
// end the wait with the probe's error, and a batch that fits never
// consults it.
func TestRingBatchAbort(t *testing.T) {
	prod, cons := ringPair(t, 4)
	dead := errors.New("peer dead")
	never := func() error {
		t.Error("abort probed on the fast path")
		return nil
	}
	if err := prod.PushBatchAbort(make([]Record, 3), time.Time{}, never); err != nil {
		t.Fatal(err)
	}
	if n, err := cons.PopBatchAbort(make([]Record, 2), time.Time{}, never); n != 2 || err != nil {
		t.Fatalf("PopBatchAbort with data = %d, %v", n, err)
	}
	start := time.Now()
	if err := prod.PushBatchAbort(make([]Record, 4), time.Now().Add(10*time.Second), func() error { return dead }); !errors.Is(err, dead) {
		t.Fatalf("PushBatchAbort into a full ring with a dead consumer: %v", err)
	}
	cons.TryPop()
	if _, err := cons.PopBatchAbort(make([]Record, 2), time.Now().Add(10*time.Second), func() error { return dead }); !errors.Is(err, dead) {
		t.Fatalf("PopBatchAbort on an empty ring with a dead producer: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("aborts took %v", time.Since(start))
	}
	if err := prod.PushBatchAbort(make([]Record, 5), time.Time{}, never); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestRingScribbledCursors plays the peer that writes garbage into the
// index words it can reach. Whatever it stores, neither side may walk
// more records than the ring holds: the consumer of a wild tail and the
// producer facing a wild head get ErrRingCorrupt, and Len stays within
// the capacity.
func TestRingScribbledCursors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		head, tail uint32
	}{
		{"wild tail", 0, 1 << 31},
		{"tail one past the capacity", 3, 8},
		{"wild head", 77, 2},
		{"head past tail across the wrap", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prod, cons := ringPair(t, 4)
			prod.TryPush(Record{Off: 1})
			cons.seg.Atomic32(cons.base + ringOffHead).Store(tc.head)
			cons.seg.Atomic32(cons.base + ringOffTail).Store(tc.tail)

			if _, ok, err := cons.TryPop(); ok || !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("TryPop = %v, %v, want ErrRingCorrupt", ok, err)
			}
			if n, err := cons.PopBatch(make([]Record, 8)); n != 0 || !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("PopBatch = %d, %v, want ErrRingCorrupt", n, err)
			}
			if _, err := cons.PopAbort(time.Now().Add(time.Second), func() error { return nil }); !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("PopAbort = %v, want ErrRingCorrupt", err)
			}
			if ok, err := prod.TryPush(Record{}); ok || !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("TryPush = %v, %v, want ErrRingCorrupt", ok, err)
			}
			if err := prod.PushBatchAbort(make([]Record, 2), time.Now().Add(time.Second), nil); !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("PushBatchAbort = %v, want ErrRingCorrupt", err)
			}
			if n := cons.Len(); n < 0 || n > cons.Cap() {
				t.Fatalf("Len = %d on a ring of %d", n, cons.Cap())
			}
		})
	}

	// The boundary is legal: a full ring is tail − head == capacity.
	prod, cons := ringPair(t, 4)
	if err := prod.PushBatch(make([]Record, 4), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n, err := cons.PopBatch(make([]Record, 8)); n != 4 || err != nil {
		t.Fatalf("PopBatch of a full ring = %d, %v", n, err)
	}
}
