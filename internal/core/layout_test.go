package core

import (
	"testing"
	"unsafe"
)

// The false-sharing layout contract (DESIGN.md §16): every hot word a
// spinning peer can invalidate gets a 64-byte cache line to itself.
// These assertions exist so a future field insertion cannot silently
// push two hot words back onto one line — the regression would show up
// only as a few percent of cross-core throughput, which no functional
// test catches.

const cacheLine = 64

// sameLine reports whether byte ranges [a, a+an) and [b, b+bn) can
// touch a common 64-byte line (assuming the struct base is
// line-aligned — heap bases may be offset, but fields separated within
// the struct stay separated at any base).
func sameLine(a, an, b, bn uintptr) bool {
	return a/cacheLine == (b+bn-1)/cacheLine || b/cacheLine == (a+an-1)/cacheLine
}

// apart reports whether a field ending at aEnd and a later one starting
// at bStart can share a line at no 8-byte-aligned struct base: what a
// struct the allocator does not put on a line boundary (the Facility,
// behind its 8-byte malloc header) has to satisfy.
func apart(aEnd, bStart uintptr) bool { return bStart >= aEnd+cacheLine-8 }

func lineOf(off uintptr) uintptr { return off / cacheLine }

func TestHotWordLayout(t *testing.T) {
	// Registry shards sit adjacent in one slice: the shard lock must
	// own its line and the whole shard must be a line multiple, or
	// neighbouring shards' locks land on one line.
	var rs registryShard
	if got := unsafe.Sizeof(rs); got%cacheLine != 0 {
		t.Errorf("registryShard is %d bytes, want a multiple of %d", got, cacheLine)
	}
	if sameLine(unsafe.Offsetof(rs.lock), unsafe.Sizeof(rs.lock), unsafe.Offsetof(rs.names), 8) {
		t.Errorf("registryShard lock (at %d) shares a line with names (at %d)",
			unsafe.Offsetof(rs.lock), unsafe.Offsetof(rs.names))
	}

	// The circuit lock is the facility's hottest word; the fields
	// after it are walked while it is held by others.
	var l lnvc
	if sameLine(unsafe.Offsetof(l.lock), unsafe.Sizeof(l.lock), unsafe.Offsetof(l.cond), 8) {
		t.Errorf("lnvc lock (at %d) shares a line with cond (at %d)",
			unsafe.Offsetof(l.lock), unsafe.Offsetof(l.cond))
	}

	// The descriptor is six lines by writer: the lock (with words only
	// reset writes), the queue group every send and receive writes and
	// the lock hands over, the words they only read, the credit word.
	// No word written per message sits on the read-only line, or both
	// sides would take it from each other on every message for nothing.
	if got := unsafe.Sizeof(l); got != 6*cacheLine {
		t.Errorf("lnvc is %d bytes, want %d (a size class whose objects start on line boundaries)", got, 6*cacheLine)
	}
	lockLine := lineOf(unsafe.Offsetof(l.lock))
	if lineOf(unsafe.Offsetof(l.lock)+unsafe.Sizeof(l.lock)-1) != lockLine {
		t.Errorf("lnvc lock straddles two lines (at %d, %d bytes)", unsafe.Offsetof(l.lock), unsafe.Sizeof(l.lock))
	}
	queueLine := lineOf(unsafe.Offsetof(l.queue))
	for name, off := range map[string]uintptr{
		"queue end": unsafe.Offsetof(l.queue) + unsafe.Sizeof(l.queue) - 1,
		"fcfsHead":  unsafe.Offsetof(l.fcfsHead),
		"fcfsDone":  unsafe.Offsetof(l.fcfsDone),
	} {
		if lineOf(off) != queueLine {
			t.Errorf("lnvc %s (at %d) is off the queue group's line %d", name, off, queueLine)
		}
	}
	readLine := lineOf(unsafe.Offsetof(l.cond))
	for name, off := range map[string]uintptr{
		"sends": unsafe.Offsetof(l.sends), "recvs": unsafe.Offsetof(l.recvs),
		"nFCFS": unsafe.Offsetof(l.nFCFS), "nBcast": unsafe.Offsetof(l.nBcast),
		"waiters end": unsafe.Offsetof(l.waiters) + unsafe.Sizeof(l.waiters) - 1,
	} {
		if lineOf(off) != readLine {
			t.Errorf("lnvc %s (at %d) is off the read-mostly line %d", name, off, readLine)
		}
	}
	if lockLine == queueLine || queueLine == readLine || lockLine == readLine {
		t.Errorf("lnvc lock, queue group and read-mostly words on lines %d, %d, %d, want three", lockLine, queueLine, readLine)
	}
	creditLine := lineOf(unsafe.Offsetof(l.creditUsed))
	if creditLine == lockLine || creditLine == queueLine || creditLine == readLine {
		t.Errorf("lnvc creditUsed on line %d shares it with the lock, queue or read-mostly words", creditLine)
	}

	// Traffic counters live on the connections. A descriptor is a line
	// multiple, so two connections never share a line: no word a sender
	// writes per message shares a line with one a receiver writes per
	// message, except inside the queue group above.
	var sd sendDesc
	var rd recvDesc
	if got := unsafe.Sizeof(sd); got%cacheLine != 0 {
		t.Errorf("sendDesc is %d bytes, want a multiple of %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(rd); got%cacheLine != 0 {
		t.Errorf("recvDesc is %d bytes, want a multiple of %d", got, cacheLine)
	}
	if got := unsafe.Sizeof(rd.rx); got != cacheLine || unsafe.Offsetof(rd.rx)%cacheLine != 0 {
		t.Errorf("recvDesc.rx is %d bytes at %d, want one line", got, unsafe.Offsetof(rd.rx))
	}
	// The sizes only help if the allocator honours them: look at real
	// descriptors, reached the way the facility reaches them.
	f, err := Init(Config{MaxLNVCs: 8, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	for _, name := range []string{"p", "q", "r"} {
		sid, err := f.OpenSend(0, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.OpenReceive(1, name, FCFS); err != nil {
			t.Fatal(err)
		}
		if _, err := f.OpenReceive(2, name, Broadcast); err != nil {
			t.Fatal(err)
		}
		d := f.slots[sid].Load()
		for what, p := range map[string]unsafe.Pointer{
			"lnvc": unsafe.Pointer(d), "sendDesc": unsafe.Pointer(d.sends[0]),
			"FCFS recvDesc": unsafe.Pointer(d.recvs[1]), "BROADCAST recvDesc": unsafe.Pointer(d.recvs[2]),
		} {
			if uintptr(p)%cacheLine != 0 {
				t.Errorf("circuit %q: %s allocated at %#x, not on a line boundary", name, what, uintptr(p))
			}
		}
	}

	// The Facility header — read by every primitive, written by none
	// after Init (stopped once, by Shutdown) — shares no line with a word
	// written while the facility runs, wherever the struct is allocated;
	// the rare-event cell starts a line of its own, and the two copy
	// escape hatches have one to themselves.
	hdrEnd := unsafe.Offsetof(f.stopped) + unsafe.Sizeof(f.stopped)
	for name, off := range map[string]uintptr{
		"cfg": unsafe.Offsetof(f.cfg), "arena": unsafe.Offsetof(f.arena), "pool": unsafe.Offsetof(f.pool),
		"shards": unsafe.Offsetof(f.shards), "shardMask": unsafe.Offsetof(f.shardMask),
		"slots": unsafe.Offsetof(f.slots), "contention": unsafe.Offsetof(f.contention),
		"stop": unsafe.Offsetof(f.stop), "stopped": unsafe.Offsetof(f.stopped),
	} {
		if off >= hdrEnd {
			t.Errorf("Facility.%s (at %d) is outside the header, which ends at %d", name, off, hdrEnd)
		}
	}
	if !apart(hdrEnd, unsafe.Offsetof(f.idLock)) {
		t.Errorf("Facility header (ends at %d) can share a line with idLock (at %d)", hdrEnd, unsafe.Offsetof(f.idLock))
	}
	regEnd := unsafe.Offsetof(f.anyCursor) + unsafe.Sizeof(f.anyCursor)
	if !apart(regEnd, unsafe.Offsetof(f.stats)) {
		t.Errorf("Facility registry words (end at %d) can share a line with the rare-event cell (at %d)",
			regEnd, unsafe.Offsetof(f.stats))
	}
	rareEnd := unsafe.Offsetof(f.stats.reclaimLatencyNanos) + unsafe.Sizeof(f.stats.reclaimLatencyNanos)
	if !apart(rareEnd, unsafe.Offsetof(f.stats.viewCopiesOut)) {
		t.Errorf("rare-event words (end at %d) can share a line with the copy escape hatches (at %d)",
			rareEnd, unsafe.Offsetof(f.stats.viewCopiesOut))
	}
	if end := unsafe.Offsetof(f.stats.unsentCopiesIn) + unsafe.Sizeof(f.stats.unsentCopiesIn); !apart(end, unsafe.Sizeof(f.stats)) {
		t.Errorf("copy escape hatches (end at %d) can share a line with whatever follows the Facility (%d bytes of cell)",
			end, unsafe.Sizeof(f.stats))
	}

	// The credit ledger's debit word versus the waiter list senders
	// park on and receivers drain.
	if sameLine(unsafe.Offsetof(l.creditUsed), unsafe.Sizeof(l.creditUsed),
		unsafe.Offsetof(l.creditWaiters), unsafe.Sizeof(l.creditWaiters)) {
		t.Errorf("lnvc creditUsed (at %d) shares a line with creditWaiters (at %d)",
			unsafe.Offsetof(l.creditUsed), unsafe.Offsetof(l.creditWaiters))
	}

	// The selector's mu/ready group is hammered by senders (markReady
	// under the firing circuit's lock); the fields before the pad
	// belong to the parked owner.
	var s Selector
	if unsafe.Offsetof(s.mu)%cacheLine != 0 {
		t.Errorf("Selector.mu at offset %d, want a %d-byte boundary", unsafe.Offsetof(s.mu), cacheLine)
	}
	if sameLine(unsafe.Offsetof(s.w), 8, unsafe.Offsetof(s.mu), unsafe.Sizeof(s.mu)) {
		t.Errorf("Selector.w (at %d) shares a line with mu (at %d)",
			unsafe.Offsetof(s.w), unsafe.Offsetof(s.mu))
	}
}
