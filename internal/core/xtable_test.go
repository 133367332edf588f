package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shm"
)

func tableSegment(t *testing.T, nSlots, ringCap int, extra int64) (*shm.Segment, *SegTable) {
	t.Helper()
	seg, err := shm.NewSegment(shm.AlignUp(SegTableBytes(nSlots, ringCap)) + extra + 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	tab, err := InitSegTable(seg, 64, nSlots, ringCap, 7)
	if err != nil {
		t.Fatal(err)
	}
	return seg, tab
}

func TestSegTableClaimDetach(t *testing.T) {
	seg, tab := tableSegment(t, 3, 8, 0)

	peer, err := AttachSegTable(seg, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if peer.NSlots() != 3 || peer.RingCap() != 8 {
		t.Fatalf("attached table reads %d slots, ring cap %d", peer.NSlots(), peer.RingCap())
	}
	if _, err := AttachSegTable(seg, 64, 8); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("stale generation attach: %v", err)
	}
	// A version-4 table let its peers claim and detach slots, a
	// version-3 one stored its owner's pid in the slot, a version-2 one
	// its ring offsets; a peer of this layout must refuse them all
	// rather than misread them.
	for _, v := range []uint32{2, 3, 4} {
		seg.Atomic32(64 + 4).Store(v)
		if _, err := AttachSegTable(seg, 64, 7); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, want 5", v)) {
			t.Fatalf("attach to a version-%d table: %v", v, err)
		}
	}
	seg.Atomic32(64 + 4).Store(segTableVersion)
	if _, err := AttachSegTable(seg, 128, 7); err == nil {
		t.Fatal("attach to non-table offset succeeded")
	}

	// The server's notice reaches the peer's handle in one word.
	tab.SetSlot(1, SlotAttached, 2)
	if st, gen := peer.SlotStateGen(1); st != SlotAttached || gen != 2 {
		t.Fatalf("peer reads slot 1 as state %d gen %d, want attached gen 2", st, gen)
	}

	// The slot's rings are live in both handles.
	down, _ := tab.Rings(1)
	peerDown, _ := peer.Rings(1)
	if err := down.PushBatch([]shm.Record{{Off: 640, Len: 33, Tag: 2}}, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	rec, err := popOne(peerDown, time.Now().Add(time.Second))
	if err != nil || rec.Off != 640 || rec.Len != 33 || rec.Tag != 2 {
		t.Fatalf("cross-handle pop: %+v, %v", rec, err)
	}
}

// TestSegTableDeadSlotGeneration is the slot notice's story from the
// peer's side: a peer of incarnation G learns from one load that G has
// ended — the word reads free|G, and then attached|G+1 once the server
// begins the next — and the 24-bit generation wraps without touching the
// state byte or a neighbouring slot.
func TestSegTableDeadSlotGeneration(t *testing.T) {
	seg, tab := tableSegment(t, 2, 8, 0)
	peer, err := AttachSegTable(seg, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	live := func(gen uint32) bool {
		st, g := peer.SlotStateGen(0)
		return st == SlotAttached && g == gen
	}
	tab.SetSlot(0, SlotAttached, 1)
	if !live(1) {
		t.Fatal("incarnation 1 does not read live after it began")
	}
	tab.SetSlot(0, SlotFree, 1)
	if live(1) || peer.SlotState(0) != SlotFree {
		t.Fatal("incarnation 1 still reads live after it ended")
	}
	tab.SetSlot(0, SlotAttached, 2)
	if live(1) || !live(2) {
		t.Fatal("the next incarnation did not replace the ended one")
	}
	const last = 1<<24 - 1
	tab.SetSlot(1, SlotAttached, last)
	if st, gen := peer.SlotStateGen(1); st != SlotAttached || gen != last {
		t.Fatalf("slot 1 reads state %d gen %d, want attached gen %d", st, gen, last)
	}
	if !live(2) {
		t.Fatal("a store to slot 1 changed slot 0")
	}
}

// TestSegmentAttachChurnRace drives the full cross-process contention
// pattern inside one address space (goroutine peers over a heap
// segment, so the race detector can see every access): a server
// goroutine issues incarnations of free slots — SetSlot, then the
// handshake's (slot, gen) — to N children, who each run loan/view-shaped
// ring traffic through their slot's rings over their own table handle,
// check the notice names their incarnation, and hand the slot back,
// while the parent facility, whose arena lives in the *same* segment,
// allocates and frees payload chains the whole time. Run under -race in
// CI.
func TestSegmentAttachChurnRace(t *testing.T) {
	const (
		nSlots  = 4
		ringCap = 8
		rounds  = 30
	)
	acfg := shm.Config{BlockSize: 64, NumBlocks: 256}
	tableOff := int64(64)
	arenaOff := shm.AlignUp(tableOff + SegTableBytes(nSlots, ringCap))
	seg, err := shm.NewSegment(arenaOff + shm.AlignUp(acfg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	tab, err := InitSegTable(seg, tableOff, nSlots, ringCap, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := shm.NewAt(acfg, seg.At(arenaOff, acfg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The parent: continuous allocator traffic against the shared
	// region, plus the echo service on every slot's down ring.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			head, _, err := arena.AllocPayload(200, false, nil)
			if err != nil {
				continue
			}
			arena.WriteChain(head, make([]byte, 200))
			arena.FreeChain(head)
		}
	}()
	for i := 0; i < nSlots; i++ {
		down, up := tab.Rings(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rec, ok, err := up.TryPop()
				if err != nil {
					return
				}
				if !ok {
					select {
					case <-stop:
						return
					default:
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err := down.PushBatch([]shm.Record{rec}, time.Now().Add(5*time.Second)); err != nil {
					return
				}
			}
		}()
	}

	// The server's incarnations: each free slot is begun with SetSlot and
	// handed out as (slot, gen); a slot handed back is ended with SetSlot
	// and begun again. The generations are the server's, kept here.
	type incarnation struct{ slot, gen uint32 }
	handshakes := make(chan incarnation)
	finished := make(chan incarnation, nSlots)
	wg.Add(1)
	go func() {
		defer wg.Done()
		gens := make([]uint32, nSlots)
		var free []uint32
		for i := range gens {
			free = append(free, uint32(i))
		}
		for {
			var out chan incarnation
			var next incarnation
			if len(free) > 0 {
				next = incarnation{free[0], gens[free[0]] + 1}
				out = handshakes
			}
			select {
			case out <- next:
				gens[next.slot] = next.gen
				tab.SetSlot(int(next.slot), SlotAttached, next.gen)
				free = free[1:]
			case in, ok := <-finished:
				if !ok {
					return
				}
				tab.SetSlot(int(in.slot), SlotFree, in.gen)
				free = append(free, in.slot)
			}
		}
	}()

	// The children: take an incarnation → ring round-trips → hand it
	// back, in a loop, all through their own AttachSegTable handles.
	var childWG sync.WaitGroup
	for c := 0; c < nSlots*2; c++ {
		childWG.Add(1)
		go func(c int) {
			defer childWG.Done()
			peer, err := AttachSegTable(seg, tableOff, 1)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				in := <-handshakes
				slot := int(in.slot)
				down, up := peer.Rings(slot)
				want := shm.Record{Off: int64(c*1000 + r), Len: int32(r), Tag: uint16(c)}
				err := up.PushBatch([]shm.Record{want}, time.Now().Add(5*time.Second))
				got := want
				if err == nil {
					got, err = popOne(down, time.Now().Add(5*time.Second))
				}
				if st, gen := peer.SlotStateGen(slot); err == nil && (st != SlotAttached || gen != in.gen) {
					err = fmt.Errorf("slot %d reads state %d gen %d, want attached gen %d", slot, st, gen, in.gen)
				}
				finished <- in
				if err != nil || got != want {
					t.Errorf("child %d echo: %+v, %v (want %+v)", c, got, err, want)
					return
				}
			}
		}(c)
	}

	childWG.Wait()
	close(finished)
	close(stop)
	wg.Wait()
	if err := arena.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nSlots; i++ {
		if s := tab.SlotState(i); s != SlotFree {
			t.Fatalf("slot %d state %d after churn, want free", i, s)
		}
	}
}

// popOne is a blocking pop of one record.
func popOne(r *shm.XRing, deadline time.Time) (shm.Record, error) {
	var one [1]shm.Record
	_, err := r.PopBatchAbort(one[:], deadline, nil)
	return one[0], err
}
