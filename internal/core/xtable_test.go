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
	// A version-3 table stored its owner's pid in the slot, a version-2
	// one its ring offsets; a peer of this layout must refuse both
	// rather than misread them.
	for _, v := range []uint32{2, 3} {
		seg.Atomic32(64 + 4).Store(v)
		if _, err := AttachSegTable(seg, 64, 7); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, want 4", v)) {
			t.Fatalf("attach to a version-%d table: %v", v, err)
		}
	}
	seg.Atomic32(64 + 4).Store(segTableVersion)
	if _, err := AttachSegTable(seg, 128, 7); err == nil {
		t.Fatal("attach to non-table offset succeeded")
	}

	if err := peer.Claim(1); err != nil {
		t.Fatal(err)
	}
	if tab.SlotState(1) != SlotAttached {
		t.Fatalf("slot 1 state %d after claim", tab.SlotState(1))
	}
	if err := tab.Claim(1); err == nil {
		t.Fatal("double claim succeeded")
	}
	i, err := tab.ClaimAny()
	if err != nil || i == 1 {
		t.Fatalf("ClaimAny = %d, %v", i, err)
	}
	peer.Detach(1)
	if tab.SlotState(1) != SlotDetached {
		t.Fatalf("slot 1 state %d after detach", tab.SlotState(1))
	}
	// Detached slots are reclaimable; the attach counter keeps history.
	if err := tab.Claim(1); err != nil {
		t.Fatalf("reclaim of detached slot: %v", err)
	}
	if _, gen := tab.SlotStateGen(1); gen != 2 {
		t.Fatalf("slot 1 attach count %d, want 2", gen)
	}

	// The claimed slot's rings are live in both handles.
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

// TestSegTableDeadSlotGeneration is the stale-death story: a reaper
// that observed incarnation G of a slot must not be able to kill
// incarnation G+1. The generation is packed into the state word, so
// MarkDead with a stale generation is a failed CAS, not a misfire.
func TestSegTableDeadSlotGeneration(t *testing.T) {
	_, tab := tableSegment(t, 2, 8, 0)

	gen1, err := tab.ClaimGen(0)
	if err != nil {
		t.Fatal(err)
	}

	// The owner vanishes without detaching; while the slot reads
	// attached a new claim is refused.
	if err := tab.Claim(0); err == nil {
		t.Fatal("claim of attached slot succeeded")
	}

	// The reaper marks incarnation gen1 dead.
	if !tab.MarkDead(0, gen1) {
		t.Fatal("MarkDead with current generation failed")
	}
	if s := tab.SlotState(0); s != SlotDead {
		t.Fatalf("slot state %d after MarkDead", s)
	}
	// A second reaper (or a stale retry) cannot double-kill.
	if tab.MarkDead(0, gen1) {
		t.Fatal("MarkDead succeeded twice for one generation")
	}
	// Dead slots refuse claims until reclamation frees them.
	if err := tab.Claim(0); !errors.Is(err, ErrSlotDead) {
		t.Fatalf("claim of dead slot: %v", err)
	}
	if i, err := tab.ClaimAny(); err == nil && i == 0 {
		t.Fatal("ClaimAny handed out a dead slot")
	}

	// Reclamation completes: rings reformatted, slot freed.
	tab.ReformatRings(0)
	if tab.FreeSlot(0, gen1+1) {
		t.Fatal("FreeSlot with wrong generation succeeded")
	}
	if !tab.FreeSlot(0, gen1) {
		t.Fatal("FreeSlot with matching generation failed")
	}
	if s := tab.SlotState(0); s != SlotFree {
		t.Fatalf("slot state %d after FreeSlot", s)
	}

	// A new peer claims the freed slot. The generation moved, so the
	// old reaper's view is dead forever.
	gen2, err := tab.ClaimGen(0)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen1+1 {
		t.Fatalf("generation %d after reclaim-and-claim, want %d", gen2, gen1+1)
	}
	if tab.MarkDead(0, gen1) {
		t.Fatal("stale-generation MarkDead killed the new incarnation")
	}
	if s := tab.SlotState(0); s != SlotAttached {
		t.Fatalf("new incarnation state %d after stale MarkDead", s)
	}
	// A late Detach from a thread of the dead incarnation is also
	// harmless once the state moved on: Detach only touches attached
	// slots, and the reclaim path only ever transitions its own gen.
	tab.Detach(0)
	if tab.MarkDead(0, gen2) {
		t.Fatal("MarkDead of detached slot succeeded")
	}
	if _, gen := tab.SlotStateGen(0); gen != 2 {
		t.Fatalf("attach count %d, want 2", gen)
	}
}

// TestPeerDeathChurnRace is TestSegmentAttachChurnRace with violence: a
// fraction of the children "crash" — abandon their slot mid-traffic
// without detaching — and a reaper goroutine concurrently marks
// abandoned incarnations dead, reformats their rings and frees the
// slots while other children churn claims. Run under -race in CI.
func TestPeerDeathChurnRace(t *testing.T) {
	const (
		nSlots  = 4
		ringCap = 8
		rounds  = 25
	)
	seg, err := shm.NewSegment(shm.AlignUp(SegTableBytes(nSlots, ringCap)) + 128)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	tab, err := InitSegTable(seg, 64, nSlots, ringCap, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Deaths are announced to the reaper as (slot, gen) pairs — the
	// in-process stand-in for the pid probe deciding a peer is gone.
	deaths := make(chan [2]uint32, nSlots*16)

	stop := make(chan struct{})
	var reaperWG sync.WaitGroup
	reaperWG.Add(1)
	go func() {
		defer reaperWG.Done()
		for {
			select {
			case d := <-deaths:
				slot, gen := int(d[0]), d[1]
				if !tab.MarkDead(slot, gen) {
					continue // stale: the incarnation already moved on
				}
				tab.ReformatRings(slot)
				if !tab.FreeSlot(slot, gen) {
					t.Errorf("FreeSlot(%d, %d) failed on a slot we marked dead", slot, gen)
				}
			case <-stop:
				return
			}
		}
	}()

	var childWG sync.WaitGroup
	for c := 0; c < nSlots*2; c++ {
		childWG.Add(1)
		go func(c int) {
			defer childWG.Done()
			peer, err := AttachSegTable(seg, 64, 1)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				slot, err := peer.ClaimAny()
				if err != nil {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				_, gen := peer.SlotStateGen(slot)
				_, up := peer.Rings(slot)
				// Traffic, then either a clean detach or a "crash":
				// walk away and let the reaper find the corpse.
				up.TryPush(shm.Record{Off: int64(c*1000 + r), Tag: uint16(c)})
				if (c+r)%3 == 0 {
					deaths <- [2]uint32{uint32(slot), gen}
				} else {
					peer.Detach(slot)
				}
			}
		}(c)
	}

	childWG.Wait()
	// Drain any still-queued deaths, then stop the reaper.
	for {
		select {
		case d := <-deaths:
			slot, gen := int(d[0]), d[1]
			if tab.MarkDead(slot, gen) {
				tab.ReformatRings(slot)
				tab.FreeSlot(slot, gen)
			}
		default:
			close(stop)
			reaperWG.Wait()
			// Every slot must be reusable: nothing attached, nothing
			// stuck dead.
			for i := 0; i < nSlots; i++ {
				if s := tab.SlotState(i); s == SlotAttached || s == SlotDead {
					t.Fatalf("slot %d state %d after churn with deaths", i, s)
				}
				if err := tab.Claim(i); err != nil {
					t.Fatalf("slot %d not claimable after churn: %v", i, err)
				}
				tab.Detach(i)
			}
			return
		}
	}
}

// TestSegmentAttachChurnRace drives the full cross-process contention
// pattern inside one address space (goroutine peers over a heap
// segment, so the race detector can see every access): N children
// repeatedly claim a table slot, run loan/view-shaped ring traffic
// through it, and detach — while the parent facility, whose arena
// lives in the *same* segment, allocates and frees payload chains the
// whole time. Run under -race in CI.
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

	// The children: claim → ring round-trips → detach, in a loop, all
	// through their own AttachSegTable handles.
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
				slot, err := peer.ClaimAny()
				if err != nil {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				down, up := peer.Rings(slot)
				want := shm.Record{Off: int64(c*1000 + r), Len: int32(r), Tag: uint16(c)}
				if err := up.PushBatch([]shm.Record{want}, time.Now().Add(5*time.Second)); err != nil {
					t.Errorf("child %d push: %v", c, err)
					peer.Detach(slot)
					return
				}
				got, err := popOne(down, time.Now().Add(5*time.Second))
				if err != nil || got != want {
					t.Errorf("child %d echo: %+v, %v (want %+v)", c, got, err, want)
					peer.Detach(slot)
					return
				}
				peer.Detach(slot)
			}
		}(c)
	}

	childWG.Wait()
	close(stop)
	wg.Wait()
	if err := arena.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nSlots; i++ {
		if s := tab.SlotState(i); s == SlotAttached {
			t.Fatalf("slot %d still attached after churn", i)
		}
	}
}

// popOne is a blocking pop of one record.
func popOne(r *shm.XRing, deadline time.Time) (shm.Record, error) {
	var one [1]shm.Record
	_, err := r.PopBatchAbort(one[:], deadline, nil)
	return one[0], err
}
