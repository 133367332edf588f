package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression tests for the parked-waiter close race: a receive blocked
// on a circuit — plain Receive or Selector.Wait — whose connection is closed out from under it must
// return ErrNotConnected promptly. Before the per-circuit waiter lists
// the blocked call slept until an unrelated Send happened to pulse the
// facility (or forever, for the condition-variable paths, which the
// close never signalled at all).

const closeRacePatience = 2 * time.Second

func TestReceiveCloseWhileParked(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "cr-recv")
	rid, _ := f.OpenReceive(1, "cr-recv", FCFS)
	errc := make(chan error, 1)
	go func() {
		_, err := f.Receive(1, rid, make([]byte, 8))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked Receive returned %v, want ErrNotConnected", err)
		}
	case <-time.After(closeRacePatience):
		t.Fatal("parked Receive hung across CloseReceive")
	}
}

func TestSelectorCloseReceiveWhileParked(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "cr-sel-a")
	_, _ = f.OpenSend(0, "cr-sel-b")
	ra, _ := f.OpenReceive(1, "cr-sel-a", FCFS)
	rb, _ := f.OpenReceive(1, "cr-sel-b", FCFS)
	s, _ := f.NewSelector(1)
	defer s.Close()
	if err := s.Add(ra); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rb); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Wait()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := f.CloseReceive(1, rb); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked Selector.Wait returned %v, want ErrNotConnected", err)
		}
	case <-time.After(closeRacePatience):
		t.Fatal("parked Selector.Wait hung across CloseReceive")
	}
	// The dead circuit was dropped; the surviving registration still
	// works.
	if s.Has(rb) {
		t.Fatal("dead registration survived")
	}
	if !s.Has(ra) {
		t.Fatal("live registration was dropped")
	}
	if err := f.Send(0, mustID(t, f, "cr-sel-a"), []byte("go")); err != nil {
		t.Fatal(err)
	}
	if ready, err := s.WaitDeadline(time.Second); err != nil || len(ready) != 1 || ready[0] != ra {
		t.Fatalf("Wait after drop: ready=%v err=%v", ready, err)
	}
}

// TestReceiveCloseRacePromptness runs the Receive close race under a
// deadline-free park repeatedly to catch lost-wakeup interleavings.
func TestReceiveCloseRacePromptness(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 8, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	_, _ = f.OpenSend(0, "cr-loop")
	for i := 0; i < 200; i++ {
		rid, err := f.OpenReceive(1, "cr-loop", FCFS)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := f.Receive(1, rid, make([]byte, 4))
			errc <- err
		}()
		// No sleep: the close races the receive's park directly.
		if err := f.CloseReceive(1, rid); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if !errors.Is(err, ErrNotConnected) {
				t.Fatalf("round %d: %v", i, err)
			}
		case <-time.After(closeRacePatience):
			t.Fatalf("round %d: parked Receive hung", i)
		}
	}
}

func mustID(t *testing.T, f *Facility, name string) ID {
	t.Helper()
	id, ok := f.LNVCByName(name)
	if !ok {
		t.Fatalf("no circuit %q", name)
	}
	return id
}

// racePayload is message seq of TestCopyingReceiveRace: its length,
// 8 to 1507 bytes, and every byte follow from seq, which opens it.
func racePayload(seq uint64) []byte {
	b := make([]byte, 8+seq*97%1500)
	binary.LittleEndian.PutUint64(b, seq)
	for i := 8; i < len(b); i++ {
		b[i] = byte(seq*31 + uint64(i)*7)
	}
	return b
}

// checkRacePayload verifies b, a racePayload received into a buffer of
// bufLen bytes, and returns its seq; ok is false if it failed.
func checkRacePayload(t *testing.T, who string, b []byte, bufLen int) (seq uint64, ok bool) {
	t.Helper()
	if len(b) < 8 {
		t.Errorf("%s: %d bytes received, every message has at least 8", who, len(b))
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(b)
	want := racePayload(seq)
	if len(want) > bufLen {
		want = want[:bufLen]
	}
	if !bytes.Equal(b, want) {
		t.Errorf("%s: message %d arrived corrupt or cut to %d bytes (want %d)", who, seq, len(b), len(want))
		return seq, false
	}
	return seq, true
}

// TestCopyingReceiveRace races the copying receive — claim, copy out and
// retire under one circuit-lock hold — against everything else that
// touches a message's life on one circuit: two FCFS and two BROADCAST
// copying receivers (one FCFS buffer shorter than the longest message),
// one of each closed mid-stream by another goroutine, a BROADCAST view
// holder that joins, claims a view, leaves and keeps the view pinned
// while the copying receivers retire the messages around it, and
// Shutdown under all of it. Every delivered payload is verified, FCFS
// delivers each message once and in order, a BROADCAST receiver sees
// every message from its first, and once the circuit dies and the last
// view is released every block is back in the region.
func TestCopyingReceiveRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		copyingReceiveRaceRound(t, round)
	}
}

func copyingReceiveRaceRound(t *testing.T, round int) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 8, BlockSize: 64, BlocksPerProcess: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	const name = "copyrace"
	sid, err := f.OpenSend(0, name)
	if err != nil {
		t.Fatal(err)
	}
	type rcvr struct {
		pid    int
		proto  Protocol
		bufLen int
		closed bool // closed mid-stream by the closer
		got    atomic.Int64
	}
	rs := []*rcvr{
		{pid: 1, proto: FCFS, bufLen: 2048},
		{pid: 2, proto: FCFS, bufLen: 700, closed: true},
		{pid: 3, proto: Broadcast, bufLen: 2048},
		{pid: 4, proto: Broadcast, bufLen: 2048, closed: true},
	}
	for _, r := range rs {
		if _, err := f.OpenReceive(r.pid, name, r.proto); err != nil {
			t.Fatal(err)
		}
	}
	var fcfsMu sync.Mutex
	fcfsSeen := map[uint64]bool{}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the sender, until Shutdown
		defer wg.Done()
		for seq := uint64(0); ; seq++ {
			if err := f.Send(0, sid, racePayload(seq)); err != nil {
				if !errors.Is(err, ErrShutdown) {
					t.Errorf("send %d: %v", seq, err)
				}
				return
			}
		}
	}()
	for _, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			who := fmt.Sprintf("round %d, %s receiver %d", round, r.proto, r.pid)
			buf := make([]byte, r.bufLen)
			next := int64(-1)
			for {
				n, err := f.Receive(r.pid, sid, buf)
				if err != nil {
					if !errors.Is(err, ErrShutdown) && !(r.closed && errors.Is(err, ErrNotConnected)) {
						t.Errorf("%s: %v", who, err)
					}
					return
				}
				s, ok := checkRacePayload(t, who, buf[:n], r.bufLen)
				if !ok {
					return
				}
				seq := int64(s)
				if r.proto == Broadcast && next >= 0 && seq != next {
					t.Errorf("%s: message %d after %d", who, seq, next-1)
				}
				if r.proto == FCFS {
					if seq < next {
						t.Errorf("%s: message %d after %d", who, seq, next-1)
					}
					fcfsMu.Lock()
					if fcfsSeen[uint64(seq)] {
						t.Errorf("%s: message %d delivered to FCFS twice", who, seq)
					}
					fcfsSeen[uint64(seq)] = true
					fcfsMu.Unlock()
				}
				next = seq + 1
				r.got.Add(1)
			}
		}()
	}
	held := make(chan *View, 1)
	wg.Add(1)
	go func() { // the view holder: join, claim, leave, hold, verify, release
		defer wg.Done()
		var v *View
		defer func() { held <- v }()
		for {
			id, err := f.OpenReceive(5, name, Broadcast)
			if err != nil {
				return // ErrShutdown
			}
			nv, err := f.ReceiveView(5, id)
			if err == nil {
				if v != nil {
					checkViewPayload(t, v)
					v.Release()
				}
				v = nv
			}
			if err := f.CloseReceive(5, id); err != nil && !errors.Is(err, ErrBadLNVC) {
				t.Errorf("view holder: %v", err)
			}
			runtime.Gosched()
		}
	}()
	// Let the stream run, close one receiver of each protocol in the
	// middle of it, then stop the facility under the rest.
	waitGot := func(r *rcvr, n int64) {
		for deadline := time.Now().Add(5 * time.Second); r.got.Load() < n && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, r := range rs {
		if r.closed {
			waitGot(r, 50)
			if err := f.CloseReceive(r.pid, sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitGot(rs[0], 200)
	waitGot(rs[2], 200)
	f.Shutdown()
	wg.Wait()
	for _, r := range rs {
		if r.got.Load() == 0 {
			t.Errorf("round %d: receiver %d got nothing", round, r.pid)
		}
	}

	// Close what is left; the circuit dies with the last view still
	// pinned, and that view's release returns the last blocks.
	v := <-held
	for _, pid := range []int{1, 3} {
		if err := f.CloseReceive(pid, sid); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CloseSend(0, sid); err != nil {
		t.Fatal(err)
	}
	if v != nil {
		checkViewPayload(t, v)
		v.Release()
	}
	assertAllFree(t, f, fmt.Sprintf("round %d, after the circuit died and the last view was released", round))
}

func checkViewPayload(t *testing.T, v *View) {
	t.Helper()
	b := make([]byte, v.Len())
	checkRacePayload(t, "view holder", b[:v.CopyTo(b)], len(b))
}
