package core

import (
	"errors"
	"testing"
	"time"
)

// Regression tests for the parked-waiter close race: a receive blocked
// on a circuit — plain Receive, ReceiveBatch, ReceiveAny or
// Selector.Wait — whose connection is closed out from under it must
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

func TestReceiveBatchCloseWhileParked(t *testing.T) {
	f := newFac(t)
	_, _ = f.OpenSend(0, "cr-batch")
	rid, _ := f.OpenReceive(1, "cr-batch", FCFS)
	errc := make(chan error, 1)
	go func() {
		_, err := f.ReceiveBatch(1, rid, [][]byte{make([]byte, 8), make([]byte, 8)})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := f.CloseReceive(1, rid); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked ReceiveBatch returned %v, want ErrNotConnected", err)
		}
	case <-time.After(closeRacePatience):
		t.Fatal("parked ReceiveBatch hung across CloseReceive")
	}
}

func TestReceiveAnyCloseWhileParked(t *testing.T) {
	t.Run("waiter-lists", func(t *testing.T) {
		f := newFac(t)
		_, _ = f.OpenSend(0, "cr-any-a")
		_, _ = f.OpenSend(0, "cr-any-b")
		ra, _ := f.OpenReceive(1, "cr-any-a", FCFS)
		rb, _ := f.OpenReceive(1, "cr-any-b", FCFS)
		errc := make(chan error, 1)
		go func() {
			_, _, err := f.ReceiveAny(1, []ID{ra, rb}, make([]byte, 8))
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond)
		if err := f.CloseReceive(1, rb); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if !errors.Is(err, ErrNotConnected) {
				t.Fatalf("parked ReceiveAny returned %v, want ErrNotConnected", err)
			}
		case <-time.After(closeRacePatience):
			t.Fatal("parked ReceiveAny hung across CloseReceive")
		}
	})
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
