package core

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"
)

// processCPU is the CPU time, user and system, the whole process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleFacilityCostsNoCPU parks one of each kind of receiver — a
// Receive on its circuit and a Selector harvest — behind
// senders that stay silent, and holds the whole process to at most 5 %
// of one CPU over a second: every park sleeps, none polls.
func TestIdleFacilityCostsNoCPU(t *testing.T) {
	f := newFac(t)
	var ids [2]ID
	for i, name := range []string{"idle-r", "idle-s"} {
		if _, err := f.OpenSend(0, name); err != nil {
			t.Fatal(err)
		}
		var err error
		if ids[i], err = f.OpenReceive(i+1, name, FCFS); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := f.NewSelector(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sel.Add(ids[1]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	park := func(what string, wait func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wait(); !errors.Is(err, ErrShutdown) {
				t.Errorf("parked %s returned %v, want ErrShutdown", what, err)
			}
		}()
	}
	park("Receive", func() error {
		_, err := f.Receive(1, ids[0], make([]byte, 64))
		return err
	})
	park("HarvestViews", func() error {
		_, err := sel.HarvestViews(8)
		return err
	})
	parkedIn(t, "core.(*Facility).waitClaim")
	parkedIn(t, "core.(*Selector).rounds")

	const idle = time.Second
	before := processCPU(t)
	time.Sleep(idle)
	if used := processCPU(t) - before; used > idle/20 {
		t.Errorf("an idle facility used %v of CPU in %v, want at most %v", used, idle, idle/20)
	}
	f.Shutdown()
	wg.Wait()
}
