package mpf

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSelectorEventLoop is the facade's many-producers/one-event-loop
// round trip: every producer's stream is drained by a single goroutine
// multiplexing all circuits through one Selector.
func TestSelectorEventLoop(t *testing.T) {
	const (
		producers = 6
		perProd   = 150
	)
	fac, err := New(WithMaxProcesses(producers+1), WithMaxLNVCs(producers+4),
		WithBlocksPerProcess(512))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()

	var got [producers]int64
	err = fac.Run(producers+1, func(p *Process) error {
		if p.PID() < producers { // producer
			// No handshake needed: messages sent before the event loop
			// joins are retained and inherited by the first receiver
			// (retention rule 5). The send connection stays open until
			// Shutdown, keeping the circuit alive across the gap.
			s, err := p.OpenSend(fmt.Sprintf("work-%d", p.PID()))
			if err != nil {
				return err
			}
			for k := 0; k < perProd; k++ {
				if err := s.Send([]byte{byte(p.PID()), byte(k)}); err != nil {
					return err
				}
			}
			return nil
		}
		// Event loop: drain every producer circuit through one Selector.
		sel, err := p.NewSelector()
		if err != nil {
			return err
		}
		defer sel.Close()
		conns := make(map[*RecvConn]int, producers)
		for i := 0; i < producers; i++ {
			rc, err := p.OpenReceive(fmt.Sprintf("work-%d", i), FCFS)
			if err != nil {
				return err
			}
			if err := sel.Add(rc); err != nil {
				return err
			}
			conns[rc] = i
		}
		if sel.Len() != producers {
			return fmt.Errorf("selector has %d circuits, want %d", sel.Len(), producers)
		}
		buf := make([]byte, 4)
		total := 0
		for total < producers*perProd {
			ready, err := sel.Wait()
			if err != nil {
				return fmt.Errorf("after %d messages: %w", total, err)
			}
			if len(ready) == 0 {
				return errors.New("Wait returned no ready connections and no error")
			}
			for _, rc := range ready {
				for {
					_, ok, err := rc.TryReceive(buf)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					atomic.AddInt64(&got[conns[rc]], 1)
					total++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != perProd {
			t.Errorf("producer %d: event loop drained %d messages, want %d", i, got[i], perProd)
		}
	}
}

func TestSelectorFacadeValidation(t *testing.T) {
	fac, err := New(WithMaxProcesses(4))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p0, _ := fac.Process(0)
	p1, _ := fac.Process(1)
	rc, err := p1.OpenReceive("v", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p0.NewSelector()
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	// Foreign process's connection.
	if err := sel.Add(rc); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("foreign add: %v", err)
	}
	sel1, _ := p1.NewSelector()
	defer sel1.Close()
	if err := sel1.Add(rc); err != nil {
		t.Fatal(err)
	}
	if err := sel1.Add(rc); !errors.Is(err, ErrAlreadyOpen) {
		t.Fatalf("duplicate add: %v", err)
	}
	if _, err := sel1.WaitDeadline(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline: %v", err)
	}
	if err := sel1.Remove(rc); err != nil {
		t.Fatal(err)
	}
	if err := sel1.Remove(rc); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("double remove: %v", err)
	}
	if err := sel1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sel1.Add(rc); !errors.Is(err, ErrSelectorClosed) {
		t.Fatalf("add after close: %v", err)
	}
}

// TestSelectorConnectionClosedWhileParked checks the facade surfaces
// the close race as ErrNotConnected and prunes the dead entry.
func TestSelectorConnectionClosedWhileParked(t *testing.T) {
	fac, err := New(WithMaxProcesses(4))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p0, _ := fac.Process(0)
	p1, _ := fac.Process(1)
	if _, err := p0.OpenSend("cr"); err != nil {
		t.Fatal(err)
	}
	rc, err := p1.OpenReceive("cr", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := p1.NewSelector()
	defer sel.Close()
	if err := sel.Add(rc); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := sel.Wait()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotConnected) {
			t.Fatalf("parked Wait returned %v, want ErrNotConnected", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked Selector.Wait hung across connection close")
	}
	if sel.Len() != 0 {
		t.Fatalf("dead registration survived: len=%d", sel.Len())
	}
}

// TestWaitViewsInvalidBudget: a non-positive WaitViews budget is an
// error, from both the blocking and the deadline form.
func TestWaitViewsInvalidBudget(t *testing.T) {
	fac, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p, _ := fac.Process(0)
	q, _ := fac.Process(1)
	if _, err := p.OpenSend("inv"); err != nil {
		t.Fatal(err)
	}
	rc, err := q.OpenReceive("inv", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := q.NewSelector()
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rc); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.WaitViews(0); err == nil {
		t.Fatal("WaitViews(0) succeeded")
	}
	if _, err := sel.WaitViewsDeadline(-1, time.Second); err == nil {
		t.Fatal("WaitViewsDeadline(-1) succeeded")
	}
	if sel.Len() != 1 {
		t.Fatalf("an invalid budget dropped the registration: %d circuits left", sel.Len())
	}
}
