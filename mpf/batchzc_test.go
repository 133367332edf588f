package mpf

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestFacadeLoanBatchWaitViews is the facade roundtrip of the batched
// zero-copy pipeline: LoanBatch/CommitAll on the way in, Selector
// WaitViews + ReleaseViews on the way out, with the ledger showing no
// payload copy in either direction.
func TestFacadeLoanBatchWaitViews(t *testing.T) {
	fac, err := New(WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	const (
		producers = 3
		perProd   = 10
		msgLen    = 512
	)
	err = fac.Run(2, func(p *Process) error {
		if p.PID() == 0 {
			for c := 0; c < producers; c++ {
				s, err := p.OpenSend(fmt.Sprintf("wv-%d", c))
				if err != nil {
					return err
				}
				ns := make([]int, perProd)
				for i := range ns {
					ns[i] = msgLen
				}
				lb, err := s.LoanBatch(ns)
				if err != nil {
					return err
				}
				defer lb.AbortAll() // no-op once committed
				for i := 0; i < perProd; i++ {
					b, ok := lb.Bytes(i)
					if !ok {
						return errors.New("batch loan not contiguous under span allocation")
					}
					b[0], b[msgLen-1] = byte(c), byte(i)
				}
				if err := lb.CommitAll(); err != nil {
					return err
				}
			}
			return nil
		}
		sel, err := p.NewSelector()
		if err != nil {
			return err
		}
		defer sel.Close()
		byID := make(map[ID]int)
		next := make([]int, producers)
		for c := 0; c < producers; c++ {
			rc, err := p.OpenReceive(fmt.Sprintf("wv-%d", c), FCFS)
			if err != nil {
				return err
			}
			defer rc.Close()
			if err := sel.Add(rc); err != nil {
				return err
			}
			byID[rc.ID()] = c
		}
		got := 0
		for got < producers*perProd {
			views, err := sel.WaitViewsDeadline(8, 5*time.Second)
			if err != nil {
				return fmt.Errorf("after %d: %w", got, err)
			}
			if len(views) > 8 {
				return fmt.Errorf("budget exceeded: %d views", len(views))
			}
			for _, v := range views {
				c, ok := byID[v.Circuit()]
				if !ok {
					return fmt.Errorf("view from unknown circuit %d", v.Circuit())
				}
				b, ok := v.Bytes()
				if !ok {
					return errors.New("view not contiguous")
				}
				if len(b) != msgLen || b[0] != byte(c) || b[msgLen-1] != byte(next[c]) {
					return fmt.Errorf("circuit %d message %d corrupted", c, next[c])
				}
				next[c]++
				got++
			}
			ReleaseViews(views)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := fac.Stats()
	if want := uint64(producers * perProd); st.LoanBatchSends != want {
		t.Errorf("LoanBatchSends = %d, want %d", st.LoanBatchSends, want)
	}
	if want := uint64(producers * perProd); st.HarvestedViews != want {
		t.Errorf("HarvestedViews = %d, want %d", st.HarvestedViews, want)
	}
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		t.Errorf("copies in/out = %d/%d, want 0/0 on the batched zero-copy pipeline",
			st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
}

// TestWaitViewsLevelTrigger checks that a budget-limited WaitViews
// leaves the surplus armed for the next call at the facade level.
func TestWaitViewsLevelTrigger(t *testing.T) {
	fac, err := New(WithMaxProcesses(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p, _ := fac.Process(0)
	s, _ := p.OpenSend("lt")
	rc, _ := p.OpenReceive("lt", FCFS)
	sel, err := p.NewSelector()
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for seen < 5 {
		views, err := sel.WaitViewsDeadline(2, time.Second)
		if err != nil {
			t.Fatalf("after %d: %v", seen, err)
		}
		for _, v := range views {
			b := make([]byte, 2)
			if n := v.CopyTo(b); n != 1 || b[0] != byte(seen) {
				t.Fatalf("message %d out of order", seen)
			}
			seen++
			v.Release() // individual release also works on harvested views
		}
	}
	if _, err := sel.WaitViewsDeadline(2, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("drained WaitViews = %v, want ErrTimeout", err)
	}
}
