package mpf_test

import (
	"errors"
	"testing"
	"time"

	"repro/mpf"
)

func TestFacadeReceiveDeadline(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(2))
	p0, _ := f.Process(0)
	p1, _ := f.Process(1)
	s, _ := p0.OpenSend("fd")
	r, _ := p1.OpenReceive("fd", mpf.FCFS)

	if _, err := r.ReceiveDeadline(make([]byte, 4), 30*time.Millisecond); !errors.Is(err, mpf.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	s.Send([]byte("hi"))
	n, err := r.ReceiveDeadline(make([]byte, 4), time.Minute)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestFacadeTryReceive(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(2))
	p0, _ := f.Process(0)
	p1, _ := f.Process(1)
	s, _ := p0.OpenSend("ft")
	r, _ := p1.OpenReceive("ft", mpf.FCFS)
	if _, ok, err := r.TryReceive(make([]byte, 4)); ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	s.Send([]byte("x"))
	n, ok, err := r.TryReceive(make([]byte, 4))
	if !ok || err != nil || n != 1 {
		t.Fatalf("n=%d ok=%v err=%v", n, ok, err)
	}
}

func TestFacadeShutdownIdempotent(t *testing.T) {
	f, err := mpf.New(mpf.WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	f.Shutdown() // must not panic
	if _, err := f.Process(0); err != nil {
		t.Fatal(err) // binding still works; operations fail
	}
	p, _ := f.Process(0)
	if _, err := p.OpenSend("x"); !errors.Is(err, mpf.ErrShutdown) {
		t.Fatalf("open after shutdown: %v", err)
	}
}

func TestFacadeCoreAccessor(t *testing.T) {
	f := newFac(t)
	if f.Core() == nil {
		t.Fatal("Core() nil")
	}
	p, _ := f.Process(0)
	s, _ := p.OpenSend("acc2")
	if id, ok := f.Core().LNVCByName("acc2"); !ok || id != s.ID() {
		t.Fatalf("core lookup: id=%d ok=%v", id, ok)
	}
}

func TestFacadeErrMessageTooBig(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(1), mpf.WithBlockSize(16), mpf.WithBlocksPerProcess(4))
	p, _ := f.Process(0)
	s, _ := p.OpenSend("big")
	huge := make([]byte, 1<<20)
	if err := s.Send(huge); !errors.Is(err, mpf.ErrMessageTooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
}

func TestSelectorAcrossProtocols(t *testing.T) {
	// One FCFS and one Broadcast connection multiplexed by a Selector.
	f := newFac(t, mpf.WithMaxProcesses(2))
	p0, _ := f.Process(0)
	p1, _ := f.Process(1)
	sq, _ := p0.OpenSend("queue")
	sn, _ := p0.OpenSend("news")
	rq, _ := p1.OpenReceive("queue", mpf.FCFS)
	rn, _ := p1.OpenReceive("news", mpf.Broadcast)
	sel, err := p1.NewSelector()
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	for _, rc := range []*mpf.RecvConn{rq, rn} {
		if err := sel.Add(rc); err != nil {
			t.Fatal(err)
		}
	}

	sn.Send([]byte("broadcasted"))
	sq.Send([]byte("queued"))
	buf := make([]byte, 16)
	seen := map[string]bool{}
	for len(seen) < 2 {
		views, err := sel.WaitViewsDeadline(4, time.Second)
		if err != nil {
			t.Fatalf("after %v: %v", seen, err)
		}
		for _, v := range views {
			seen[string(buf[:v.CopyTo(buf)])] = true
		}
		mpf.ReleaseViews(views)
	}
	if !seen["broadcasted"] || !seen["queued"] {
		t.Fatalf("seen = %v", seen)
	}
}
