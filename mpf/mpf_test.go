package mpf_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/proc"
	"repro/mpf"
)

func newFac(t *testing.T, opts ...mpf.Option) *mpf.Facility {
	t.Helper()
	f, err := mpf.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func TestQuickstartFlow(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(2))
	var got []byte
	err := f.Run(2, func(p *mpf.Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("greetings")
			if err != nil {
				return err
			}
			// Deliberately not closed: the circuit must outlive the
			// sender so a receiver scheduled later still finds the
			// message (see the package comment on circuit lifetime).
			return s.Send([]byte("hello"))
		}
		r, err := p.OpenReceive("greetings", mpf.FCFS)
		if err != nil {
			return err
		}
		defer r.Close()
		buf := make([]byte, 64)
		n, err := r.Receive(buf)
		got = append(got, buf[:n]...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	// The sender's connection is still open by design, so exactly one
	// circuit survives until Shutdown.
	if f.CircuitCount() != 1 {
		t.Fatalf("CircuitCount = %d, want 1", f.CircuitCount())
	}
}

func TestProcessValidation(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(4))
	if _, err := f.Process(-1); !errors.Is(err, mpf.ErrBadProcess) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Process(4); !errors.Is(err, mpf.ErrBadProcess) {
		t.Fatalf("err = %v", err)
	}
	if err := f.Run(5, func(*mpf.Process) error { return nil }); !errors.Is(err, mpf.ErrBadProcess) {
		t.Fatalf("oversized Run: %v", err)
	}
	if err := f.Run(0, func(*mpf.Process) error { return nil }); err == nil {
		t.Fatal("zero-size Run accepted")
	}
}

func TestConnectionAccessors(t *testing.T) {
	f := newFac(t)
	p, _ := f.Process(0)
	s, err := p.OpenSend("acc")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.OpenReceive("acc", mpf.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "acc" || r.Name() != "acc" {
		t.Fatal("names wrong")
	}
	if s.ID() != r.ID() {
		t.Fatal("same circuit, different ids")
	}
	if r.Protocol() != mpf.Broadcast {
		t.Fatal("protocol wrong")
	}
	if p.PID() != 0 || p.Facility() != f {
		t.Fatal("process accessors wrong")
	}
}

func TestWorkQueuePattern(t *testing.T) {
	// N workers share an FCFS circuit as a work queue; a master sends
	// jobs and collects results on a second circuit. The master waits
	// for every worker's ready announcement before queueing jobs:
	// without the handshake a fast worker could drain the queue —
	// poisons included — and close, deleting the circuit and dropping
	// the slow workers' poisons (the paper's §3.2 lost-message
	// scenario).
	const nWorkers, nJobs = 4, 64
	f := newFac(t, mpf.WithMaxProcesses(nWorkers+1))
	results := make([]bool, nJobs)
	var mu sync.Mutex
	err := f.Run(nWorkers+1, func(p *mpf.Process) error {
		if p.PID() == 0 { // master
			jobs, err := p.OpenSend("jobs")
			if err != nil {
				return err
			}
			defer jobs.Close()
			done, err := p.OpenReceive("done", mpf.FCFS)
			if err != nil {
				return err
			}
			defer done.Close()
			buf := make([]byte, 1)
			for w := 0; w < nWorkers; w++ { // ready handshake
				if _, err := done.Receive(buf); err != nil {
					return err
				}
			}
			for j := 0; j < nJobs; j++ {
				if err := jobs.Send([]byte{byte(j)}); err != nil {
					return err
				}
			}
			for j := 0; j < nJobs; j++ {
				if _, err := done.Receive(buf); err != nil {
					return err
				}
				mu.Lock()
				if results[buf[0]] {
					mu.Unlock()
					return fmt.Errorf("job %d completed twice", buf[0])
				}
				results[buf[0]] = true
				mu.Unlock()
			}
			// Poison the queue so workers exit.
			for w := 0; w < nWorkers; w++ {
				if err := jobs.Send([]byte{0xFF}); err != nil {
					return err
				}
			}
			return nil
		}
		// worker
		jobs, err := p.OpenReceive("jobs", mpf.FCFS)
		if err != nil {
			return err
		}
		defer jobs.Close()
		done, err := p.OpenSend("done")
		if err != nil {
			return err
		}
		defer done.Close()
		if err := done.Send([]byte{0xFE}); err != nil { // ready
			return err
		}
		buf := make([]byte, 1)
		for {
			if _, err := jobs.Receive(buf); err != nil {
				return err
			}
			if buf[0] == 0xFF {
				return nil
			}
			if err := done.Send(buf); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, ok := range results {
		if !ok {
			t.Fatalf("job %d never completed", j)
		}
	}
}

func TestLecturePattern(t *testing.T) {
	// One lecturer broadcasts; every listener hears the whole lecture in
	// order — the paper's "lecture" conversation type.
	const nListeners, nSlides = 5, 30
	f := newFac(t, mpf.WithMaxProcesses(nListeners+1))
	err := f.Run(nListeners+1, func(p *mpf.Process) error {
		if p.PID() == 0 {
			lecture, err := p.OpenSend("lecture")
			if err != nil {
				return err
			}
			defer lecture.Close()
			// Wait for everyone to be seated: listeners announce
			// themselves on a side circuit.
			seated, err := p.OpenReceive("seated", mpf.FCFS)
			if err != nil {
				return err
			}
			defer seated.Close()
			buf := make([]byte, 1)
			for i := 0; i < nListeners; i++ {
				if _, err := seated.Receive(buf); err != nil {
					return err
				}
			}
			for s := 0; s < nSlides; s++ {
				if err := lecture.Send([]byte{byte(s)}); err != nil {
					return err
				}
			}
			return nil
		}
		lecture, err := p.OpenReceive("lecture", mpf.Broadcast)
		if err != nil {
			return err
		}
		defer lecture.Close()
		seat, err := p.OpenSend("seated")
		if err != nil {
			return err
		}
		// Keep the seat connection open until the lecture ends: closing
		// right after sending could delete the circuit — dropping the
		// announcement — if the lecturer has not opened its receive
		// side yet (§3.2 lost-message scenario).
		defer seat.Close()
		if err := seat.Send([]byte{byte(p.PID())}); err != nil {
			return err
		}
		buf := make([]byte, 1)
		for s := 0; s < nSlides; s++ {
			if _, err := lecture.Receive(buf); err != nil {
				return err
			}
			if buf[0] != byte(s) {
				return fmt.Errorf("listener %d: slide %d got %d", p.PID(), s, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeMessageRoundtrip(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(2), mpf.WithBlocksPerProcess(2048))
	payload := make([]byte, 32*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// The sender closes right after its send; without the barrier it can
	// open, send and close before the receiver joins, deleting the
	// circuit and dropping the message (the paper's §3.2 lost-message
	// scenario) — the receiver would then block forever.
	bar, err := proc.NewBarrier(2)
	if err != nil {
		t.Fatal(err)
	}
	err = f.Run(2, func(p *mpf.Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("big")
			if err != nil {
				return err
			}
			defer s.Close()
			bar.Wait()
			return s.Send(payload)
		}
		r, err := p.OpenReceive("big", mpf.FCFS)
		if err != nil {
			return err
		}
		defer r.Close()
		bar.Wait()
		buf := make([]byte, len(payload))
		n, err := r.Receive(buf)
		if err != nil {
			return err
		}
		if n != len(payload) || !bytes.Equal(buf, payload) {
			return errors.New("large payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOptionsApply(t *testing.T) {
	f := newFac(t,
		mpf.WithMaxLNVCs(3),
		mpf.WithMaxProcesses(7),
		mpf.WithBlockSize(10), // the paper's block size
		mpf.WithBlocksPerProcess(16),
		mpf.WithFailFastSend(),
	)
	if f.MaxProcesses() != 7 {
		t.Fatalf("MaxProcesses = %d", f.MaxProcesses())
	}
	p, _ := f.Process(0)
	for i := 0; i < 3; i++ {
		if _, err := p.OpenSend(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.OpenSend("c3"); !errors.Is(err, mpf.ErrTooManyLNVCs) {
		t.Fatalf("err = %v, want ErrTooManyLNVCs", err)
	}
	// FailFast: a send exceeding the region must not block. A second
	// process joins an existing circuit for the check (the first
	// already holds the send connections).
	p2, err := f.Process(1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p2.OpenSend("c1")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 7*16*10*2)
	if err := sc.Send(big); err == nil {
		t.Fatal("oversized fail-fast send succeeded")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	var events []mpf.Event
	tr := tracerFunc(func(ev mpf.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	f := newFac(t, mpf.WithTracer(tr), mpf.WithMaxProcesses(2))
	p, _ := f.Process(0)
	s, _ := p.OpenSend("tr")
	r, _ := p.OpenReceive("tr", mpf.FCFS)
	s.Send([]byte("x"))
	r.Receive(make([]byte, 1))
	r.Check()
	s.Close()
	r.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 7 {
		t.Fatalf("traced %d events, want 7", len(events))
	}
	wantOps := []string{"open_send", "open_receive", "message_send", "message_receive", "check_receive", "close_send", "close_receive"}
	for i, ev := range events {
		if ev.Op.String() != wantOps[i] {
			t.Fatalf("event %d = %v, want %s", i, ev.Op, wantOps[i])
		}
	}
}

type tracerFunc func(mpf.Event)

func (f tracerFunc) Trace(ev mpf.Event) { f(ev) }

func TestCircuitIntrospection(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(3))
	p0, _ := f.Process(0)
	p1, _ := f.Process(1)
	p2, _ := f.Process(2)
	s, _ := p0.OpenSend("insp")
	p1.OpenReceive("insp", mpf.FCFS)
	p2.OpenReceive("insp", mpf.Broadcast)
	s.Send([]byte("one"))
	s.Send([]byte("two"))

	info, ok := f.Circuit("insp")
	if !ok {
		t.Fatal("circuit not found")
	}
	if info.Name != "insp" || info.Senders != 1 || info.FCFSRecvs != 1 || info.BcastRecvs != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.QueuedMsgs != 2 {
		t.Fatalf("QueuedMsgs = %d, want 2", info.QueuedMsgs)
	}
	if info.ReceiverProto[1] != mpf.FCFS || info.ReceiverProto[2] != mpf.Broadcast {
		t.Fatalf("protocols = %v", info.ReceiverProto)
	}
	if _, ok := f.Circuit("nonexistent"); ok {
		t.Fatal("phantom circuit")
	}
}

func TestStatsExposed(t *testing.T) {
	f := newFac(t, mpf.WithMaxProcesses(2))
	p, _ := f.Process(0)
	s, _ := p.OpenSend("st")
	s.Send(make([]byte, 100))
	st := f.Stats()
	if st.Sends != 1 || st.BytesSent != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBarrierHelper(t *testing.T) {
	b, err := proc.NewBarrier(3)
	if err != nil {
		t.Fatal(err)
	}
	f := newFac(t, mpf.WithMaxProcesses(3))
	if err := f.Run(3, func(p *mpf.Process) error {
		for i := 0; i < 5; i++ {
			b.Wait()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.NewBarrier(0); err == nil {
		t.Fatal("NewBarrier(0) accepted")
	}
}
