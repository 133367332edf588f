package mpf

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestFacadeLoanViewRoundtrip(t *testing.T) {
	fac, err := New(WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan error, 1)
	err = fac.Run(2, func(p *Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("zc")
			if err != nil {
				return err
			}
			ln, err := s.Loan(len(payload))
			if err != nil {
				return err
			}
			defer ln.Abort() // no-op after Commit
			b, ok := ln.Bytes()
			if !ok {
				return errors.New("loan not contiguous under span allocation")
			}
			copy(b, payload)
			if err := ln.Commit(); err != nil {
				return err
			}
			return <-done // hold the circuit open until the reader is done
		}
		r, err := p.OpenReceive("zc", FCFS)
		if err != nil {
			return err
		}
		defer func() { done <- r.Close() }()
		v, err := r.ReceiveView()
		if err != nil {
			return err
		}
		defer v.Release()
		b, ok := v.Bytes()
		if !ok {
			return errors.New("view not contiguous under span allocation")
		}
		if !bytes.Equal(b, payload) {
			return errors.New("view shows wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := fac.Stats()
	if st.LoanSends != 1 || st.ViewReceives != 1 {
		t.Errorf("LoanSends=%d ViewReceives=%d, want 1 and 1", st.LoanSends, st.ViewReceives)
	}
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		t.Errorf("copies in/out = %d/%d, want 0/0 on the zero-copy plane",
			st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
}

// TestBroadcastFanOutZeroReceiveCopies is the acceptance check for the
// zero-copy receive plane: eight BROADCAST receivers consume the same
// stream of 4 KiB loans through views and the facility's copy ledger
// stays at zero — one shared payload instance, not eight copies. The
// same traffic over Send and Receive pays one receive copy per receiver
// per message, the bill the views erase.
func TestBroadcastFanOutZeroReceiveCopies(t *testing.T) {
	const (
		nRecv = 8
		nMsgs = 200
	)
	st := broadcastFanOut(t, nRecv, nMsgs, true)
	if st.PayloadCopiesOut != 0 {
		t.Errorf("PayloadCopiesOut = %d, want 0: BROADCAST fan-out must not copy", st.PayloadCopiesOut)
	}
	if st.PayloadCopiesIn != 0 {
		t.Errorf("PayloadCopiesIn = %d, want 0: loans must not copy", st.PayloadCopiesIn)
	}
	if want := uint64(nRecv * nMsgs); st.ViewReceives != want {
		t.Errorf("ViewReceives = %d, want %d", st.ViewReceives, want)
	}
	if st.LoanSends != nMsgs {
		t.Errorf("LoanSends = %d, want %d", st.LoanSends, nMsgs)
	}
	st = broadcastFanOut(t, nRecv, nMsgs, false)
	if want := uint64(nRecv * nMsgs); st.PayloadCopiesOut != want {
		t.Errorf("Send/Receive: PayloadCopiesOut = %d, want %d", st.PayloadCopiesOut, want)
	}
}

// broadcastFanOut sends nMsgs stamped 4 KiB messages to nRecv BROADCAST
// receivers, through loans and views or through Send and Receive, and
// returns the facility's counters.
func broadcastFanOut(t *testing.T, nRecv, nMsgs int, views bool) Stats {
	t.Helper()
	const size = 4096
	fac, err := New(WithMaxProcesses(nRecv + 1))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()

	var ready, drained sync.WaitGroup
	ready.Add(nRecv)
	drained.Add(nRecv)
	err = fac.Run(nRecv+1, func(p *Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("fan")
			if err != nil {
				return err
			}
			ready.Wait() // every receiver connected: all see the stream
			payload := make([]byte, size)
			for i := 0; i < nMsgs; i++ {
				if !views {
					payload[0], payload[size-1] = byte(i), byte(i)
					if err := s.Send(payload); err != nil {
						return err
					}
					continue
				}
				ln, err := s.Loan(size)
				if err != nil {
					return err
				}
				b, ok := ln.Bytes()
				if !ok {
					return errors.New("loan not contiguous")
				}
				for j := range b {
					b[j] = byte(i)
				}
				if err := ln.Commit(); err != nil {
					return err
				}
			}
			drained.Wait()
			return s.Close()
		}
		r, err := p.OpenReceive("fan", Broadcast)
		if err != nil {
			return err
		}
		ready.Done()
		buf := make([]byte, size)
		for i := 0; i < nMsgs; i++ {
			if !views {
				n, err := r.Receive(buf)
				if err != nil {
					return err
				}
				if n != size || buf[0] != byte(i) || buf[size-1] != byte(i) {
					return errors.New("receive shows wrong message")
				}
				continue
			}
			v, err := r.ReceiveView()
			if err != nil {
				return err
			}
			b, ok := v.Bytes()
			if !ok {
				v.Release()
				return errors.New("view not contiguous")
			}
			if len(b) != size || b[0] != byte(i) || b[size-1] != byte(i) {
				v.Release()
				return errors.New("view shows wrong message")
			}
			v.Release()
		}
		drained.Done()
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return fac.Stats()
}

// TestWriterRidesTheLoanPlane pins the Writer rebase: single-chunk
// writes go out as loans, the caller's bytes written in place — no
// ledger-counted payload copy, not Send's build-and-copy.
func TestWriterRidesTheLoanPlane(t *testing.T) {
	fac, err := New(WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p, _ := fac.Process(0)
	s, err := p.OpenSend("stream")
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := fac.Process(1)
	r, err := rp.OpenReceive("stream", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(s, 1024)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	st := fac.Stats()
	if st.LoanSends != 1 {
		t.Errorf("LoanSends = %d, want 1 (Writer chunk rides the loan plane)", st.LoanSends)
	}
	if st.PayloadCopiesIn != 0 {
		t.Errorf("PayloadCopiesIn = %d, want 0 (the chunk is produced in place, not copied)", st.PayloadCopiesIn)
	}
	buf := make([]byte, 2048)
	n, err := r.Receive(buf)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("stream payload corrupted: n=%d err=%v", n, err)
	}
}

func TestLoanAbortKeepsFacadeUsable(t *testing.T) {
	fac, err := New(WithMaxProcesses(1), WithBlocksPerProcess(16))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p, _ := fac.Process(0)
	s, err := p.OpenSend("ab")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.OpenReceive("ab", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	// Abort every loan: no blocks may leak, and the region stays usable.
	for i := 0; i < 100; i++ {
		ln, err := s.Loan(512)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		ln.Abort()
		if err := ln.Commit(); !errors.Is(err, ErrLoanDone) {
			t.Fatalf("iter %d: Commit after Abort = %v", i, err)
		}
	}
	if err := s.Send([]byte("still works")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := r.Receive(buf); err != nil || string(buf[:n]) != "still works" {
		t.Fatalf("post-abort receive: %q, %v", buf[:n], err)
	}
}

// TestFacadePayloadsLineAligned holds the layout rule where callers see
// it: every contiguous window the facade hands out — a loan's, a batch
// loan's, a received view's — starts on a 64-byte boundary, at the
// default block size and at a larger one, so typed and vector access to
// a payload needs no fix-up.
func TestFacadePayloadsLineAligned(t *testing.T) {
	aligned := func(t *testing.T, what string, b []byte, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s is not contiguous", what)
		}
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(b))); addr%64 != 0 {
			t.Errorf("%s starts at %#x, want a 64-byte boundary", what, addr)
		}
	}
	for name, opts := range map[string][]Option{"default": nil, "block512": {WithBlockSize(512)}} {
		t.Run(name, func(t *testing.T) {
			fac, err := New(append(opts, WithMaxProcesses(2))...)
			if err != nil {
				t.Fatal(err)
			}
			defer fac.Shutdown()
			sp, _ := fac.Process(0)
			rp, _ := fac.Process(1)
			s, err := sp.OpenSend("aligned")
			if err != nil {
				t.Fatal(err)
			}
			r, err := rp.OpenReceive("aligned", FCFS)
			if err != nil {
				t.Fatal(err)
			}
			sizes := []int{1, 60, 61, 1000, 16384}
			drain := func() {
				t.Helper()
				for range sizes {
					v, err := r.ReceiveView()
					if err != nil {
						t.Fatal(err)
					}
					b, ok := v.Bytes()
					aligned(t, fmt.Sprintf("View.Bytes of %d bytes", v.Len()), b, ok)
					v.Release()
				}
			}
			for _, n := range sizes {
				ln, err := s.Loan(n)
				if err != nil {
					t.Fatal(err)
				}
				b, ok := ln.Bytes()
				aligned(t, fmt.Sprintf("Loan(%d).Bytes", n), b, ok)
				if err := ln.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			drain()
			lb, err := s.LoanBatch(sizes)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range sizes {
				b, ok := lb.Bytes(i)
				aligned(t, fmt.Sprintf("LoanBatch.Bytes(%d) of %d bytes", i, n), b, ok)
			}
			if err := lb.CommitAll(); err != nil {
				t.Fatal(err)
			}
			drain()
		})
	}
}
