package bench

import (
	"fmt"
	"sync"
	"testing"

	"repro/mpf"
)

// TestBroadcastFanOutNoReceiveCopies holds the copy bill of the
// broadcast benchmark's fan-out: 200 x 4 KiB messages to 8 BROADCAST
// receivers over loans and views perform zero payload copies on either
// side — every receiver reads the one shared payload instance — while
// the same traffic over Send and Receive, as Figure 5 runs it, pays one
// receive copy per receiver per message. Asserted through the
// facility's copy ledger.
func TestBroadcastFanOutNoReceiveCopies(t *testing.T) {
	const (
		fanout = 8
		msgs   = 200
		size   = 4096
	)
	st, err := broadcastCopies(size, fanout, msgs, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.PayloadCopiesOut != 0 {
		t.Errorf("PayloadCopiesOut = %d, want 0", st.PayloadCopiesOut)
	}
	if st.PayloadCopiesIn != 0 {
		t.Errorf("PayloadCopiesIn = %d, want 0", st.PayloadCopiesIn)
	}
	if want := uint64(fanout * msgs); st.ViewReceives != want {
		t.Errorf("ViewReceives = %d, want %d", st.ViewReceives, want)
	}
	if want := uint64(msgs); st.LoanSends != want {
		t.Errorf("LoanSends = %d, want %d", st.LoanSends, want)
	}
	// The copying path on the identical workload pays fanout copies per
	// message — the bill the views erase.
	st, err = broadcastCopies(size, fanout, msgs, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(fanout * msgs); st.PayloadCopiesOut != want {
		t.Errorf("Send/Receive PayloadCopiesOut = %d, want %d", st.PayloadCopiesOut, want)
	}
}

// broadcastCopies moves msgs messages of msgLen bytes from one sender to
// fanout BROADCAST receivers, through loans and views or through Send
// and Receive, and returns the facility's counters. Receivers check a
// stamped byte at each end of every payload.
func broadcastCopies(msgLen, fanout, msgs int, views bool) (mpf.Stats, error) {
	fac, err := mpf.New(mpf.WithMaxProcesses(fanout+1), mpf.WithMaxLNVCs(4),
		mpf.WithBlocksPerProcess(blocksFor(msgLen, 16)))
	if err != nil {
		return mpf.Stats{}, err
	}
	defer fac.Shutdown()

	var ready, drained sync.WaitGroup
	ready.Add(fanout)
	drained.Add(fanout)
	err = fac.Run(fanout+1, func(p *mpf.Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("copies")
			if err != nil {
				return err
			}
			defer s.Close()
			ready.Wait() // every receiver connected: all see the stream
			payload := make([]byte, msgLen)
			for i := 0; i < msgs; i++ {
				if !views {
					payload[0], payload[msgLen-1] = byte(i), byte(i)
					if err := s.Send(payload); err != nil {
						return err
					}
					continue
				}
				ln, err := s.Loan(msgLen)
				if err != nil {
					return err
				}
				b, ok := ln.Bytes()
				if !ok {
					ln.Abort()
					return fmt.Errorf("bench: loan of %d bytes not contiguous", msgLen)
				}
				b[0], b[msgLen-1] = byte(i), byte(i)
				if err := ln.Commit(); err != nil {
					return err
				}
			}
			drained.Wait() // hold the circuit open until every receiver is done
			return nil
		}
		r, err := p.OpenReceive("copies", mpf.Broadcast)
		if err != nil {
			return err
		}
		defer r.Close()
		defer drained.Done()
		ready.Done()
		buf := make([]byte, msgLen)
		for i := 0; i < msgs; i++ {
			if !views {
				n, err := r.Receive(buf)
				if err != nil {
					return err
				}
				if n != msgLen || buf[0] != byte(i) || buf[msgLen-1] != byte(i) {
					return fmt.Errorf("bench: receiver %d: bad payload at msg %d", p.PID(), i)
				}
				continue
			}
			v, err := r.ReceiveView()
			if err != nil {
				return err
			}
			b, ok := v.Bytes()
			good := ok && b[0] == byte(i) && b[msgLen-1] == byte(i)
			v.Release()
			if !good {
				return fmt.Errorf("bench: receiver %d: bad view at msg %d", p.PID(), i)
			}
		}
		return nil
	})
	if err != nil {
		return mpf.Stats{}, err
	}
	return fac.Stats(), nil
}
