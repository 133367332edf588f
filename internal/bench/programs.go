// Package bench implements the paper's four synthetic benchmarks —
// base, fcfs, broadcast and random (paper §4) — and assembles every
// figure of the evaluation section.
//
// Each benchmark is one program, written once against the process
// interface of internal/apps and run on either of its backends: natively
// (repro/mpf on goroutines, wall-clock throughput of the host) or on the
// simulated Balance 21000 (internal/simmpf, throughput at the paper's
// absolute scale). A figure only chooses the backend and its clock.
//
// Figure shapes are expected to agree between the two; absolute values
// agree only for the simulated runs (a modern machine is some four
// orders of magnitude faster than a 10 MHz NS32032).
package bench

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/apps"
	"repro/mpf"
)

// Each program runs once on r and returns the payload bytes its
// receivers took, which is what its figure's throughput counts.

// Base runs the base benchmark: one process with a loop-back connection
// alternates sending and receiving rounds messages of msgLen bytes. Its
// connections stay open: the run ends with its facility, as the paper's
// benchmark ends with its process.
func Base(r apps.Runner, msgLen, rounds int) (int, error) {
	if msgLen < 0 || rounds < 1 {
		return 0, fmt.Errorf("bench: base(msgLen=%d, rounds=%d)", msgLen, rounds)
	}
	err := r.Run(1, func(p apps.Proc) error {
		s, err := p.OpenSend("base")
		if err != nil {
			return err
		}
		in, err := p.OpenReceive("base", mpf.FCFS)
		if err != nil {
			return err
		}
		buf := make([]byte, msgLen)
		for range rounds {
			if err := s.Send(buf); err != nil {
				return err
			}
			if _, err := in.Receive(buf); err != nil {
				return err
			}
		}
		return nil
	})
	return msgLen * rounds, err
}

// Fanout runs the fcfs benchmark (proto FCFS) or the broadcast benchmark
// (proto Broadcast): processes 0..nRecv-1 receive, process nRecv sends
// msgs messages of msgLen bytes. Every receiver is connected before the
// first send — the paper's lifetime rule would otherwise delete the
// circuit, and its messages, at a last close (§3.2) — and then takes
// exactly its share: every message under BROADCAST, where each receiver
// gets its own copy (the paper's "effective throughput"), and msgs/nRecv
// of them, the first msgs%nRecv receivers one more, under FCFS.
func Fanout(r apps.Runner, proto mpf.Protocol, msgLen, nRecv, msgs int) (int, error) {
	if msgLen < 1 || nRecv < 1 || msgs < 1 || (proto == mpf.FCFS && nRecv > msgs) {
		return 0, fmt.Errorf("bench: fanout(%v, msgLen=%d, nRecv=%d, msgs=%d)", proto, msgLen, nRecv, msgs)
	}
	err := r.Run(nRecv+1, func(p apps.Proc) error {
		buf := make([]byte, msgLen)
		if p.PID() == nRecv {
			s, err := p.OpenSend("fan")
			if err != nil {
				return err
			}
			p.Barrier()
			for range msgs {
				if err := s.Send(buf); err != nil {
					return err
				}
			}
			return s.Close()
		}
		in, err := p.OpenReceive("fan", proto)
		if err != nil {
			return err
		}
		p.Barrier()
		share := msgs
		if proto == mpf.FCFS {
			share = msgs / nRecv
			if p.PID() < msgs%nRecv {
				share++
			}
		}
		for range share {
			if _, err := in.Receive(buf); err != nil {
				return err
			}
		}
		return in.Close()
	})
	if proto == mpf.Broadcast {
		return nRecv * msgs * msgLen, err
	}
	return msgs * msgLen, err
}

// Random runs the random benchmark: nProcs processes, fully connected by
// one FCFS inbox each; each sends msgsPerProc messages of msgLen bytes to
// destinations drawn uniformly from the others, draining its own inbox
// with check_receive after every send (paper §4). A send refused for
// want of memory (mpf.WithFailFastSend) drains and retries, so no cycle
// of full inboxes can stall the run. Once every process has sent, each
// drains its inbox to empty.
func Random(r apps.Runner, msgLen, nProcs, msgsPerProc int) (int, error) {
	if msgLen < 1 || nProcs < 2 || msgsPerProc < 1 {
		return 0, fmt.Errorf("bench: random(msgLen=%d, nProcs=%d, msgs=%d)", msgLen, nProcs, msgsPerProc)
	}
	inbox := func(pid int) string { return fmt.Sprintf("rand-%d", pid) }
	err := r.Run(nProcs, func(p apps.Proc) error {
		me := p.PID()
		in, err := p.OpenReceive(inbox(me), mpf.FCFS)
		if err != nil {
			return err
		}
		outs := make([]apps.SendConn, nProcs)
		for d := range outs {
			if d != me {
				if outs[d], err = p.OpenSend(inbox(d)); err != nil {
					return err
				}
			}
		}
		buf := make([]byte, msgLen)
		drain := func() error {
			for {
				ok, err := in.Check()
				if err != nil || !ok {
					return err
				}
				if _, err := in.Receive(buf); err != nil {
					return err
				}
			}
		}
		// Every inbox exists before anyone sends.
		p.Barrier()
		for range msgsPerProc {
			d := p.Rand().Intn(nProcs - 1)
			if d >= me {
				d++
			}
			for {
				err := outs[d].Send(buf)
				if err == nil {
					break
				}
				if !errors.Is(err, mpf.ErrNoMemory) {
					return err
				}
				if err := drain(); err != nil {
					return err
				}
				runtime.Gosched()
			}
			if err := drain(); err != nil {
				return err
			}
		}
		// Every message is queued once all have arrived here.
		p.Barrier()
		if err := drain(); err != nil {
			return err
		}
		if err := in.Close(); err != nil {
			return err
		}
		for d, out := range outs {
			if d != me {
				if err := out.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return nProcs * msgsPerProc * msgLen, err
}
