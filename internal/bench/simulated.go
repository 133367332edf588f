package bench

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/sim"
	"repro/internal/simmpf"
)

// Simulated runners: the same four benchmarks replayed on the Balance
// 21000 model. Throughputs come out at the paper's absolute scale.

// SimBase reruns the base benchmark on the machine model and returns
// bytes/second of simulated time.
func SimBase(m *balance.Machine, msgLen, rounds int) (float64, error) {
	if msgLen < 0 || rounds < 1 {
		return 0, fmt.Errorf("bench: SimBase(msgLen=%d, rounds=%d)", msgLen, rounds)
	}
	k := sim.NewKernel(1)
	f := simmpf.New(k, m)
	var elapsed sim.Time
	k.Spawn("base", func(p *sim.Proc) {
		s := f.OpenSend(p, "base")
		r := f.OpenReceive(p, "base", simmpf.FCFS)
		buf := make([]byte, msgLen)
		start := p.Now()
		for i := 0; i < rounds; i++ {
			f.Send(p, s, buf)
			f.Receive(p, r, buf)
		}
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	if elapsed <= 0 {
		return 0, fmt.Errorf("bench: SimBase produced no elapsed time")
	}
	return float64(msgLen*rounds) / elapsed, nil
}

// SimFCFS reruns the fcfs benchmark: one sender, nRecv FCFS receivers.
// Throughput counts transmitted bytes over the full simulated run.
func SimFCFS(m *balance.Machine, msgLen, nRecv, msgs int) (float64, error) {
	return simFanout(m, msgLen, nRecv, msgs, simmpf.FCFS)
}

// SimBroadcast reruns the broadcast benchmark; throughput counts
// delivered bytes (every receiver copies every message).
func SimBroadcast(m *balance.Machine, msgLen, nRecv, msgs int) (float64, error) {
	return simFanout(m, msgLen, nRecv, msgs, simmpf.Broadcast)
}

func simFanout(m *balance.Machine, msgLen, nRecv, msgs int, proto simmpf.Protocol) (float64, error) {
	if msgLen < 1 || nRecv < 1 || msgs < 1 {
		return 0, fmt.Errorf("bench: simFanout(msgLen=%d, nRecv=%d, msgs=%d)", msgLen, nRecv, msgs)
	}
	k := sim.NewKernel(1)
	f := simmpf.New(k, m)
	// Receivers spawn first and open their connections at t=0; the
	// sender starts after an instant so no retained-backlog path is
	// taken for broadcast receivers.
	perRecv := msgs
	if proto == simmpf.FCFS {
		if nRecv > msgs {
			return 0, fmt.Errorf("bench: %d receivers for %d messages", nRecv, msgs)
		}
		perRecv = 0 // FCFS receivers share the stream; counted below
	}
	fcfsShare := make([]int, nRecv)
	for i := 0; i < msgs; i++ {
		fcfsShare[i%nRecv]++
	}
	for i := 0; i < nRecv; i++ {
		i := i
		k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			c := f.OpenReceive(p, "fan", proto)
			want := perRecv
			if proto == simmpf.FCFS {
				want = fcfsShare[i]
			}
			buf := make([]byte, msgLen)
			for j := 0; j < want; j++ {
				f.Receive(p, c, buf)
			}
			f.CloseReceive(p, c)
		})
	}
	k.Spawn("sender", func(p *sim.Proc) {
		p.Advance(1e-6)
		s := f.OpenSend(p, "fan")
		buf := make([]byte, msgLen)
		for i := 0; i < msgs; i++ {
			f.Send(p, s, buf)
		}
		f.CloseSend(p, s)
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	_, bytes := f.Delivered()
	return float64(bytes) / k.Now(), nil
}

// randomRegionMsgsPerProc is the region sizing the simulated random
// benchmark assumes: the paper's init() pre-allocates for the worst
// case, so the mapped region grows with both process count and message
// size — the memory pressure behind Figure 6's paging knee.
const randomRegionMsgsPerProc = 600

// SimRandom reruns the random benchmark: nProcs fully connected
// processes, each sending msgsPerProc messages to random destinations
// and draining its inbox after every send. The machine's paging factor
// is engaged according to the run's memory footprint.
func SimRandom(m *balance.Machine, msgLen, nProcs, msgsPerProc int) (float64, error) {
	if msgLen < 1 || nProcs < 2 || msgsPerProc < 1 {
		return 0, fmt.Errorf("bench: SimRandom(msgLen=%d, nProcs=%d, msgs=%d)", msgLen, nProcs, msgsPerProc)
	}
	k := sim.NewKernel(7)
	f := simmpf.New(k, m)
	f.SetWorkload(nProcs, float64(nProcs*randomRegionMsgsPerProc*msgLen))

	inbox := func(pid int) string { return fmt.Sprintf("rand-%d", pid) }

	// A two-phase structure replaces the native atomic counter: all
	// processes open, send (draining as they go), then drain completely.
	// The sim barrier is a mutex+cond counter.
	mu := sim.NewMutex(k)
	cond := sim.NewCond(mu)
	arrived := 0
	phase := 0
	barrier := func(p *sim.Proc) {
		mu.Lock(p)
		arrived++
		if arrived == nProcs {
			arrived = 0
			phase++
			cond.Broadcast(p)
		} else {
			myPhase := phase
			for phase == myPhase {
				cond.Wait(p)
			}
		}
		mu.Unlock(p)
	}

	for w := 0; w < nProcs; w++ {
		w := w
		k.Spawn(fmt.Sprintf("proc%d", w), func(p *sim.Proc) {
			in := f.OpenReceive(p, inbox(w), simmpf.FCFS)
			outs := make([]*simmpf.Circuit, nProcs)
			for d := 0; d < nProcs; d++ {
				if d != w {
					outs[d] = f.OpenSend(p, inbox(d))
				}
			}
			buf := make([]byte, msgLen)
			drain := func() {
				for f.Check(p, in) {
					f.Receive(p, in, buf)
				}
			}
			barrier(p)
			for i := 0; i < msgsPerProc; i++ {
				d := k.Rand().Intn(nProcs - 1)
				if d >= w {
					d++
				}
				f.Send(p, outs[d], buf)
				drain()
			}
			barrier(p)
			drain()
			f.CloseReceive(p, in)
			for d := 0; d < nProcs; d++ {
				if d != w {
					f.CloseSend(p, outs[d])
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	_, bytes := f.Delivered()
	return float64(bytes) / k.Now(), nil
}
