package main

import "time"

// The closed-loop workloads: pingpong_64, stream_64, stream_16k and
// fanout_1k. All copy payloads through Send and Receive, the paper's
// plane.

type closedKind int

const (
	pingpong closedKind = iota // two circuits, one message in flight
	stream                     // one sender, one FCFS receiver
	fanout                     // stream plus a BROADCAST receiver on the same circuit
)

type closedInst struct {
	kind closedKind
	size int
	fac  *facility
	pat  *pattern
	bufs [][]byte // one ready payload per pattern variant
	free int      // arena blocks free before the first repetition
	lat  []uint32
}

func openClosed(kind closedKind, size int, seed int64) (instance, error) {
	procs := 2
	if kind == fanout {
		procs = 3 // the receiving goroutine owns pids 1 and 2
	}
	fac, err := newFacility(procs, size)
	if err != nil {
		return nil, err
	}
	pat := newPattern(seed, size)
	return &closedInst{
		kind: kind, size: size, fac: fac, pat: pat,
		bufs: pat.sendBuffers(size),
		free: readCounters(fac, nil).freeBlocks,
	}, nil
}

func (in *closedInst) close() error {
	in.fac.Shutdown()
	return nil
}

// exchange is the state the two goroutines of one repetition share.
type exchange struct {
	k     counts
	tr    *tracer
	bar   *barrier
	epoch time.Time
	// Latency phase: the receiver hands the sender its turn, so that both
	// park between messages as the two sides of pingpong_64 do.
	turn chan struct{}

	// Written by one goroutine, read after Run returns.
	wall, cpu time.Duration
	verifiers [2]*verifier
}

func (in *closedInst) rep(k counts, tr *tracer) (repResult, error) {
	x := &exchange{k: k, tr: tr, bar: newBarrier(), epoch: time.Now(), turn: make(chan struct{})}
	samples := k.lat
	if in.kind == pingpong {
		samples = k.thr // it times every round trip
	}
	if cap(in.lat) < samples {
		in.lat = make([]uint32, 0, samples)
	}
	in.lat = in.lat[:0]
	before := readCounters(in.fac, nil)
	body := in.streamBody
	if in.kind == pingpong {
		body = in.pingpongBody
	}
	err := runPair(in.fac, x.bar, func(p *process) error { return body(p, x) })
	if err != nil {
		return repResult{}, err
	}
	res := repResult{wall: x.wall, cpu: x.cpu, lat: in.lat}
	copies := 2 // one in, one out
	switch in.kind {
	case pingpong:
		res.sends = 2 * int64(k.thr)
		res.deliveries = res.sends
	case stream:
		res.sends = int64(k.thr + k.lat)
		res.deliveries = int64(k.thr)
	case fanout:
		res.sends = int64(k.thr + k.lat)
		res.deliveries = 2 * int64(k.thr)
		copies = 3 // one in, one out per receiver
	}
	res.attempted = res.sends
	for _, v := range x.verifiers {
		if v != nil {
			res.merge(v)
		}
	}
	res.c = readCounters(in.fac, nil).sub(before)
	return res, checkLedger(res.c, res.sends, copies, in.free, 0)
}

// pingpongBody: process 0 sends on "ping" and waits for the answer on
// "pong"; process 1 answers each message. One clock reading per round
// trip gives the RTT samples.
func (in *closedInst) pingpongBody(p *process, x *exchange) error {
	out, back, mine, theirs := "ping", "pong", uint32(0), uint32(1)
	if p.PID() == 1 {
		out, back, mine, theirs = back, out, theirs, mine
	}
	s, err := p.OpenSend(out)
	if err != nil {
		return err
	}
	r, err := p.OpenReceive(back, fcfs)
	if err != nil {
		return err
	}
	ver := newVerifier(in.pat, theirs)
	x.verifiers[p.PID()] = ver
	sb := x.tr.buf(p.PID())
	rbuf := make([]byte, in.size)

	// Each half of a round trip is a span; on process 0 they sit under
	// the round trip's own.
	send := func(on bool, parent int32, i int) error {
		buf := in.bufs[variant(uint64(i))]
		putHeader(buf, mine, uint64(i), 0)
		sp := sb.open(on, spSend, parent, int64(i), 1)
		err := s.Send(buf)
		sb.close(sp)
		return err
	}
	receive := func(on bool, parent int32, i int) (int, error) {
		sp := sb.open(on, spReceive, parent, int64(i), 1)
		n, err := r.Receive(rbuf)
		sb.close(sp)
		return n, err
	}
	verify := func(on bool, parent int32, i, n int) {
		sp := sb.open(on, spVerify, parent, int64(i), 1)
		ver.check(0, rbuf[:n])
		sb.close(sp)
	}

	if err := x.bar.wait(); err != nil {
		return err
	}
	if p.PID() == 1 {
		for i := 0; i < x.k.thr; i++ {
			on := sb.sampled(i)
			n, err := receive(on, noSpan, i)
			if err != nil {
				return err
			}
			verify(on, noSpan, i, n)
			if err := send(on, noSpan, i); err != nil {
				return err
			}
		}
	} else {
		cpu0, start := cpuTime(), time.Since(x.epoch)
		prev := start
		for i := 0; i < x.k.thr; i++ {
			on := sb.sampled(i)
			rt := sb.open(on, spRoundtrip, noSpan, int64(i), 2)
			if err := send(on, rt, i); err != nil {
				return err
			}
			n, err := receive(on, rt, i)
			if err != nil {
				return err
			}
			now := time.Since(x.epoch)
			in.lat = append(in.lat, clamp32(int64(now-prev)))
			prev = now
			verify(on, rt, i, n)
			sb.close(rt)
		}
		x.wall, x.cpu = prev-start, cpuTime()-cpu0
	}
	// Neither side closes before both are done: a circuit lives only
	// while a connection is open.
	if err := x.bar.wait(); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	return r.Close()
}

// streamBody: process 0 sends k.thr messages as fast as the facility's
// back-pressure admits them, then k.lat messages one at a time, each
// stamped with its send time and sent only when the receiver has taken
// the one before and handed the turn back. Process 1 receives, as pid 1
// (FCFS) and, for fanout_1k, also as pid 2 (BROADCAST): FCFS then
// BROADCAST for each sequence number; in the second phase its clock
// minus the stamp is the latency sample.
func (in *closedInst) streamBody(p *process, x *exchange) error {
	if p.PID() == 0 {
		return in.streamSend(p, x)
	}
	return in.streamReceive(p, x)
}

func (in *closedInst) streamSend(p *process, x *exchange) error {
	s, err := p.OpenSend("stream")
	if err != nil {
		return err
	}
	sb := x.tr.buf(0)
	if err := x.bar.wait(); err != nil {
		return err
	}
	seq := uint64(0)
	for i := 0; i < x.k.thr; i++ {
		buf := in.bufs[variant(seq)]
		putHeader(buf, 0, seq, 0)
		sp := sb.open(sb.sampled(i), spSend, noSpan, int64(seq), 1)
		err := s.Send(buf)
		sb.close(sp)
		if err != nil {
			return err
		}
		seq++
	}
	// The receiver arrives here with the throughput phase drained.
	if err := x.bar.wait(); err != nil {
		return err
	}
	for i := 0; i < x.k.lat; i++ {
		buf := in.bufs[variant(seq)]
		putHeader(buf, 0, seq, int64(time.Since(x.epoch)))
		if err := s.Send(buf); err != nil {
			return err
		}
		seq++
		select {
		case <-x.turn:
		case <-x.bar.failed:
			return errAborted
		}
	}
	if err := x.bar.wait(); err != nil {
		return err
	}
	return s.Close()
}

func (in *closedInst) streamReceive(p *process, x *exchange) error {
	conns := make([]*recvConn, 1, 2)
	var err error
	if conns[0], err = p.OpenReceive("stream", fcfs); err != nil {
		return err
	}
	if in.kind == fanout {
		p2, err := p.Facility().Process(2)
		if err != nil {
			return err
		}
		bc, err := p2.OpenReceive("stream", broadcast)
		if err != nil {
			return err
		}
		conns = append(conns, bc)
	}
	ver := newVerifier(in.pat, make([]uint32, len(conns))...) // every stream carries circuit 0
	x.verifiers[1] = ver
	sb := x.tr.buf(1)
	rbufs := [2][]byte{make([]byte, in.size), make([]byte, in.size)}
	var lens [2]int

	// receive takes sequence number i from every connection, then
	// verifies the deliveries. With timed set it returns how long after
	// the send time in the header the last delivery arrived.
	receive := func(on, timed bool, i int) (time.Duration, error) {
		sp := sb.open(on, spReceive, noSpan, int64(i), len(conns))
		for c, rc := range conns {
			child := int32(noSpan)
			if in.kind == fanout {
				child = sb.open(on, spReceiveFCFS+spanName(c), sp, int64(i), 1)
			}
			n, err := rc.Receive(rbufs[c])
			sb.close(child)
			if err != nil {
				return 0, err
			}
			lens[c] = n
		}
		sb.close(sp)
		var arrived time.Duration
		if timed {
			arrived = time.Since(x.epoch)
		}
		sp = sb.open(on, spVerify, noSpan, int64(i), len(conns))
		var sent int64
		for c := range conns {
			sent = ver.check(c, rbufs[c][:lens[c]])
		}
		sb.close(sp)
		return arrived - time.Duration(sent), nil
	}

	if err := x.bar.wait(); err != nil {
		return err
	}
	cpu0, start := cpuTime(), time.Since(x.epoch)
	for i := 0; i < x.k.thr; i++ {
		if _, err := receive(sb.sampled(i), false, i); err != nil {
			return err
		}
	}
	x.wall, x.cpu = time.Since(x.epoch)-start, cpuTime()-cpu0
	if err := x.bar.wait(); err != nil {
		return err
	}
	for i := 0; i < x.k.lat; i++ {
		lat, err := receive(false, true, x.k.thr+i)
		if err != nil {
			return err
		}
		in.lat = append(in.lat, clamp32(int64(lat)))
		select {
		case x.turn <- struct{}{}:
		case <-x.bar.failed:
			return errAborted
		}
	}
	if err := x.bar.wait(); err != nil {
		return err
	}
	for _, rc := range conns {
		if err := rc.Close(); err != nil {
			return err
		}
	}
	return nil
}
