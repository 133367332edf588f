package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// eventloop_mmpp: the open-loop workload. A producer emits batches of
// sixteen 1 KiB loans round-robin over eight circuits at the due times
// of a seeded MMPP schedule; one consumer drains all eight through a
// selector with WaitViews + ReleaseViews. Nothing is copied.

const (
	elCircuits = 8
	elBatch    = 16
	elSize     = 1 << 10
	elHarvest  = 64

	// Offered rates in batches per second: the reference level
	// (200 k messages/s), at which latency is reported, and the overload
	// level (4 M messages/s), above capacity, at which the delivered rate
	// is the capacity.
	elReferenceRate = 200e3 / elBatch
	elOverloadRate  = 4e6 / elBatch

	// elDrain is how long after its last commit the producer lets the
	// consumer drain before it closes the selector; what is outstanding
	// then counts as failed.
	elDrain = 5 * time.Second

	// A repetition whose generator ran later than this at the 99th
	// percentile of the reference level is marked disturbed.
	elDisturbedLagNs = 100e3
)

type eventloopInst struct {
	fac  *facility
	pat  *pattern
	rng  *rand.Rand
	free int
	lat  []uint32
	lag  []uint32
}

func openEventloop(seed int64) (instance, error) {
	fac, err := newFacility(2, elSize)
	if err != nil {
		return nil, err
	}
	return &eventloopInst{
		fac:  fac,
		pat:  newPattern(seed, elSize),
		rng:  rand.New(rand.NewSource(seed)),
		free: readCounters(fac, nil).freeBlocks,
	}, nil
}

func (in *eventloopInst) close() error {
	in.fac.Shutdown()
	return nil
}

func (in *eventloopInst) rep(k counts, tr *tracer) (repResult, error) {
	// Both schedules exist before any clock starts: the facility sees
	// only the generated batches.
	reference := mmppSchedule(in.rng, k.lat, elReferenceRate)
	overload := mmppSchedule(in.rng, k.thr, elOverloadRate)
	if cap(in.lat) < k.lat*elBatch {
		in.lat = make([]uint32, 0, k.lat*elBatch)
		in.lag = make([]uint32, 0, k.lat)
	}
	in.lat, in.lag = in.lat[:0], in.lag[:0]

	before := readCounters(in.fac, nil)
	var ref, over levelResult
	var err error
	if ref, err = in.level(reference, tr, true); err == nil && len(overload) > 0 {
		over, err = in.level(overload, tr, false)
	}
	if err != nil {
		return repResult{}, err
	}
	res := repResult{
		deliveries: over.delivered,
		wall:       over.wall,
		cpu:        over.cpu,
		lat:        in.lat,
		sends:      int64(k.lat+k.thr) * elBatch,
	}
	res.attempted = res.sends
	res.failed = res.sends - ref.delivered - over.delivered
	for _, lv := range []levelResult{ref, over} {
		if lv.ver != nil {
			res.merge(lv.ver)
		}
	}
	res.c = readCounters(in.fac, nil).sub(before)

	slices.Sort(in.lag)
	lagP99 := percentile(in.lag, 0.99)
	res.disturbed = lagP99 > elDisturbedLagNs
	res.layer = map[string]float64{
		"gen.lag_p50_us":         percentile(in.lag, 0.50) / 1e3,
		"gen.lag_p99_us":         lagP99 / 1e3,
		"eventloop.backlog_max":  float64(max(ref.backlog, over.backlog)),
		"core.views_per_harvest": ratio(float64(res.c.harvested), float64(ref.harvests+over.harvests)),
	}
	if res.failed > 0 && res.err == nil {
		res.err = fmt.Errorf("%d messages undelivered at the drain deadline", res.failed)
	}
	return res, checkLedger(res.c, res.sends, 0, in.free, 0)
}

type levelResult struct {
	delivered int64
	harvests  int64
	backlog   int // deepest per-circuit queue seen, sampled every 64th harvest
	wall, cpu time.Duration
	ver       *verifier
}

func circuitName(c int) string { return "ev" + strconv.Itoa(c) }

// level offers one schedule. Latency is taken from the due time, never
// from the time the producer got round to sending, so a stalled
// producer's lateness is charged to the system.
func (in *eventloopInst) level(due []int64, tr *tracer, timed bool) (levelResult, error) {
	var (
		res   levelResult
		bar   = newBarrier()
		sel   *selector
		done  = make(chan struct{})
		epoch = time.Now()
		total = int64(len(due)) * elBatch
	)
	res.ver = newVerifier(in.pat, 0, 1, 2, 3, 4, 5, 6, 7)

	produce := func(p *process) error {
		var sends [elCircuits]*sendConn
		for c := range sends {
			var err error
			if sends[c], err = p.OpenSend(circuitName(c)); err != nil {
				return err
			}
		}
		sb := tr.buf(0)
		sizes := sixteen(elSize)
		var seq [elCircuits]uint64
		if err := bar.wait(); err != nil {
			return err
		}
		start := int64(time.Since(epoch))
		for i, d := range due {
			c, at := i%elCircuits, start+d
			now := int64(time.Since(epoch))
			for now < at {
				now = int64(time.Since(epoch))
			}
			if timed {
				in.lag = append(in.lag, clamp32(now-at))
			}
			on := sb.sampled(i)
			sp := sb.open(on, spLoanBatch, noSpan, int64(i), elBatch)
			lb, err := sends[c].LoanBatch(sizes)
			sb.close(sp)
			if err != nil {
				return err
			}
			sp = sb.open(on, spFill, noSpan, int64(i), elBatch)
			for j := 0; j < elBatch; j++ {
				b, ok := lb.Bytes(j)
				if !ok {
					return fmt.Errorf("loan %d of batch %d is not contiguous", j, i)
				}
				putHeader(b, uint32(c), seq[c], at)
				copy(b[headerLen:], in.pat.body(seq[c], elSize-headerLen))
				seq[c]++
			}
			sb.close(sp)
			sp = sb.open(on, spCommit, noSpan, int64(i), elBatch)
			err = lb.CommitAll()
			sb.close(sp)
			if err != nil {
				return err
			}
		}
		select {
		case <-done:
		case <-time.After(elDrain):
			sel.Close() // the consumer returns with what it has
			<-done
		}
		for _, s := range sends {
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	}

	consume := func(p *process) error {
		defer close(done)
		var recvs [elCircuits]*recvConn
		var err error
		if sel, err = p.NewSelector(); err != nil {
			return err
		}
		for c := range recvs {
			if recvs[c], err = p.OpenReceive(circuitName(c), fcfs); err != nil {
				return err
			}
			if err := sel.Add(recvs[c]); err != nil {
				return err
			}
		}
		// The facility's id of each circuit, learnt from its first view:
		// a later view that names the circuit in its header but arrives
		// under another id was misrouted.
		var ids [elCircuits]int64
		sb := tr.buf(1)
		if err := bar.wait(); err != nil {
			return err
		}
		cpu0, start := cpuTime(), time.Since(epoch)
		for res.delivered < total {
			h := int(res.harvests)
			on := sb.sampled(h)
			sp := sb.open(on, spWaitViews, noSpan, int64(h), 0)
			vs, err := sel.WaitViews(elHarvest)
			sb.close(sp)
			if err != nil {
				// Closed at the drain deadline, or shut down by a failing
				// producer: the caller counts the shortfall.
				if res.ver.firstErr == nil {
					res.ver.firstErr = fmt.Errorf("WaitViews after %d of %d deliveries: %w", res.delivered, total, err)
				}
				break
			}
			now := int64(time.Since(epoch))
			if on {
				sb.spans[sp].n = int32(len(vs))
			}
			sp = sb.open(on, spVerify, noSpan, int64(h), len(vs))
			for _, v := range vs {
				b, ok := v.Bytes()
				if !ok {
					res.ver.fail("view on circuit id %d is not contiguous", v.Circuit())
					continue
				}
				// The stream is the circuit the header names; check then
				// holds it to that circuit's own sequence.
				stream := int(binary.LittleEndian.Uint32(b)) % elCircuits
				if id := int64(v.Circuit()) + 1; ids[stream] == 0 {
					ids[stream] = id
				} else if ids[stream] != id {
					res.ver.fail("circuit %d: view arrived under facility id %d, earlier ones under %d", stream, id-1, ids[stream]-1)
				}
				at := res.ver.check(stream, b)
				if timed {
					in.lat = append(in.lat, clamp32(now-at))
				}
			}
			sb.close(sp)
			sp = sb.open(on, spRelease, noSpan, int64(h), len(vs))
			releaseViews(vs)
			sb.close(sp)
			res.delivered += int64(len(vs))
			res.harvests++
			if h%64 == 0 {
				if info, ok := in.fac.Circuit(circuitName(h / 64 % elCircuits)); ok {
					res.backlog = max(res.backlog, info.QueuedMsgs)
				}
			}
		}
		res.wall, res.cpu = time.Since(epoch)-start, cpuTime()-cpu0
		if err := sel.Close(); err != nil {
			return err
		}
		for _, r := range recvs {
			if err := r.Close(); err != nil {
				return err
			}
		}
		return nil
	}

	err := runPair(in.fac, bar, func(p *process) error {
		if p.PID() == 0 {
			return produce(p)
		}
		return consume(p)
	})
	return res, err
}
