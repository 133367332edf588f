package main

// The pinned surface. This is the only file in benchmark/ that imports
// the repository's packages; every other file reaches the facility
// through the aliases, constructors and probe targets declared here.
// README.md lists the symbols: later refactors keep their signatures,
// because a change that claims a gain may not edit benchmark/.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/shm"
	"repro/internal/spinlock"
	"repro/mpf"
)

type (
	facility   = mpf.Facility
	process    = mpf.Process
	sendConn   = mpf.SendConn
	recvConn   = mpf.RecvConn
	selector   = mpf.Selector
	view       = mpf.View
	procServer = mpf.ProcServer
	execGroup  = proc.ExecGroup
)

const (
	fcfs      = mpf.FCFS
	broadcast = mpf.Broadcast
)

// blockPayload is the payload capacity of one default 64-byte block
// (4 bytes are the link word); sizing for a bound on messages in flight
// needs it before a facility exists.
const blockPayload = 60

// inFlight is the number of messages the arena is sized to hold.
const inFlight = 64

// newFacility builds a facility in its default configuration, sized so
// that inFlight messages of payload bytes fit the arena: only the
// sizing options are set.
func newFacility(procs, payload int) (*facility, error) {
	blocks := inFlight * ((payload + blockPayload - 1) / blockPayload)
	return mpf.New(
		mpf.WithMaxProcesses(procs),
		mpf.WithMaxLNVCs(16),
		mpf.WithBlocksPerProcess((blocks+procs-1)/procs),
	)
}

func releaseViews(vs []*view) { mpf.ReleaseViews(vs) }

// serveXProc serves the cross-process facility with procdemo's sizing.
func serveXProc() (*procServer, error) {
	return mpf.ServeProc(mpf.ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []mpf.Option{mpf.WithBlockSize(512), mpf.WithBlocksPerProcess(512)},
	})
}

func noSharedBackend(err error) bool { return errors.Is(err, mpf.ErrNoSharedBackend) }

// workerMain is the forked child of xproc_1k: attach, serve, detach.
func workerMain() error {
	go exitWithParent(workerEnv)
	cl, err := mpf.AttachProc()
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	if err := cl.Serve(); err != nil {
		return err
	}
	return cl.Close()
}

// counters is one reading of the facility's public counters; two
// readings around a repetition give the per-message structural counts.
type counters struct {
	copies, receiveWaits, muxWakeups, muxSpurious, harvested uint64
	arenaLocks, arenaContended, arenaWaits                   uint64
	regLocks, regContended                                   uint64
	ringPolls, futexSleeps, futexWakes                       uint64
	freeBlocks, circuits                                     int
}

func readCounters(f *facility, srv *procServer) counters {
	st := f.Stats()
	c := counters{
		copies:       st.PayloadCopiesIn + st.PayloadCopiesOut,
		receiveWaits: st.ReceiveWaits,
		muxWakeups:   st.MuxWakeups,
		muxSpurious:  st.MuxSpurious,
		harvested:    st.HarvestedViews,
		freeBlocks:   f.Core().Arena().FreeBlocks(),
		circuits:     f.Core().LNVCCount(),
	}
	c.arenaLocks, c.arenaContended = f.Core().Arena().LockStats()
	c.arenaWaits = f.Core().Arena().Stats().AllocBlocks
	for _, s := range f.RegistryStats() {
		c.regLocks += s.Acquisitions
		c.regContended += s.Contended
	}
	if srv != nil {
		ws := srv.RingWaitStats()
		c.ringPolls, c.futexSleeps, c.futexWakes = ws.Polls, ws.Sleeps, ws.Wakes
	}
	return c
}

// sub returns the counts accumulated since before; the gauges
// (freeBlocks, circuits) keep their current reading.
func (c counters) sub(before counters) counters {
	c.copies -= before.copies
	c.receiveWaits -= before.receiveWaits
	c.muxWakeups -= before.muxWakeups
	c.muxSpurious -= before.muxSpurious
	c.harvested -= before.harvested
	c.arenaLocks -= before.arenaLocks
	c.arenaContended -= before.arenaContended
	c.arenaWaits -= before.arenaWaits
	c.regLocks -= before.regLocks
	c.regContended -= before.regContended
	c.ringPolls -= before.ringPolls
	c.futexSleeps -= before.futexSleeps
	c.futexWakes -= before.futexWakes
	return c
}

// probe times one layer's exported functions on a single goroutine
// (unless its name says otherwise). run makes one measurement lasting
// about loop and returns it in the probe's unit.
type probe struct {
	name string
	run  func(loop time.Duration) (float64, error)
}

// nsPerOp grows n until body(n) lasts at least loop and returns that
// run's time per operation.
func nsPerOp(loop time.Duration, body func(n int) error) (float64, error) {
	for n := 1; ; {
		t0 := time.Now()
		if err := body(n); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if d >= loop || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n), nil
		}
		if d < loop/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(loop)/float64(d)*1.2) + 1
		}
	}
}

// per divides a probe's reading, as in per(16)(nsPerOp(...)) for a
// loop whose operation handles sixteen messages.
func per(div float64) func(float64, error) (float64, error) {
	return func(f float64, err error) (float64, error) { return f / div, err }
}

// probeArena is large enough that no probe waits for blocks.
func probeArena() (*shm.Arena, error) {
	return shm.New(shm.Config{BlockSize: 64, NumBlocks: 1 << 14, Spans: true})
}

func probeCore() (*core.Facility, error) {
	return core.Init(core.Config{MaxProcesses: 4, MaxLNVCs: 16, BlocksPerProcess: 1 << 12})
}

// sixteen repeats n sixteen times: the batch shape of eventloop_mmpp.
func sixteen(n int) []int {
	ns := make([]int, 16)
	for i := range ns {
		ns[i] = n
	}
	return ns
}

// layerProbes returns the timed probes of the per-layer table, in the
// table's order. self is the binary Spawn re-execs as the worker.
func layerProbes(self string) []probe {
	return []probe{
		{"spinlock.tas_pair_ns", func(loop time.Duration) (float64, error) {
			var l spinlock.TAS
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					l.Lock()
					l.Unlock()
				}
				return nil
			})
		}},
		{"spinlock.rw_rpair_ns", func(loop time.Duration) (float64, error) {
			var l spinlock.RW
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					l.RLock()
					l.RUnlock()
				}
				return nil
			})
		}},
		{"spinlock.tas_handoff_ns", probeHandoff},
		{"shm.alloc_free_64_ns", func(loop time.Duration) (float64, error) { return probeAllocFree(loop, 64) }},
		{"shm.alloc_free_16k_ns", func(loop time.Duration) (float64, error) { return probeAllocFree(loop, 16<<10) }},
		{"shm.alloc_free_batch16x1k_ns", func(loop time.Duration) (float64, error) {
			a, err := probeArena()
			if err != nil {
				return 0, err
			}
			ns := sixteen(1 << 10)
			return per(16)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					heads, _, err := a.AllocPayloads(ns, false, nil)
					if err != nil {
						return err
					}
					a.FreeChains(heads)
				}
				return nil
			}))
		}},
		{"shm.xring_push_pop_ns", func(loop time.Duration) (float64, error) {
			r, err := probeRing()
			if err != nil {
				return 0, err
			}
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					if ok, err := r.TryPush(shm.Record{Off: int64(i)}); !ok || err != nil {
						return fmt.Errorf("TryPush: %v %v", ok, err)
					}
					if _, ok, err := r.TryPop(); !ok || err != nil {
						return fmt.Errorf("TryPop: %v %v", ok, err)
					}
				}
				return nil
			})
		}},
		{"shm.xring_batch16_ns", func(loop time.Duration) (float64, error) {
			r, err := probeRing()
			if err != nil {
				return 0, err
			}
			recs := make([]shm.Record, 16)
			return per(16)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					if err := r.PushBatch(recs, time.Time{}); err != nil {
						return err
					}
					for range recs {
						if _, ok, err := r.TryPop(); !ok || err != nil {
							return fmt.Errorf("TryPop: %v %v", ok, err)
						}
					}
				}
				return nil
			}))
		}},
		{"shm.notify_post_idle_ns", func(loop time.Duration) (float64, error) {
			seg, err := shm.NewSegment(4096)
			if err != nil {
				return 0, err
			}
			w := shm.NotifyAt(seg, 64)
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					w.Post()
				}
				return nil
			})
		}},
		{"shm.notify_wake_us", probeNotifyWake},
		{"shm.segment_create_us", func(loop time.Duration) (float64, error) {
			return per(1e3)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					seg, err := shm.NewSharedSegment("mpf-benchmark-probe", 1<<20)
					if err != nil {
						return err
					}
					if err := seg.Close(); err != nil {
						return err
					}
				}
				return nil
			}))
		}},
		{"msg.build_release_64_ns", func(loop time.Duration) (float64, error) { return probeBuild(loop, 64, true) }},
		{"msg.build_release_16k_ns", func(loop time.Duration) (float64, error) { return probeBuild(loop, 16<<10, true) }},
		{"msg.buildloan_release_16k_ns", func(loop time.Duration) (float64, error) { return probeBuild(loop, 16<<10, false) }},
		{"msg.extract_16k_ns", func(loop time.Duration) (float64, error) {
			a, err := probeArena()
			if err != nil {
				return 0, err
			}
			p := msg.NewPool(a, 8)
			buf := make([]byte, 16<<10)
			m, err := p.Build(0, buf, false, nil)
			if err != nil {
				return 0, err
			}
			defer p.Release(m)
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					p.Extract(m, buf)
				}
				return nil
			})
		}},
		{"msg.buildloanbatch16x1k_ns", func(loop time.Duration) (float64, error) {
			a, err := probeArena()
			if err != nil {
				return 0, err
			}
			p := msg.NewPool(a, 64)
			ns := sixteen(1 << 10)
			return per(16)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					ms, err := p.BuildLoanBatch(0, ns, false, nil)
					if err != nil {
						return err
					}
					p.ReleaseBatch(ms)
				}
				return nil
			}))
		}},
		{"core.init_shutdown_us", func(loop time.Duration) (float64, error) {
			return per(1e3)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					f, err := core.Init(core.Config{MaxProcesses: 2, MaxLNVCs: 16, BlocksPerProcess: inFlight})
					if err != nil {
						return err
					}
					f.Shutdown()
				}
				return nil
			}))
		}},
		{"core.open_close_us", func(loop time.Duration) (float64, error) {
			f, err := probeCore()
			if err != nil {
				return 0, err
			}
			defer f.Shutdown()
			return per(1e3)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					s, err := f.OpenSend(0, "probe")
					if err != nil {
						return err
					}
					r, err := f.OpenReceive(1, "probe", core.FCFS)
					if err != nil {
						return err
					}
					if err := f.CloseSend(0, s); err != nil {
						return err
					}
					if err := f.CloseReceive(1, r); err != nil {
						return err
					}
				}
				return nil
			}))
		}},
		{"core.send_tryrecv_64_ns", func(loop time.Duration) (float64, error) { return probeSendTryRecv(loop, 64, false) }},
		{"core.send_tryrecv_16k_ns", func(loop time.Duration) (float64, error) { return probeSendTryRecv(loop, 16<<10, false) }},
		{"core.fanout_send_recv2_1k_ns", func(loop time.Duration) (float64, error) { return probeSendTryRecv(loop, 1<<10, true) }},
		{"core.loan_view_1k_ns", func(loop time.Duration) (float64, error) {
			f, err := probeCore()
			if err != nil {
				return 0, err
			}
			defer f.Shutdown()
			id, err := probeCircuit(f, false)
			if err != nil {
				return 0, err
			}
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					ln, err := f.SendLoan(0, id, 1<<10)
					if err != nil {
						return err
					}
					if err := ln.Commit(); err != nil {
						return err
					}
					v, ok, err := f.TryReceiveView(1, id)
					if !ok || err != nil {
						return fmt.Errorf("TryReceiveView: %v %v", ok, err)
					}
					v.Release()
				}
				return nil
			})
		}},
		{"core.loanbatch16_harvest_1k_ns", func(loop time.Duration) (float64, error) {
			f, err := probeCore()
			if err != nil {
				return 0, err
			}
			defer f.Shutdown()
			id, err := probeCircuit(f, false)
			if err != nil {
				return 0, err
			}
			sel, err := f.NewSelector(1)
			if err != nil {
				return 0, err
			}
			if err := sel.Add(id); err != nil {
				return 0, err
			}
			ns := sixteen(1 << 10)
			return per(16)(nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					b, err := f.LoanBatch(0, id, ns)
					if err != nil {
						return err
					}
					if err := b.CommitAll(); err != nil {
						return err
					}
					vs, err := sel.HarvestViews(64)
					if err != nil || len(vs) != 16 {
						return fmt.Errorf("HarvestViews: %d views, %v", len(vs), err)
					}
					core.ReleaseViews(vs)
				}
				return nil
			}))
		}},
		{"core.selector_wait_ready_ns", func(loop time.Duration) (float64, error) {
			f, err := probeCore()
			if err != nil {
				return 0, err
			}
			defer f.Shutdown()
			id, err := probeCircuit(f, false)
			if err != nil {
				return 0, err
			}
			sel, err := f.NewSelector(1)
			if err != nil {
				return 0, err
			}
			if err := sel.Add(id); err != nil {
				return 0, err
			}
			if err := f.Send(0, id, make([]byte, 64)); err != nil {
				return 0, err
			}
			return nsPerOp(loop, func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := sel.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"mpf.send_tryrecv_64_ns", func(loop time.Duration) (float64, error) {
			op, done, err := facadeSendTryRecv(64)
			if err != nil {
				return 0, err
			}
			defer done()
			return nsPerOp(loop, op)
		}},
		{"mpf.facade_overhead_64_ns", probeFacadeOverhead},
		{"proc.spawn_handshake_ms", func(time.Duration) (float64, error) {
			srv, err := serveXProc()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			g, err := spawnWorker(srv, self)
			if err != nil {
				srv.Close()
				return 0, err
			}
			// A call of zero messages returns once the slot is claimed
			// and the bridge bound to it.
			_, err = srv.BridgeDown(0, 0, 1<<10)
			d := time.Since(t0)
			if err == nil {
				err = srv.FinishSlot(0)
			}
			if werr := joinWorker(g, err != nil); err == nil {
				err = werr
			}
			if err != nil {
				srv.Close()
				return 0, err
			}
			return float64(d.Nanoseconds()) / 1e6, srv.Close()
		}},
	}
}

// probeHandoff alternates two goroutines on one TAS. Each waits for
// its turn on an atomic, so that no acquisition spins, and then takes
// and releases the lock: what is timed is the lock word changing cores.
func probeHandoff(loop time.Duration) (float64, error) {
	return nsPerOp(loop, func(n int) error {
		var l spinlock.TAS
		var turn atomic.Int32
		done := make(chan struct{})
		pass := func(me int32) {
			for i := 0; i < n; i++ {
				for turn.Load() != me {
					runtime.Gosched()
				}
				l.Lock()
				l.Unlock()
				turn.Store(1 - me)
			}
		}
		go func() {
			pass(1)
			close(done)
		}()
		pass(0)
		<-done
		return nil
	})
}

func probeAllocFree(loop time.Duration, size int) (float64, error) {
	a, err := probeArena()
	if err != nil {
		return 0, err
	}
	return nsPerOp(loop, func(n int) error {
		for i := 0; i < n; i++ {
			head, _, err := a.AllocPayload(size, false, nil)
			if err != nil {
				return err
			}
			a.FreeChain(head)
		}
		return nil
	})
}

func probeRing() (*shm.XRing, error) {
	seg, err := shm.NewSegment(shm.RingBytes(64))
	if err != nil {
		return nil, err
	}
	return shm.InitRing(seg, 0, 64)
}

// probeNotifyWake measures Post → Wait return across two threads, with
// the waiter given time to go to sleep in the kernel first.
func probeNotifyWake(loop time.Duration) (float64, error) {
	seg, err := shm.NewSegment(4096)
	if err != nil {
		return 0, err
	}
	const pause = 150 * time.Microsecond
	n := int(loop/pause) + 8
	waiter, poster := shm.NotifyAt(seg, 64), shm.NotifyAt(seg, 64)
	woke := make([]int64, n)
	var acked atomic.Int64
	base := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			for waiter.Load() == uint32(i) {
				waiter.Wait(uint32(i), time.Time{})
			}
			woke[i] = int64(time.Since(base))
			acked.Store(int64(i + 1))
		}
	}()
	lat := make([]float64, n)
	for i := 0; i < n; i++ {
		for t := time.Now(); time.Since(t) < pause; {
			runtime.Gosched()
		}
		posted := int64(time.Since(base))
		poster.Post()
		for acked.Load() != int64(i+1) {
			runtime.Gosched()
		}
		lat[i] = float64(woke[i]-posted) / 1e3
	}
	return median(lat), nil
}

func probeBuild(loop time.Duration, size int, copyIn bool) (float64, error) {
	a, err := probeArena()
	if err != nil {
		return 0, err
	}
	p := msg.NewPool(a, 8)
	buf := make([]byte, size)
	return nsPerOp(loop, func(n int) error {
		for i := 0; i < n; i++ {
			var m *msg.Message
			var err error
			if copyIn {
				m, err = p.Build(0, buf, false, nil)
			} else {
				m, err = p.BuildLoan(0, size, false, nil)
			}
			if err != nil {
				return err
			}
			p.Release(m)
		}
		return nil
	})
}

// probeCircuit opens "probe" with pid 0 sending and pid 1 receiving
// FCFS, plus pid 2 receiving BROADCAST when fanout is set.
func probeCircuit(f *core.Facility, fanout bool) (core.ID, error) {
	id, err := f.OpenSend(0, "probe")
	if err != nil {
		return 0, err
	}
	if _, err := f.OpenReceive(1, "probe", core.FCFS); err != nil {
		return 0, err
	}
	if fanout {
		if _, err := f.OpenReceive(2, "probe", core.Broadcast); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// coreSendTryRecv sets up the circuit's cost with no wake-up: op(n) is n
// times Send, then TryReceive by every receiver, all on one goroutine.
func coreSendTryRecv(size int, fanout bool) (op func(n int) error, done func(), err error) {
	f, err := probeCore()
	if err != nil {
		return nil, nil, err
	}
	id, err := probeCircuit(f, fanout)
	if err != nil {
		f.Shutdown()
		return nil, nil, err
	}
	receivers := 1
	if fanout {
		receivers = 2
	}
	buf := make([]byte, size)
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := f.Send(0, id, buf); err != nil {
				return err
			}
			for pid := 1; pid <= receivers; pid++ {
				if _, ok, err := f.TryReceive(pid, id, buf); !ok || err != nil {
					return fmt.Errorf("TryReceive by %d: %v %v", pid, ok, err)
				}
			}
		}
		return nil
	}, f.Shutdown, nil
}

func probeSendTryRecv(loop time.Duration, size int, fanout bool) (float64, error) {
	op, done, err := coreSendTryRecv(size, fanout)
	if err != nil {
		return 0, err
	}
	defer done()
	return nsPerOp(loop, op)
}

// facadeSendTryRecv is coreSendTryRecv through the mpf facade, on a
// facility of the same size.
func facadeSendTryRecv(size int) (op func(n int) error, done func(), err error) {
	f, err := mpf.New(mpf.WithMaxProcesses(4), mpf.WithMaxLNVCs(16), mpf.WithBlocksPerProcess(1<<12))
	if err != nil {
		return nil, nil, err
	}
	open := func() (*sendConn, *recvConn, error) {
		p0, err := f.Process(0)
		if err != nil {
			return nil, nil, err
		}
		p1, err := f.Process(1)
		if err != nil {
			return nil, nil, err
		}
		s, err := p0.OpenSend("probe")
		if err != nil {
			return nil, nil, err
		}
		r, err := p1.OpenReceive("probe", mpf.FCFS)
		return s, r, err
	}
	s, r, err := open()
	if err != nil {
		f.Shutdown()
		return nil, nil, err
	}
	buf := make([]byte, size)
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := s.Send(buf); err != nil {
				return err
			}
			if _, ok, err := r.TryReceive(buf); !ok || err != nil {
				return fmt.Errorf("TryReceive: %v %v", ok, err)
			}
		}
		return nil
	}, f.Shutdown, nil
}

// probeFacadeOverhead is what the facade adds to a 64-byte Send +
// TryReceive. The facade's loop and the core's run in alternating
// chunks inside one measurement, the first of each pair alternating
// too, so that whatever disturbs the box disturbs both alike: the
// difference of two loops timed one after the other was within their
// noise and came out negative as often as not.
func probeFacadeOverhead(loop time.Duration) (float64, error) {
	ops := [2]func(n int) error{}
	for i, set := range []func() (func(n int) error, func(), error){
		func() (func(n int) error, func(), error) { return coreSendTryRecv(64, false) },
		func() (func(n int) error, func(), error) { return facadeSendTryRecv(64) },
	} {
		op, done, err := set()
		if err != nil {
			return 0, err
		}
		defer done()
		ops[i] = op
	}
	const chunk = 512
	var spent [2]time.Duration // core, facade
	n := 0
	for start, first := time.Now(), 0; n == 0 || time.Since(start) < loop; first = 1 - first {
		for _, which := range [2]int{first, 1 - first} {
			t0 := time.Now()
			if err := ops[which](chunk); err != nil {
				return 0, err
			}
			spent[which] += time.Since(t0)
		}
		n += chunk
	}
	return float64((spent[1] - spent[0]).Nanoseconds()) / float64(n), nil
}
