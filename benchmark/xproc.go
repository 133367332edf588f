package main

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// xproc_1k: the process boundary. The parent serves a facility over a
// memfd segment and drives one forked child — this binary re-exec'd as
// a worker — through the bridge. The bridge fills, checksums and
// verifies every payload on both sides of the boundary itself, so a
// call that returns its full count without error is that many verified
// deliveries.

const (
	xprocSize = 1 << 10
	xprocCall = 64 // messages per BridgeDown / BridgeUp call in the throughput phase

	// workerEnv, when set, makes the binary the forked child; its value
	// is the pid of the process that forked it.
	workerEnv = "MPF_BENCHMARK_WORKER"

	// childWait bounds the join of the child after FinishSlot.
	childWait = 30 * time.Second
)

// liveWorker is the forked child while there is one, so that a process
// leaving by another way than its instance's close can stop it first.
var liveWorker atomic.Pointer[execGroup]

// spawnWorker forks this binary as the worker of srv's slot 0.
func spawnWorker(srv *procServer, self string) (*execGroup, error) {
	g, err := srv.Spawn(1, self, nil, []string{workerEnv + "=" + strconv.Itoa(os.Getpid())})
	if err == nil {
		liveWorker.Store(g)
	}
	return g, err
}

// joinWorker waits for the child to end, killing it when kill is set
// or when it has not gone within childWait.
func joinWorker(g *execGroup, kill bool) error {
	if kill {
		g.Kill()
	}
	err := g.Wait(childWait)
	liveWorker.CompareAndSwap(g, nil)
	return err
}

// stopWorker kills and joins the child a process still has when it is
// about to exit early.
func stopWorker() {
	if g := liveWorker.Load(); g != nil {
		joinWorker(g, true)
	}
}

// exitWithParent ends a child of the benchmark once the process that
// started it, whose pid it was handed in the variable env, is gone
// without having joined it (killed from outside, say), so that no run
// leaves a process behind.
func exitWithParent(env string) {
	parent, err := strconv.Atoi(os.Getenv(env))
	if err != nil {
		return
	}
	for os.Getppid() == parent {
		time.Sleep(100 * time.Millisecond)
	}
	os.Exit(1)
}

type xprocInst struct {
	srv   *procServer
	group *execGroup
	free  int
	lat   []uint32
}

func openXProc(int64) (instance, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	srv, err := serveXProc()
	if err != nil {
		return nil, err
	}
	group, err := spawnWorker(srv, self)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &xprocInst{srv: srv, group: group, free: readCounters(srv.Facility(), nil).freeBlocks}, nil
}

// close tells the child to detach, joins it and unmaps the segment; a
// child that does not go is killed.
func (in *xprocInst) close() error {
	err := in.srv.FinishSlot(0)
	if werr := joinWorker(in.group, err != nil); err == nil {
		err = werr
	}
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpu is the parent's CPU time plus the live child's.
func (in *xprocInst) cpu() time.Duration {
	child, _ := livePidCPU(in.group.Child(0).Pid())
	return cpuTime() + child
}

func (in *xprocInst) rep(k counts, tr *tracer) (repResult, error) {
	if cap(in.lat) < k.lat {
		in.lat = make([]uint32, 0, k.lat)
	}
	in.lat = in.lat[:0]
	fac := in.srv.Facility()
	before := readCounters(fac, in.srv)
	sb := tr.buf(0)
	var res repResult
	var down, up time.Duration

	// call runs one bridge call of msgs messages inside a span and
	// counts the messages that did not come back verified as failed.
	call := func(on bool, name spanName, id int, bridge func(slot, msgs, size int) (int, error), msgs int) (time.Duration, error) {
		res.attempted += int64(msgs)
		sp := sb.open(on, name, noSpan, int64(id), msgs)
		t0 := time.Now()
		n, err := bridge(0, msgs, xprocSize)
		d := time.Since(t0)
		sb.close(sp)
		res.sends += int64(n)
		if err != nil {
			res.failed += int64(msgs - n)
			return d, fmt.Errorf("%s after %d of %d messages: %w", spanNames[name], n, msgs, err)
		}
		return d, nil
	}

	cpu0, start := in.cpu(), time.Now()
	for i := 0; i < k.thr; i++ {
		on := sb.sampled(i)
		d, err := call(on, spBridgeDown, i, in.srv.BridgeDown, xprocCall)
		if err != nil {
			return res, err
		}
		down += d
		if d, err = call(on, spBridgeUp, i, in.srv.BridgeUp, xprocCall); err != nil {
			return res, err
		}
		up += d
	}
	res.wall, res.cpu = time.Since(start), in.cpu()-cpu0
	res.deliveries = res.sends

	for i := 0; i < k.lat; i++ {
		d, err := call(false, spBridgeDown, k.thr+i, in.srv.BridgeDown, 1)
		if err != nil {
			return res, err
		}
		in.lat = append(in.lat, clamp32(int64(d)))
	}
	res.lat = in.lat
	res.c = readCounters(fac, in.srv).sub(before)
	perCall := float64(k.thr) * xprocCall
	res.layer = map[string]float64{
		"mpf.bridge_down_us": ratio(float64(down.Nanoseconds())/1e3, perCall),
		"mpf.bridge_up_us":   ratio(float64(up.Nanoseconds())/1e3, perCall),
	}
	// The bridge's loop-back circuit stays open while the server lives.
	return res, checkLedger(res.c, res.sends, 0, in.free, 1)
}
