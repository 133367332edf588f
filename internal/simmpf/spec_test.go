package simmpf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/sim"
)

// The differential test: simmpf is the delivery contract's executable
// spec, so random scripts of sends, copy receives and receiver
// close/reopen run on both implementations must agree on every receive's
// payload (or that nothing was deliverable) and on the circuit's queue
// length after every op.

// specOp is one scripted step: pid 0 sends a distinct payload; pids 1-2
// (FCFS) and 3-4 (BROADCAST) receive, or toggle their connection.
type specOp struct {
	pid    int
	toggle bool
}

// specProto is each pid's receive protocol (pid 0 is the sender).
var specProto = [5]Protocol{0, FCFS, FCFS, Broadcast, Broadcast}

// specOutcome is what one op observed: the payload received ("" when
// nothing was deliverable or the op was no receive) and the queue length
// after it.
type specOutcome struct {
	got    string
	queued int
}

func specScript(rng *rand.Rand, ops int) []specOp {
	script := make([]specOp, ops)
	for i := range script {
		switch r := rng.Intn(8); {
		case r < 3:
			script[i] = specOp{pid: 0}
		case r < 6:
			script[i] = specOp{pid: 1 + rng.Intn(4)}
		default:
			script[i] = specOp{pid: 1 + rng.Intn(4), toggle: true}
		}
	}
	return script
}

// payload is the i-th op's message, distinct per op.
func payload(i int) []byte { return []byte(fmt.Sprintf("msg-%03d", i)) }

// runOnCore runs script on internal/core from one goroutine.
func runOnCore(t *testing.T, script []specOp) []specOutcome {
	f, err := core.Init(core.Config{MaxLNVCs: 4, MaxProcesses: 5, BlocksPerProcess: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sid, err := f.OpenSend(0, "spec")
	must(err)
	var rid [5]core.ID
	open := [5]bool{}
	for pid := 1; pid < 5; pid++ {
		rid[pid], err = f.OpenReceive(pid, "spec", specProto[pid])
		must(err)
		open[pid] = true
	}
	buf := make([]byte, 64)
	out := make([]specOutcome, len(script))
	for i, op := range script {
		switch {
		case op.pid == 0:
			must(f.Send(0, sid, payload(i)))
		case op.toggle && open[op.pid]:
			must(f.CloseReceive(op.pid, rid[op.pid]))
			open[op.pid] = false
		case op.toggle:
			rid[op.pid], err = f.OpenReceive(op.pid, "spec", specProto[op.pid])
			must(err)
			open[op.pid] = true
		case open[op.pid]:
			n, ok, err := f.TryReceive(op.pid, rid[op.pid], buf)
			must(err)
			if ok {
				out[i].got = string(buf[:n])
			}
		}
		info, err := f.LNVCInfo(sid)
		must(err)
		out[i].queued = info.QueuedMsgs
	}
	return out
}

// runOnSpec runs script on simmpf, one sim.Proc per pid, op i at
// simulated second i — far apart enough that each op completes before
// the next begins.
func runOnSpec(t *testing.T, script []specOp) []specOutcome {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	out := make([]specOutcome, len(script))
	for pid := range 5 {
		k.Spawn(fmt.Sprintf("pid%d", pid), func(p *sim.Proc) {
			var c *Circuit
			if pid == 0 {
				c = f.OpenSend(p, "spec")
			} else {
				c = f.OpenReceive(p, "spec", specProto[pid])
			}
			open := true
			buf := make([]byte, 64)
			for i, op := range script {
				if op.pid != pid {
					continue
				}
				p.Advance(float64(i+1) - p.Now())
				switch {
				case pid == 0:
					f.Send(p, c, payload(i))
				case op.toggle && open:
					f.CloseReceive(p, c)
					open = false
				case op.toggle:
					c = f.OpenReceive(p, "spec", specProto[pid])
					open = true
				case open && f.Check(p, c):
					out[i].got = string(buf[:f.Receive(p, c, buf)])
				}
				out[i].queued = c.QueueLen()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpecAgreesWithCore(t *testing.T) {
	const scripts, ops = 1000, 120
	rng := rand.New(rand.NewSource(48))
	diverged := 0
	first := ""
	for s := range scripts {
		script := specScript(rng, ops)
		want, got := runOnCore(t, script), runOnSpec(t, script)
		for i := range script {
			if got[i] != want[i] {
				diverged++
				if first == "" {
					first = fmt.Sprintf("script %d op %d %+v: core %+v, simmpf %+v", s, i, script[i], want[i], got[i])
				}
				break
			}
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d scripts diverged; first: %s", diverged, scripts, first)
	}
}
