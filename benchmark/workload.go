package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// counts are the fixed message counts of one repetition. They are set
// per workload for the 2-core reference box and scale only with
// -seconds, never with the machine.
type counts struct {
	// thr sizes the throughput phase: round trips (pingpong_64), sends
	// (stream_*, fanout_1k), batches offered at the overload level
	// (eventloop_mmpp) or BridgeDown+BridgeUp call pairs (xproc_1k).
	thr int
	// lat sizes the latency phase: single messages with one in flight
	// (stream_*, fanout_1k), batches at the reference level
	// (eventloop_mmpp) or single-message bridge calls (xproc_1k).
	// pingpong_64 times its round trips in the throughput phase.
	lat int
}

func (k counts) scale(f float64) counts {
	return counts{thr: max(1, int(float64(k.thr)*f)), lat: max(1, int(float64(k.lat)*f))}
}

// repResult is what one repetition measured.
type repResult struct {
	tally
	deliveries int64         // verified deliveries in the throughput phase
	wall       time.Duration // of the throughput phase
	cpu        time.Duration // process (and live child) CPU over the throughput phase
	lat        []uint32      // latency samples in ns; the slice is reused by the next repetition
	sends      int64         // messages sent in the whole repetition
	c          counters      // counter deltas over the whole repetition
	layer      map[string]float64
	disturbed  bool    // the open-loop generator ran late: latency is suspect
	peakRSS    float64 // MiB, the resident set's high-water mark over the repetition
}

// instance is a workload set up and ready to repeat.
type instance interface {
	// rep runs one repetition; tr is nil in an untraced one.
	rep(k counts, tr *tracer) (repResult, error)
	// close tears the set-up down.
	close() error
}

// workload is one row of the workload table.
type workload struct {
	name string
	why  string
	ref  counts // per repetition at -seconds 10
	// first is the least repetition that makes one verified delivery:
	// what a set-up is timed through.
	first  counts
	reps   int
	setups int // fresh set-ups timed for setup_s before each repetition
	// latPaths is the number of deliveries in sequence one latency
	// sample covers: 2 for a round trip over two circuits.
	latPaths float64
	// pathNs is the cost of one delivery along this workload's path as
	// the single-threaded probes give it.
	pathNs func(p map[string]float64) float64
	open   func(seed int64) (instance, error)
}

var errAborted = errors.New("aborted: the peer goroutine failed")

// barrier is a reusable rendezvous of the two load goroutines that a
// failing party can break, so that its peer does not wait for ever.
type barrier struct {
	arrived atomic.Int32
	gen     atomic.Int32
	failed  chan struct{} // closed by the party that fails
}

func newBarrier() *barrier { return &barrier{failed: make(chan struct{})} }

func (b *barrier) wait() error {
	gen := b.gen.Load()
	if b.arrived.Add(1) == 2 {
		b.arrived.Store(0)
		b.gen.Add(1)
	}
	for b.gen.Load() == gen {
		select {
		case <-b.failed:
			return errAborted
		default:
			runtime.Gosched()
		}
	}
	return nil
}

// runPair runs body as processes 0 and 1: the two threads of control
// every in-process workload loads the facility with. A body that fails
// breaks the barrier and shuts the facility down, which returns its
// peer from wherever it is parked.
func runPair(fac *facility, bar *barrier, body func(p *process) error) error {
	var once sync.Once
	var first error // the failure itself, not the peer's report of the abort
	err := fac.Run(2, func(p *process) error {
		err := body(p)
		if err != nil {
			once.Do(func() {
				first = err
				close(bar.failed)
			})
			fac.Shutdown()
		}
		return err
	})
	if first != nil {
		return first
	}
	return err
}

// clamp32 stores a latency in the sample type.
func clamp32(ns int64) uint32 {
	return uint32(min(max(ns, 0), 1<<32-1))
}
