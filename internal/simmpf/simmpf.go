// Package simmpf replays the MPF protocol on the discrete-event kernel
// (internal/sim) under the Balance 21000 cost model (internal/balance).
//
// internal/core is the real, concurrent MPF; this package is its timing
// twin. It executes the same LNVC semantics — FCFS and BROADCAST
// receivers, shared and private head pointers, message retention and
// reclamation — and carries every payload, which simmpf_test.go's
// differential test holds to core's, receive by receive. Each step
// advances a simulated clock by its calibrated cost: fixed per-primitive
// overhead, per-byte and per-block copy time (inflated by the paging
// factor when the workload oversubscribes the machine's 16 MB), and
// descriptor updates performed while holding the LNVC's FCFS lock, which
// is where Figure 4/5's contention effects come from.
//
// Because the sim kernel is logically single-threaded, the data
// structures here need no real synchronization; sim.Mutex models
// *queueing time*, not memory safety.
package simmpf

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/sim"
)

// Protocol aliases the core protocol type so benchmarks share one
// vocabulary.
type Protocol = core.Protocol

// Receiver protocols.
const (
	FCFS      = core.FCFS
	Broadcast = core.Broadcast
)

// Facility is a simulated MPF instance.
type Facility struct {
	k *sim.Kernel
	m *balance.Machine

	circuits map[string]*Circuit

	// pagingFactor scales copy costs; set via SetWorkload.
	pagingFactor float64

	// Aggregate counters.
	sends, receives           uint64
	bytesSent, bytesDelivered uint64
}

// New creates a simulated facility on kernel k with machine model m.
func New(k *sim.Kernel, m *balance.Machine) *Facility {
	return &Facility{
		k:            k,
		m:            m,
		circuits:     make(map[string]*Circuit),
		pagingFactor: 1,
	}
}

// SetWorkload fixes the run's memory picture: nProcs process images plus
// a mapped region of regionBytes. The resulting paging factor scales all
// copy costs for the rest of the run (Figure 6's mechanism).
func (f *Facility) SetWorkload(nProcs int, regionBytes float64) {
	f.pagingFactor = f.m.PagingFactor(f.m.Footprint(nProcs, regionBytes))
}

// PagingFactor returns the copy-cost multiplier currently in force.
func (f *Facility) PagingFactor() float64 { return f.pagingFactor }

// Sent returns total messages and payload bytes sent.
func (f *Facility) Sent() (msgs, bytes uint64) { return f.sends, f.bytesSent }

// Delivered returns total messages and payload bytes delivered to
// receivers.
func (f *Facility) Delivered() (msgs, bytes uint64) { return f.receives, f.bytesDelivered }

// message is a queued simulated message.
type message struct {
	seq        uint64
	payload    []byte
	pending    int
	fcfsNeeded bool
	pins       int
}

// recvState is one receive connection.
type recvState struct {
	proto   Protocol
	headSeq uint64
}

// Circuit is a simulated LNVC.
type Circuit struct {
	f    *Facility
	name string

	mu   *sim.Mutex
	cond *sim.Cond

	queue    []*message
	nextSeq  uint64
	fcfsHead uint64

	sends  map[int]bool
	recvs  map[int]*recvState
	nFCFS  int
	nBcast int

	maxQueued int
}

// MaxQueued returns the high-water mark of the circuit's FIFO length.
func (c *Circuit) MaxQueued() int { return c.maxQueued }

// LockStats exposes the LNVC lock's contention counters.
func (c *Circuit) LockStats() (acquisitions, contended uint64, waitTime sim.Time) {
	return c.mu.Stats()
}

func (f *Facility) circuit(name string) *Circuit {
	c, ok := f.circuits[name]
	if !ok {
		mu := sim.NewMutex(f.k)
		c = &Circuit{
			f:     f,
			name:  name,
			mu:    mu,
			cond:  sim.NewCond(mu),
			sends: make(map[int]bool),
			recvs: make(map[int]*recvState),
		}
		f.circuits[name] = c
	}
	return c
}

// OpenSend establishes a send connection for p, creating the circuit if
// needed.
func (f *Facility) OpenSend(p *sim.Proc, name string) *Circuit {
	c := f.circuit(name)
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead + f.m.DescUpdate)
	if c.sends[p.ID()] {
		panic(fmt.Sprintf("simmpf: %q double open_send on %q", p.Name(), name))
	}
	c.sends[p.ID()] = true
	c.mu.Unlock(p)
	return c
}

// OpenReceive establishes a receive connection with the given protocol.
// The first receiver to join a circuit holding retained messages
// inherits the backlog, as in internal/core.
func (f *Facility) OpenReceive(p *sim.Proc, name string, proto Protocol) *Circuit {
	c := f.circuit(name)
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead + f.m.DescUpdate)
	if _, dup := c.recvs[p.ID()]; dup {
		panic(fmt.Sprintf("simmpf: %q double open_receive on %q", p.Name(), name))
	}
	head := c.nextSeq
	if proto == Broadcast {
		if c.nFCFS+c.nBcast == 0 && len(c.queue) > 0 {
			head = c.queue[0].seq
			for _, m := range c.queue {
				m.pending++
				m.fcfsNeeded = false
			}
		}
		c.nBcast++
	} else {
		c.nFCFS++
	}
	c.recvs[p.ID()] = &recvState{proto: proto, headSeq: head}
	c.mu.Unlock(p)
	return c
}

// CloseSend removes p's send connection.
func (f *Facility) CloseSend(p *sim.Proc, c *Circuit) {
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead + f.m.DescUpdate)
	if !c.sends[p.ID()] {
		panic(fmt.Sprintf("simmpf: %q close_send without connection on %q", p.Name(), c.name))
	}
	delete(c.sends, p.ID())
	c.deleteIfDeadLocked()
	c.mu.Unlock(p)
}

// CloseReceive removes p's receive connection, releasing its claims.
func (f *Facility) CloseReceive(p *sim.Proc, c *Circuit) {
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead + f.m.DescUpdate)
	d, ok := c.recvs[p.ID()]
	if !ok {
		panic(fmt.Sprintf("simmpf: %q close_receive without connection on %q", p.Name(), c.name))
	}
	delete(c.recvs, p.ID())
	if d.proto == Broadcast {
		c.nBcast--
		for _, m := range c.queue {
			if m.seq >= d.headSeq && m.pending > 0 {
				m.pending--
			}
		}
	} else {
		c.nFCFS--
	}
	c.reclaimLocked()
	c.deleteIfDeadLocked()
	c.mu.Unlock(p)
}

func (c *Circuit) deleteIfDeadLocked() {
	if len(c.sends)+len(c.recvs) == 0 {
		c.queue = nil
		delete(c.f.circuits, c.name)
	}
}

// Send transfers a copy of buf to the circuit: fixed overhead and the
// buffer→blocks copy happen outside the lock; the enqueue happens
// inside it.
func (f *Facility) Send(p *sim.Proc, c *Circuit, buf []byte) {
	if !c.sends[p.ID()] {
		panic(fmt.Sprintf("simmpf: %q send without connection on %q", p.Name(), c.name))
	}
	p.Advance(f.m.OpFixed)
	p.Advance(f.pagingFactor * f.m.CopyTime(len(buf)))

	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead + f.m.DescUpdate)
	m := &message{seq: c.nextSeq, payload: append([]byte(nil), buf...), pending: c.nBcast, fcfsNeeded: true}
	c.nextSeq++
	c.queue = append(c.queue, m)
	if len(c.queue) > c.maxQueued {
		c.maxQueued = len(c.queue)
	}
	// Waking blocked receivers is kernel work the sender pays for, one
	// wakeup at a time — with many idle FCFS receivers parked on the
	// circuit this charge is what bends Figure 4's small-message curves
	// downward as receivers are added.
	p.Advance(float64(c.cond.Waiters()) * f.m.LockOverhead)
	c.cond.Broadcast(p)
	c.mu.Unlock(p)
	f.sends++
	f.bytesSent += uint64(len(buf))
}

// Receive blocks until a message is available for p's connection,
// copies its payload into buf, pays for the blocks→buffer copy and
// returns the number of bytes copied: min(message length, len(buf)), as
// internal/core's Receive.
func (f *Facility) Receive(p *sim.Proc, c *Circuit, buf []byte) int {
	p.Advance(f.m.OpFixed)
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead)
	d, ok := c.recvs[p.ID()]
	if !ok {
		panic(fmt.Sprintf("simmpf: %q receive without connection on %q", p.Name(), c.name))
	}
	var m *message
	for {
		m = c.availableLocked(d)
		if m != nil {
			break
		}
		c.cond.Wait(p)
		// Each wakeup re-examines the descriptor while holding the
		// lock; with many blocked receivers this re-check traffic is
		// the contention that bends Figure 4's small-message curves.
		p.Advance(f.m.LockOverhead)
	}
	p.Advance(f.m.DescUpdate)
	if d.proto == FCFS {
		m.fcfsNeeded = false
		c.fcfsHead = m.seq + 1
	} else {
		d.headSeq = m.seq + 1
		m.pending--
	}
	m.pins++
	c.mu.Unlock(p)

	n := copy(buf, m.payload)
	p.Advance(f.pagingFactor * f.m.CopyTime(n))

	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead)
	m.pins--
	c.reclaimLocked()
	c.mu.Unlock(p)

	f.receives++
	f.bytesDelivered += uint64(n)
	return n
}

// Check reports whether a message is available for p's connection,
// without blocking.
func (f *Facility) Check(p *sim.Proc, c *Circuit) bool {
	c.mu.Lock(p)
	p.Advance(f.m.LockOverhead)
	d, ok := c.recvs[p.ID()]
	if !ok {
		panic(fmt.Sprintf("simmpf: %q check without connection on %q", p.Name(), c.name))
	}
	avail := c.availableLocked(d) != nil
	c.mu.Unlock(p)
	return avail
}

func (c *Circuit) availableLocked(d *recvState) *message {
	if d.proto == FCFS {
		for _, m := range c.queue {
			if m.fcfsNeeded && m.seq >= c.fcfsHead {
				return m
			}
		}
		return nil
	}
	for _, m := range c.queue {
		if m.seq >= d.headSeq {
			return m
		}
	}
	return nil
}

func (c *Circuit) reclaimLocked() {
	bcastOnly := c.nFCFS == 0 && c.nBcast > 0
	kept := c.queue[:0]
	for _, m := range c.queue {
		dead := m.pins == 0 && m.pending == 0 && (!m.fcfsNeeded || bcastOnly)
		if !dead {
			kept = append(kept, m)
		}
	}
	c.queue = kept
}

// QueueLen returns the circuit's current FIFO length (for tests).
func (c *Circuit) QueueLen() int { return len(c.queue) }
