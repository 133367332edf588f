// Package sim is a deterministic, process-oriented discrete-event
// simulation kernel.
//
// It exists because the paper's evaluation platform — a 20-processor
// Sequent Balance 21000 — no longer exists. The benchmark harness reruns
// the MPF protocol on a simulated machine (internal/balance supplies the
// cost model, internal/simmpf the protocol) to regenerate the paper's
// figures at their original absolute scale.
//
// The kernel is process-oriented: each simulated process is a coroutine
// (iter.Pull), so exactly one runs at any instant — the kernel hands
// control to the process at the head of the event queue and takes it
// back when the process yields (Advance, block on a Mutex/Cond, or
// finish). Ties in simulated time break by event insertion order, so a
// given program produces the same trace every run, which the
// reproduction tests rely on.
package sim

import (
	"container/heap"
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// Time is simulated seconds.
type Time = float64

// Kernel owns the clock and event queue.
type Kernel struct {
	now    Time
	pq     eventHeap
	seq    int64
	rng    *rand.Rand
	procs  []*Proc
	halted bool
}

type event struct {
	t   Time
	seq int64
	p   *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// NewKernel creates a kernel with the given RNG seed; the same seed and
// program yield the same trace.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the simulated clock.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic RNG. Only simulated processes
// may use it (it is not concurrency-safe, but only one process runs at a
// time).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Proc is one simulated process.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState
	// resume runs the process until it next yields or finishes; yield
	// hands control back to the kernel.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// ID returns the process id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the simulated clock.
func (p *Proc) Now() Time { return p.k.now }

// Spawn registers a process whose body starts at the current simulated
// time. Must be called before Run or from within a running process.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{k: k, id: len(k.procs), name: name}
	// A process still blocked when Run ends is never resumed again; its
	// coroutine is left suspended, as a deadlock leaves it.
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
		p.state = stateDone
	})
	k.procs = append(k.procs, p)
	k.schedule(p, k.now)
	return p
}

func (k *Kernel) schedule(p *Proc, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling %q into the past (%g < %g)", p.name, t, k.now))
	}
	k.seq++
	k.pq.pushEvent(event{t: t, seq: k.seq, p: p})
}

// Run drives the simulation until no events remain. It returns an error
// if processes are still blocked at that point (deadlock) — naming them,
// since a deadlocked benchmark is a protocol bug worth diagnosing.
func (k *Kernel) Run() error {
	if k.halted {
		return fmt.Errorf("sim: kernel already ran")
	}
	k.halted = true
	for k.pq.Len() > 0 {
		ev := k.pq.popEvent()
		k.now = ev.t
		p := ev.p
		if p.state == stateDone {
			continue
		}
		p.state = stateRunning
		p.resume()
	}
	var stuck []string
	for _, p := range k.procs {
		if p.state == stateBlocked {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock — %d process(es) still blocked: %v", len(stuck), stuck)
	}
	return nil
}

// pause yields control to the kernel until it resumes this process.
func (p *Proc) pause(next procState) {
	p.state = next
	p.yield(struct{}{})
	p.state = stateRunning
}

// Advance consumes d seconds of simulated time (CPU work). Negative d
// panics.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %q advancing by negative time %g", p.name, d))
	}
	if d == 0 {
		return
	}
	t := p.k.now + d
	if p.k.pq.Len() == 0 || t < p.k.pq.peek().t {
		// The kernel would pop this wakeup next: take it without the
		// round trip. Ties still go through the queue, where earlier
		// arrivals run first.
		p.k.now = t
		return
	}
	p.k.schedule(p, t)
	p.pause(stateReady)
}

// block parks the process with no scheduled wakeup; another process must
// call unblock.
func (p *Proc) block() {
	p.pause(stateBlocked)
}

// unblock schedules p to resume at the current time.
func (p *Proc) unblock(q *Proc) {
	if q.state != stateBlocked {
		panic(fmt.Sprintf("sim: unblocking %q which is not blocked", q.name))
	}
	q.state = stateReady
	p.k.schedule(q, p.k.now)
}

// Mutex is a simulated FCFS mutex. Waiters queue in arrival order, the
// discipline of the Balance's lock hardware under sustained contention.
type Mutex struct {
	k       *Kernel
	owner   *Proc
	waiters []*Proc

	// Contention statistics for the harness.
	acquisitions uint64
	contended    uint64
	waitTime     Time
	lastQueued   map[*Proc]Time
}

// NewMutex creates a mutex on k.
func NewMutex(k *Kernel) *Mutex {
	return &Mutex{k: k, lastQueued: make(map[*Proc]Time)}
}

// Lock acquires m for p, blocking in FCFS order.
func (m *Mutex) Lock(p *Proc) {
	m.acquisitions++
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: %q recursively locking mutex", p.name))
	}
	m.contended++
	m.lastQueued[p] = p.Now()
	m.waiters = append(m.waiters, p)
	p.block()
	// Woken by Unlock, which already transferred ownership.
	if m.owner != p {
		panic("sim: woke from mutex wait without ownership")
	}
	m.waitTime += p.Now() - m.lastQueued[p]
	delete(m.lastQueued, p)
}

// Unlock releases m, handing it to the next waiter if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: %q unlocking mutex it does not own", p.name))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	p.unblock(next)
}

// Stats reports acquisitions, the number that had to queue, and total
// queued time.
func (m *Mutex) Stats() (acquisitions, contended uint64, waitTime Time) {
	return m.acquisitions, m.contended, m.waitTime
}

// Cond is a condition variable bound to a Mutex.
type Cond struct {
	m       *Mutex
	waiters []*Proc
}

// NewCond creates a condition variable on m.
func NewCond(m *Mutex) *Cond { return &Cond{m: m} }

// Wait atomically releases the mutex and blocks until Broadcast or
// Signal, then reacquires the mutex before returning.
func (c *Cond) Wait(p *Proc) {
	if c.m.owner != p {
		panic(fmt.Sprintf("sim: %q waiting on cond without holding mutex", p.name))
	}
	c.waiters = append(c.waiters, p)
	c.m.Unlock(p)
	p.block()
	c.m.Lock(p)
}

// Signal wakes the longest-waiting process, if any. The caller must hold
// the mutex.
func (c *Cond) Signal(p *Proc) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	p.unblock(w)
}

// Broadcast wakes all waiting processes. The caller must hold the mutex.
func (c *Cond) Broadcast(p *Proc) {
	for _, w := range c.waiters {
		p.unblock(w)
	}
	c.waiters = c.waiters[:0]
}

// Waiters returns the number of processes blocked in Wait. Cost models
// use it to charge wakeup work proportional to the number of sleepers.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Barrier is a simulated centralized sense-reversing barrier: each
// arrival takes the barrier lock (paying arrivalCost inside it, which
// serializes arrivals exactly as a counter-under-lock does on a real
// bus-based machine); the last arrival pays wakeupCost per sleeping
// party, the kernel's cost of making them runnable.
type Barrier struct {
	k           *Kernel
	parties     int
	arrivalCost Time
	wakeupCost  Time

	mu      *Mutex
	cond    *Cond
	waiting int
	phase   uint64
}

// NewBarrier creates a barrier for the given number of parties.
func NewBarrier(k *Kernel, parties int, arrivalCost, wakeupCost Time) *Barrier {
	if parties <= 0 {
		panic(fmt.Sprintf("sim: barrier of %d parties", parties))
	}
	mu := NewMutex(k)
	return &Barrier{
		k: k, parties: parties,
		arrivalCost: arrivalCost, wakeupCost: wakeupCost,
		mu: mu, cond: NewCond(mu),
	}
}

// Wait blocks p until all parties have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.mu.Lock(p)
	p.Advance(b.arrivalCost)
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		p.Advance(Time(b.cond.Waiters()) * b.wakeupCost)
		b.cond.Broadcast(p)
		b.mu.Unlock(p)
		return
	}
	myPhase := b.phase
	for b.phase == myPhase {
		b.cond.Wait(p)
	}
	b.mu.Unlock(p)
}
