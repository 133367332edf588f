// Package spinlock provides the facility's mutual exclusion: TAS, the
// lock on every circuit, the arena's free pool and each Selector, and
// RW, the circuit name registry's reader/writer lock.
//
// The Sequent Balance 21000 that hosted the original MPF exposed "atomic
// lock memory", bus-snooped bytes with an atomic test-and-set, and MPF
// built all of its mutual exclusion on it. Every MPF process had a CPU to
// itself, so a waiter that spun on a held lock burned only its own cycles
// and took the lock the moment it was freed. This package began as the
// portable copy of that design: test-and-set with exponential backoff,
// and a yield to the scheduler once the backoff ran out.
//
// Goroutines do not own CPUs; they share the runtime's Ps. A waiter that
// spun through its backoff and yielded went to the global run queue,
// where an idle P picked it up, and from then on both parties of a
// circuit ran at once on two Ps, taking every lock, queue and arena line
// from each other. So the locks now park. TAS wraps a sync.Mutex and RW a
// sync.RWMutex: a contended waiter spins a few rounds only while another
// P is running, then sleeps on the runtime semaphore, and the unlock
// readies it onto the releaser's own P, so the two parties of a circuit
// take turns on one core instead of running against each other on two
// (DESIGN.md §16, "Locks park"). A parked waiter costs no CPU, and the
// contention shows in Go's mutex profile and in the
// /sync/mutex/wait/total:seconds metric, attributed to call sites.
//
// Misuse is fatal, as sync's is: unlocking a lock that is not held stops
// the program with "fatal error: sync: ...", which no recover catches.
// Both locks satisfy sync.Locker, so TAS can back a sync.Cond.
package spinlock

import (
	"sync"
	"sync/atomic"
)

// TAS is the facility's mutex. The zero value is an unlocked lock.
type TAS struct {
	mu sync.Mutex
	// acquisitions and contended count lock traffic; they are maintained
	// with atomics and intended for tests and the benchmark harness, not
	// for synchronization.
	acquisitions atomic.Uint64
	contended    atomic.Uint64
}

// Lock acquires l. A Lock that finds l held counts as contended and
// parks until the holder hands l over.
func (l *TAS) Lock() {
	if !l.mu.TryLock() {
		l.contended.Add(1)
		l.mu.Lock()
	}
	l.acquisitions.Add(1)
}

// TryLock attempts to acquire l without blocking and reports success.
func (l *TAS) TryLock() bool {
	ok := l.mu.TryLock()
	if ok {
		l.acquisitions.Add(1)
	}
	return ok
}

// Unlock releases l. Unlocking an unlocked TAS is a fatal error.
func (l *TAS) Unlock() { l.mu.Unlock() }

// Stats reports the number of acquisitions and the number of Lock calls
// that found the lock held.
func (l *TAS) Stats() (acquisitions, contended uint64) {
	return l.acquisitions.Load(), l.contended.Load()
}

// RW is a reader/writer lock. Writers are mutually exclusive with
// everyone; readers only with writers. A blocked writer keeps new readers
// out, so a goroutine must never take a read lock it already holds: the
// second RLock can wait behind a writer that waits for the first. The
// zero value is unlocked.
type RW struct {
	mu sync.RWMutex
	// acquisitions and contended count read and write acquisitions
	// together, as TAS's do.
	acquisitions atomic.Uint64
	contended    atomic.Uint64
}

// RLock acquires a read lock. An RLock that finds a writer holding or
// waiting for l counts as contended and parks.
func (l *RW) RLock() {
	if !l.mu.TryRLock() {
		l.contended.Add(1)
		l.mu.RLock()
	}
	l.acquisitions.Add(1)
}

// RUnlock releases a read lock. Without one held it is a fatal error.
func (l *RW) RUnlock() { l.mu.RUnlock() }

// Lock acquires the write lock. A Lock that finds l held counts as
// contended and parks.
func (l *RW) Lock() {
	if !l.mu.TryLock() {
		l.contended.Add(1)
		l.mu.Lock()
	}
	l.acquisitions.Add(1)
}

// Unlock releases the write lock. Without it held it is a fatal error.
func (l *RW) Unlock() { l.mu.Unlock() }

// Stats reports the number of acquisitions, read and write, and the
// number that found the lock unavailable.
func (l *RW) Stats() (acquisitions, contended uint64) {
	return l.acquisitions.Load(), l.contended.Load()
}
