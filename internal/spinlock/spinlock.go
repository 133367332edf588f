// Package spinlock provides busy-waiting mutual exclusion primitives built
// on sync/atomic.
//
// The Sequent Balance 21000 that hosted the original MPF implementation
// exposed "atomic lock memory": a region of bus-snooped bytes supporting an
// atomic test-and-set, on which all of MPF's mutual exclusion was built.
// This package is the portable analogue. Every LNVC descriptor in
// internal/core is guarded by one of these locks, so their contention
// behaviour under many receivers is directly visible in the Figure 4 and
// Figure 6 benchmarks.
//
// Two lock flavours are provided:
//
//   - TAS: plain test-and-set with exponential backoff. Lowest uncontended
//     latency, no fairness guarantee.
//   - RW: a reader/writer spin lock for mostly-read descriptor tables
//     (the LNVC name table).
//
// All locks satisfy sync.Locker so they can back a sync.Cond.
package spinlock

import (
	"runtime"
	"sync/atomic"
)

// maxBackoffSpins bounds the exponential backoff between test-and-set
// attempts. Beyond this the goroutine yields to the scheduler so that a
// lock holder descheduled by the runtime can make progress (goroutines,
// unlike the paper's Unix processes, share OS threads).
const maxBackoffSpins = 1 << 7

// TAS is a test-and-set spin lock with exponential backoff.
// The zero value is an unlocked lock.
type TAS struct {
	state atomic.Uint32
	// acquisitions and contended count lock traffic; they are maintained
	// with atomics and intended for tests and the benchmark harness, not
	// for synchronization.
	acquisitions atomic.Uint64
	contended    atomic.Uint64
}

// Lock acquires l, spinning until it is available.
func (l *TAS) Lock() {
	if l.state.CompareAndSwap(0, 1) {
		l.acquisitions.Add(1)
		return
	}
	l.contended.Add(1)
	backoff := 1
	for {
		// Test-and-test-and-set: spin on a plain load to avoid
		// hammering the cache line with RMW traffic, the classic
		// shared-bus courtesy the Balance required too.
		for l.state.Load() != 0 {
			for i := 0; i < backoff; i++ {
				spinHint()
			}
			if backoff < maxBackoffSpins {
				backoff <<= 1
			} else {
				runtime.Gosched()
			}
		}
		if l.state.CompareAndSwap(0, 1) {
			l.acquisitions.Add(1)
			return
		}
	}
}

// TryLock attempts to acquire l without blocking and reports success.
func (l *TAS) TryLock() bool {
	ok := l.state.CompareAndSwap(0, 1)
	if ok {
		l.acquisitions.Add(1)
	}
	return ok
}

// Unlock releases l. Unlocking an unlocked TAS panics: that is always a
// caller bug and silently continuing would corrupt mutual exclusion.
func (l *TAS) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("spinlock: Unlock of unlocked TAS lock")
	}
}

// Stats reports the number of acquisitions and the number of Lock calls
// that found the lock held.
func (l *TAS) Stats() (acquisitions, contended uint64) {
	return l.acquisitions.Load(), l.contended.Load()
}

// RW is a reader/writer spin lock. Writers are mutually exclusive with
// everyone; readers only with writers. Writer preference is not
// implemented: the MPF name table is read-mostly and short-held, so reader
// throughput matters more than writer latency. The zero value is unlocked.
type RW struct {
	// readers counts active readers; -1 marks an active writer.
	readers atomic.Int32
}

// RLock acquires a read lock.
func (l *RW) RLock() {
	backoff := 1
	for {
		cur := l.readers.Load()
		if cur >= 0 && l.readers.CompareAndSwap(cur, cur+1) {
			return
		}
		for i := 0; i < backoff; i++ {
			spinHint()
		}
		if backoff < maxBackoffSpins {
			backoff <<= 1
		} else {
			runtime.Gosched()
		}
	}
}

// TryRLock attempts to acquire a read lock without spinning and reports
// success. A false return means a writer holds the lock or won a race
// this instant; callers that keep contention statistics (the sharded
// LNVC registry) probe with TryRLock first and fall back to RLock.
func (l *RW) TryRLock() bool {
	cur := l.readers.Load()
	return cur >= 0 && l.readers.CompareAndSwap(cur, cur+1)
}

// RUnlock releases a read lock.
func (l *RW) RUnlock() {
	if l.readers.Add(-1) < 0 {
		panic("spinlock: RUnlock without RLock")
	}
}

// Lock acquires the write lock.
func (l *RW) Lock() {
	backoff := 1
	for {
		if l.readers.CompareAndSwap(0, -1) {
			return
		}
		for i := 0; i < backoff; i++ {
			spinHint()
		}
		if backoff < maxBackoffSpins {
			backoff <<= 1
		} else {
			runtime.Gosched()
		}
	}
}

// TryLock attempts to acquire the write lock without spinning and
// reports success.
func (l *RW) TryLock() bool {
	return l.readers.CompareAndSwap(0, -1)
}

// Unlock releases the write lock.
func (l *RW) Unlock() {
	if !l.readers.CompareAndSwap(-1, 0) {
		panic("spinlock: Unlock of RW lock not write-held")
	}
}

// spinHint burns a few cycles politely. Go has no portable PAUSE
// intrinsic in the stdlib; a bounded empty loop with a compiler barrier
// through atomics is the conventional substitute.
//
//go:noinline
func spinHint() {
	// The atomic load prevents the loop from being optimised away and
	// roughly matches the cost of a cache probe.
	_ = dummy.Load()
}

var dummy atomic.Uint32
