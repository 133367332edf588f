//go:build unix

package spinlock

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the user plus system time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// holdFor keeps a lock for 50 ms while a waiter is blocked on it and
// requires the process to have used at most a fifth of one CPU meanwhile.
// The locks this package had before, test-and-set with backoff and a
// yield, fail it by construction: their waiter spun and yielded through
// the whole hold, about one CPU's worth.
func holdFor(t *testing.T, waiting func() bool, release func(), acquired <-chan struct{}) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !waiting(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never reached the lock")
		}
	}
	const hold = 50 * time.Millisecond
	cpu0, wall0 := processCPU(t), time.Now()
	time.Sleep(hold)
	cpu, wall := processCPU(t)-cpu0, time.Since(wall0)
	select {
	case <-acquired:
		t.Fatal("the waiter took the lock while it was held")
	default:
	}
	release()
	<-acquired
	if cpu > wall/5 {
		t.Errorf("a waiter blocked for %v cost %v of CPU, want at most %v: it polls instead of sleeping", wall, cpu, wall/5)
	}
}

func TestContendedLockParks(t *testing.T) {
	t.Run("TAS", func(t *testing.T) {
		var l TAS
		l.Lock()
		acquired := make(chan struct{})
		go func() {
			l.Lock()
			close(acquired)
			l.Unlock()
		}()
		holdFor(t, func() bool { return l.Contended() > 0 }, l.Unlock, acquired)
	})
	t.Run("RW", func(t *testing.T) {
		// RW counts a contended RLock before it parks, and its Stats
		// take no lock.
		var l RW
		l.Lock()
		acquired := make(chan struct{})
		go func() {
			l.RLock()
			close(acquired)
			l.RUnlock()
		}()
		holdFor(t, func() bool { _, c := l.Stats(); return c > 0 }, l.Unlock, acquired)
	})
}
