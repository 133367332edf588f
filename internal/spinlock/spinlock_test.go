package spinlock

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// exercise hammers a sync.Locker with nWorkers goroutines each performing
// nIters increments of a shared counter and checks the final count.
func exercise(t *testing.T, l sync.Locker, nWorkers, nIters int) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < nIters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := nWorkers * nIters; counter != want {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, want)
	}
}

func TestTASMutualExclusion(t *testing.T) {
	exercise(t, &TAS{}, 8, 2000)
}

func TestRWWriteMutualExclusion(t *testing.T) {
	exercise(t, &RW{}, 8, 2000)
}

func TestTASTryLock(t *testing.T) {
	var l TAS
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

// Misuse is a fatal error in sync, not a recoverable panic, so each
// misuse test re-executes the test binary to run only itself with
// misuseEnv set, and reads the child's death from its output.
const misuseEnv = "SPINLOCK_MISUSE_TEST"

func expectFatal(t *testing.T, want string, misuse func()) {
	t.Helper()
	if os.Getenv(misuseEnv) == t.Name() {
		misuse()
		return // the child survived the misuse: the parent reports it
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), misuseEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("misuse did not stop the process; output:\n%s", out)
	}
	if !strings.Contains(string(out), "fatal error: "+want) {
		t.Fatalf("process died without %q; output:\n%s", "fatal error: "+want, out)
	}
}

func TestTASUnlockOfUnlockedPanics(t *testing.T) {
	expectFatal(t, "sync: unlock of unlocked mutex", func() {
		var l TAS
		l.Unlock()
	})
}

func TestRWUnlockNotHeldPanics(t *testing.T) {
	expectFatal(t, "sync: Unlock of unlocked RWMutex", func() {
		var l RW
		l.Unlock()
	})
}

func TestRWRUnlockNotHeldPanics(t *testing.T) {
	expectFatal(t, "sync: RUnlock of unlocked RWMutex", func() {
		var l RW
		l.RUnlock()
	})
}

// TestLockSizes holds TAS at 24 bytes and RW, which carries the same two
// counters over a larger mutex, at 40: TAS sits in the circuit
// descriptor's first line, the arena and the selector, RW in the
// Facility's registry words, and the layouts of all of them are measured in bytes.
func TestLockSizes(t *testing.T) {
	if got := unsafe.Sizeof(TAS{}); got != 24 {
		t.Errorf("TAS is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(RW{}); got != 40 {
		t.Errorf("RW is %d bytes, want 40", got)
	}
}

func TestTASStats(t *testing.T) {
	var l TAS
	l.Lock()
	l.Unlock()
	l.Lock()
	l.Unlock()
	for range 2 { // a Stats read is not an acquisition
		if acq, _ := l.Stats(); acq != 2 {
			t.Fatalf("acquisitions = %d, want 2", acq)
		}
	}
}

func TestRWConcurrentReaders(t *testing.T) {
	var l RW
	l.RLock()
	done := make(chan struct{})
	go func() {
		l.RLock() // must not block while only readers hold the lock
		l.RUnlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second reader blocked behind first reader")
	}
	l.RUnlock()
}

func TestRWWriterExcludesReaders(t *testing.T) {
	var l RW
	l.Lock()
	acquired := make(chan struct{})
	go func() {
		l.RLock()
		close(acquired)
		l.RUnlock()
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired lock while writer held it")
	case <-time.After(50 * time.Millisecond):
		// Expected: reader is waiting.
	}
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never acquired lock after writer released")
	}
}

func TestRWReadersSeeWriterUpdates(t *testing.T) {
	var l RW
	var shared int
	var wg sync.WaitGroup
	const writers, readers, iters = 4, 4, 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				shared++
				l.Unlock()
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < iters; i++ {
				l.RLock()
				v := shared
				l.RUnlock()
				if v < last {
					t.Errorf("shared went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	if shared != writers*iters {
		t.Fatalf("shared = %d, want %d", shared, writers*iters)
	}
}

func TestCondOverTAS(t *testing.T) {
	// TAS must be usable as the Locker under a sync.Cond; core relies
	// on this for blocking message_receive.
	var l TAS
	cond := sync.NewCond(&l)
	ready := false
	done := make(chan struct{})
	go func() {
		l.Lock()
		for !ready {
			cond.Wait()
		}
		l.Unlock()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Lock()
	ready = true
	cond.Broadcast()
	l.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cond.Wait never woke")
	}
}

func BenchmarkTASUncontended(b *testing.B) {
	var l TAS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

func BenchmarkTASContended(b *testing.B) {
	var l TAS
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Lock()
			l.Unlock()
		}
	})
}
