package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The facility's locks park a contended waiter (DESIGN.md §16, "Locks
// park"). These tests hold what that buys and what it must not cost.

// TestMutexProfileSeesCircuitLock contends one circuit from two senders
// and requires Go's mutex profile to attribute the contention to the
// circuit lock in internal/core: a parked waiter is recorded against the
// call site that made it wait, which a spinning one never was.
func TestMutexProfileSeesCircuitLock(t *testing.T) {
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	f := newFac(t)
	id, err := f.OpenSend(0, "profiled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenSend(1, "profiled"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenReceive(2, "profiled", FCFS); err != nil {
		t.Fatal(err)
	}
	before := circuitLockWaits()
	var wg sync.WaitGroup
	for pid := 0; pid < 3; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				var err error
				if pid == 2 {
					_, err = f.Receive(pid, id, buf)
				} else {
					err = f.Send(pid, id, buf)
				}
				if err != nil {
					return // ErrShutdown, once the profile has its sample
				}
			}
		}()
	}
	defer wg.Wait()
	defer f.Shutdown()
	for deadline := time.Now().Add(20 * time.Second); circuitLockWaits() == before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no new mutex profile sample names a lock in internal/core")
		}
	}
}

// circuitLockWaits counts the contention events in the mutex profile
// whose stack has a TAS unlock called from internal/core: waits for a
// circuit lock, or for another lock of the package's own.
func circuitLockWaits() int64 {
	recs := make([]runtime.BlockProfileRecord, 64)
	for {
		n, ok := runtime.MutexProfile(recs)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.BlockProfileRecord, n+64)
	}
	var waits int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for prev := ""; ; {
			fr, more := frames.Next()
			if prev == "repro/internal/spinlock.(*TAS).Unlock" && strings.HasPrefix(fr.Function, "repro/internal/core.") {
				waits += r.Count
				break
			}
			if !more {
				break
			}
			prev = fr.Function
		}
	}
	return waits
}

// TestOversubscribedCircuits is the case the old locks' yield was there
// for: more goroutines than Ps, so a lock holder can be descheduled with
// waiters behind it. Eight goroutines on two Ps share four circuits: one
// sender on each, two FCFS receivers and two BROADCAST receivers on all
// four. Every message must reach exactly one FCFS receiver, every
// BROADCAST receiver must see each circuit's stream complete and in
// order, and the region must drain.
func TestOversubscribedCircuits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nCirc = 4
	nMsgs := 2000
	if testing.Short() {
		nMsgs = 300
	}
	fcfsPIDs, bcastPIDs := []int{4, 5}, []int{6, 7}
	f := newFac(t)
	ids := make([]ID, nCirc)
	for c := range ids {
		name := fmt.Sprintf("over-%d", c)
		var err error
		if ids[c], err = f.OpenSend(c, name); err != nil {
			t.Fatal(err)
		}
		for _, pid := range fcfsPIDs {
			if _, err := f.OpenReceive(pid, name, FCFS); err != nil {
				t.Fatal(err)
			}
		}
		for _, pid := range bcastPIDs {
			if _, err := f.OpenReceive(pid, name, Broadcast); err != nil {
				t.Fatal(err)
			}
		}
	}

	var senders, bcast, fcfs sync.WaitGroup
	for c := range ids {
		senders.Add(1)
		go func() {
			defer senders.Done()
			buf := make([]byte, 4)
			for i := 0; i < nMsgs; i++ {
				binary.LittleEndian.PutUint32(buf, uint32(i))
				if err := f.Send(c, ids[c], buf); err != nil {
					t.Errorf("circuit %d: Send %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	// Every receiver multiplexes the four circuits through a Selector of
	// its own and drains what a Wait reports with TryReceive; take sees
	// each message and says whether to go on.
	circuit := make(map[ID]int, nCirc)
	for c, id := range ids {
		circuit[id] = c
	}
	receive := func(pid int, take func(c, n int, buf []byte) bool) error {
		sel, err := f.NewSelector(pid)
		if err != nil {
			return err
		}
		defer sel.Close()
		for _, id := range ids {
			if err := sel.Add(id); err != nil {
				return err
			}
		}
		buf := make([]byte, 8)
		for {
			ready, err := sel.Wait()
			if err != nil {
				return err
			}
			for _, id := range ready {
				for {
					n, ok, err := f.TryReceive(pid, id, buf)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					if !take(circuit[id], n, buf) {
						return nil
					}
				}
			}
		}
	}
	// BROADCAST receivers know how much is coming; each circuit's stream
	// must arrive whole and in send order.
	for _, pid := range bcastPIDs {
		bcast.Add(1)
		go func() {
			defer bcast.Done()
			next := make([]uint32, nCirc)
			got := 0
			err := receive(pid, func(c, n int, buf []byte) bool {
				if seq := binary.LittleEndian.Uint32(buf); n != 4 || seq != next[c] {
					t.Errorf("BROADCAST receiver %d, circuit %d: got %d bytes, message %d, want message %d", pid, c, n, seq, next[c])
					return false
				}
				next[c]++
				got++
				return got < nCirc*nMsgs
			})
			if err != nil {
				t.Errorf("BROADCAST receiver %d: %v", pid, err)
			}
		}()
	}
	// FCFS receivers share every message between them; they take until
	// Shutdown, and what they took is counted afterwards.
	taken := make([][][]uint32, len(fcfsPIDs))
	var fcfsTotal atomic.Int64
	for r, pid := range fcfsPIDs {
		taken[r] = make([][]uint32, nCirc)
		fcfs.Add(1)
		go func() {
			defer fcfs.Done()
			err := receive(pid, func(c, n int, buf []byte) bool {
				if n != 4 {
					t.Errorf("FCFS receiver %d: %d bytes", pid, n)
					return false
				}
				taken[r][c] = append(taken[r][c], binary.LittleEndian.Uint32(buf))
				fcfsTotal.Add(1)
				return true
			})
			if err != nil && !errors.Is(err, ErrShutdown) {
				t.Errorf("FCFS receiver %d: %v", pid, err)
			}
		}()
	}

	senders.Wait()
	bcast.Wait()
	for deadline := time.Now().Add(30 * time.Second); fcfsTotal.Load() < int64(nCirc*nMsgs); time.Sleep(time.Millisecond) {
		if t.Failed() || time.Now().After(deadline) {
			t.Fatalf("FCFS receivers took %d of %d messages", fcfsTotal.Load(), nCirc*nMsgs)
		}
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Errorf("blocks leaked: %d free of %d", free, total)
	}
	f.Shutdown()
	fcfs.Wait()

	for c := range ids {
		seen := make([]int, nMsgs)
		for r := range taken {
			for k, seq := range taken[r][c] {
				if k > 0 && seq <= taken[r][c][k-1] {
					t.Fatalf("FCFS receiver %d, circuit %d: message %d after %d", fcfsPIDs[r], c, seq, taken[r][c][k-1])
				}
				seen[seq]++
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("circuit %d: message %d delivered %d times to FCFS receivers, want exactly 1", c, i, n)
			}
		}
	}
}
