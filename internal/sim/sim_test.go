package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestAdvanceMovesClock(t *testing.T) {
	k := NewKernel(1)
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(1.5)
		p.Advance(0.5)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 2.0 {
		t.Fatalf("end = %g, want 2.0", end)
	}
	if k.Now() != 2.0 {
		t.Fatalf("kernel clock = %g", k.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			delay := Time(i) * 0.25
			k.Spawn(name, func(p *Proc) {
				p.Advance(delay)
				for j := 0; j < 3; j++ {
					log = append(log, fmt.Sprintf("%s@%.2f", p.Name(), p.Now()))
					p.Advance(1)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
	}
	if len(a) != 9 {
		t.Fatalf("trace length %d, want 9", len(a))
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	k := NewKernel(0)
	var order []int
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, p.ID())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestAdvanceOrder holds Advance's two paths to the queue's order: a
// wakeup that ties a queued event runs after it, and one strictly before
// every queued event runs next, without a turn through the queue.
func TestAdvanceOrder(t *testing.T) {
	k := NewKernel(0)
	var trace []string
	mark := func(p *Proc) { trace = append(trace, fmt.Sprintf("%s@%g", p.Name(), p.Now())) }
	k.Spawn("a", func(p *Proc) {
		p.Advance(1) // b is queued at 0
		mark(p)
		p.Advance(0.5) // b is queued at 1
		mark(p)
	})
	k.Spawn("b", func(p *Proc) {
		p.Advance(1) // ties a at 1: a goes first
		mark(p)
		p.Advance(0.25) // before a at 1.5
		mark(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(trace, " "), "a@1 b@1 b@1.25 a@1.5"; got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	k := NewKernel(0)
	var recovered bool
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		p.Advance(-1)
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("negative Advance did not panic")
	}
}

func TestMutexExclusionAndFCFS(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	var order []string
	var inside int
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		stagger := Time(i) * 0.1
		k.Spawn(name, func(p *Proc) {
			p.Advance(stagger)
			m.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("two processes inside critical section")
			}
			order = append(order, p.Name())
			p.Advance(1) // hold the lock for 1s
			inside--
			m.Unlock(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// FCFS: arrival order p0, p1, p2, p3 (staggered).
	if got := strings.Join(order, ","); got != "p0,p1,p2,p3" {
		t.Fatalf("order = %s", got)
	}
	acq, cont, wait := m.Stats()
	if acq != 4 || cont != 3 {
		t.Fatalf("acq/cont = %d/%d", acq, cont)
	}
	// p1 waits 0.9, p2 waits 1.8, p3 waits 2.7.
	if math.Abs(wait-5.4) > 1e-9 {
		t.Fatalf("waitTime = %g, want 5.4", wait)
	}
}

func TestMutexRecursivePanics(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	var recovered bool
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		m.Lock(p)
		m.Lock(p)
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("recursive lock did not panic")
	}
}

func TestMutexUnlockNotOwnerPanics(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	var recovered bool
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		m.Unlock(p)
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("unlock by non-owner did not panic")
	}
}

func TestCondWaitSignal(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	ready := false
	var consumedAt Time
	k.Spawn("consumer", func(p *Proc) {
		m.Lock(p)
		for !ready {
			c.Wait(p)
		}
		consumedAt = p.Now()
		m.Unlock(p)
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(3)
		m.Lock(p)
		ready = true
		c.Signal(p)
		m.Unlock(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if consumedAt != 3 {
		t.Fatalf("consumedAt = %g, want 3", consumedAt)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	go_ := false
	woke := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			for !go_ {
				c.Wait(p)
			}
			woke++
			m.Unlock(p)
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Advance(1)
		m.Lock(p)
		go_ = true
		c.Broadcast(p)
		m.Unlock(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	k.Spawn("stuck", func(p *Proc) {
		m.Lock(p)
		c.Wait(p) // nobody will ever signal
		m.Unlock(p)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("err = %v, want deadlock naming %q", err, "stuck")
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	k := NewKernel(0)
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Advance(1)
		k.Spawn("child", func(c *Proc) {
			if c.Now() != 1 {
				t.Errorf("child started at %g, want 1", c.Now())
			}
			childRan = true
		})
		p.Advance(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestRandDeterministic(t *testing.T) {
	seq := func(seed int64) []int {
		k := NewKernel(seed)
		var out []int
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, k.Rand().Intn(1000))
			}
		})
		k.Run()
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different sequences")
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestKernelRunTwiceRejected(t *testing.T) {
	k := NewKernel(0)
	k.Spawn("p", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestManyProcessesProducerConsumer(t *testing.T) {
	// A sim-level producer/consumer pipeline exercising mutex+cond under
	// load, with a known analytic completion time.
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	queue := 0
	const items = 100
	var consumed int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			p.Advance(0.01)
			m.Lock(p)
			queue++
			c.Signal(p)
			m.Unlock(p)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for consumed < items {
			m.Lock(p)
			for queue == 0 {
				c.Wait(p)
			}
			queue--
			m.Unlock(p)
			p.Advance(0.005)
			consumed++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if consumed != items {
		t.Fatalf("consumed = %d", consumed)
	}
	// Producer is the bottleneck at 0.01s/item; completion ≈ 1.005s.
	if k.Now() < 1.0 || k.Now() > 1.1 {
		t.Fatalf("completion at %g, want ≈1.005", k.Now())
	}
}
