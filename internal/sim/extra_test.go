package sim

import (
	"math"
	"testing"
)

func TestCondWaiters(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	release := false
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			m.Lock(p)
			for !release {
				c.Wait(p)
			}
			m.Unlock(p)
		})
	}
	k.Spawn("observer", func(p *Proc) {
		p.Advance(1)
		m.Lock(p)
		if got := c.Waiters(); got != 3 {
			t.Errorf("Waiters = %d, want 3", got)
		}
		release = true
		c.Broadcast(p)
		if got := c.Waiters(); got != 0 {
			t.Errorf("Waiters after Broadcast = %d, want 0", got)
		}
		m.Unlock(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	k := NewKernel(0)
	m := NewMutex(k)
	c := NewCond(m)
	var order []int
	turns := 0
	for i := 0; i < 3; i++ {
		idx := i
		stagger := Time(i) * 0.1
		k.Spawn("w", func(p *Proc) {
			p.Advance(stagger)
			m.Lock(p)
			for turns <= idx {
				c.Wait(p)
			}
			order = append(order, idx)
			m.Unlock(p)
		})
	}
	k.Spawn("signaller", func(p *Proc) {
		p.Advance(1)
		for i := 0; i < 3; i++ {
			m.Lock(p)
			turns++
			c.Broadcast(p)
			m.Unlock(p)
			p.Advance(0.1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v (waiters not released in arrival order)", order)
		}
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel(3)
	k.Spawn("named", func(p *Proc) {
		if p.Name() != "named" || p.ID() != 0 || p.Kernel() != k {
			t.Errorf("accessors wrong: %q %d", p.Name(), p.ID())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	// Advancing by NaN or manipulating time backwards must be caught.
	k := NewKernel(0)
	recovered := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		p.Advance(math.Inf(-1))
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("negative-infinity Advance did not panic")
	}
}
