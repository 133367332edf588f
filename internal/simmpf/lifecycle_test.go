package simmpf

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/sim"
)

func TestCircuitDeletedAndRecreated(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	var secondGen *Circuit
	k.Spawn("p", func(p *sim.Proc) {
		s := f.OpenSend(p, "cycle")
		f.Send(p, s, make([]byte, 8))
		f.CloseSend(p, s) // last connection: circuit dies, message dropped

		s2 := f.OpenSend(p, "cycle")
		secondGen = s2
		if s2 == s {
			// Allowed (map reuse), but the queue must be fresh.
		}
		r := f.OpenReceive(p, "cycle", FCFS)
		if f.Check(p, r) {
			t.Error("message survived circuit deletion")
		}
		f.Send(p, s2, make([]byte, 4))
		if n := f.Receive(p, r, make([]byte, 4096)); n != 4 {
			t.Errorf("fresh circuit delivered %d bytes", n)
		}
		f.CloseSend(p, s2)
		f.CloseReceive(p, r)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if secondGen.QueueLen() != 0 {
		t.Fatal("queue not empty at end")
	}
}

func TestDoubleOpenPanics(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	recovered := false
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		f.OpenSend(p, "dup")
		f.OpenSend(p, "dup")
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("double open_send did not panic")
	}
}

func TestSendWithoutConnectionPanics(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	recovered := false
	k.Spawn("p", func(p *sim.Proc) {
		s := f.OpenSend(p, "a")
		f.CloseSend(p, s)
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		f.Send(p, s, make([]byte, 4))
	})
	_ = k.Run()
	if !recovered {
		t.Fatal("send after close did not panic")
	}
}

func TestCloseReceiveLastFCFSReleasesHoard(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	k.Spawn("other", func(p *sim.Proc) {
		// A broadcast receiver connected from the start; it consumes
		// its copies of all five messages.
		c := f.OpenReceive(p, "h", Broadcast)
		for i := 0; i < 5; i++ {
			f.Receive(p, c, make([]byte, 4096))
		}
	})
	k.Spawn("p", func(p *sim.Proc) {
		p.Advance(1e-6)
		s := f.OpenSend(p, "h")
		fcfs := f.OpenReceive(p, "h", FCFS)
		for i := 0; i < 5; i++ {
			f.Send(p, s, make([]byte, 8))
		}
		// Wait until the broadcast receiver has drained everything.
		p.Advance(1)
		// The FCFS receiver closes without reading: with only the
		// broadcast receiver left connected, the queue must not hoard
		// the FCFS-claimed messages.
		f.CloseReceive(p, fcfs)
		if s.QueueLen() != 0 {
			t.Errorf("%d messages hoarded after last FCFS close", s.QueueLen())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxQueuedHighWater(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	var c *Circuit
	k.Spawn("p", func(p *sim.Proc) {
		s := f.OpenSend(p, "hw")
		c = s
		r := f.OpenReceive(p, "hw", FCFS)
		for i := 0; i < 7; i++ {
			f.Send(p, s, make([]byte, 4))
		}
		for i := 0; i < 7; i++ {
			f.Receive(p, r, make([]byte, 4096))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.MaxQueued() != 7 {
		t.Fatalf("MaxQueued = %d, want 7", c.MaxQueued())
	}
}
