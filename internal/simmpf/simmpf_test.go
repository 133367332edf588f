package simmpf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/balance"
	"repro/internal/sim"
)

func run(t *testing.T, body func(k *sim.Kernel, f *Facility)) *sim.Kernel {
	t.Helper()
	k := sim.NewKernel(1)
	f := New(k, balance.Balance21000())
	body(k, f)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLoopbackRoundCost(t *testing.T) {
	// One process sends and receives one 1024-byte message: elapsed time
	// must be ≈ SendTime + ReceiveTime plus small lock/desc overheads.
	m := balance.Balance21000()
	var elapsed sim.Time
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("base", func(p *sim.Proc) {
			s := f.OpenSend(p, "loop")
			r := f.OpenReceive(p, "loop", FCFS)
			start := p.Now()
			f.Send(p, s, make([]byte, 1024))
			n := f.Receive(p, r, make([]byte, 4096))
			if n != 1024 {
				t.Errorf("received %d bytes", n)
			}
			elapsed = p.Now() - start
		})
	})
	ideal := m.SendTime(1024) + m.ReceiveTime(1024)
	if elapsed < ideal || elapsed > ideal*1.1 {
		t.Fatalf("round = %g s, want within 10%% above %g", elapsed, ideal)
	}
}

func TestBaseAsymptoteNear25KBps(t *testing.T) {
	// The paper's Figure 3 asymptote: large-message loop-back throughput
	// ≈ 25,000 bytes/s.
	const msgLen, rounds = 2048, 50
	var thr float64
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("base", func(p *sim.Proc) {
			s := f.OpenSend(p, "loop")
			r := f.OpenReceive(p, "loop", FCFS)
			start := p.Now()
			for i := 0; i < rounds; i++ {
				f.Send(p, s, make([]byte, msgLen))
				f.Receive(p, r, make([]byte, 4096))
			}
			thr = float64(msgLen*rounds) / (p.Now() - start)
		})
	})
	if thr < 20000 || thr > 27000 {
		t.Fatalf("base throughput = %.0f bytes/s, want ≈25,000", thr)
	}
}

func TestFCFSDeliveryExactlyOnce(t *testing.T) {
	const nRecv, nMsgs = 4, 40
	counts := make([]int, nRecv)
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("sender", func(p *sim.Proc) {
			s := f.OpenSend(p, "work")
			for i := 0; i < nMsgs; i++ {
				f.Send(p, s, make([]byte, 16))
			}
			f.CloseSend(p, s)
		})
		for i := 0; i < nRecv; i++ {
			idx := i
			k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "work", FCFS)
				for j := 0; j < nMsgs/nRecv; j++ {
					f.Receive(p, c, make([]byte, 4096))
					counts[idx]++
				}
				f.CloseReceive(p, c)
			})
		}
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != nMsgs {
		t.Fatalf("delivered %d, want %d", total, nMsgs)
	}
}

func TestBroadcastAllReceiversSeeAll(t *testing.T) {
	const nRecv, nMsgs = 6, 30
	var got [nRecv]int
	var facility *Facility
	run(t, func(k *sim.Kernel, f *Facility) {
		facility = f
		// Receivers join first so no backlog subtleties arise.
		for i := 0; i < nRecv; i++ {
			idx := i
			k.Spawn(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "news", Broadcast)
				for j := 0; j < nMsgs; j++ {
					if n := f.Receive(p, c, make([]byte, 4096)); n != 128 {
						t.Errorf("length %d", n)
					}
					got[idx]++
				}
				f.CloseReceive(p, c)
			})
		}
		k.Spawn("sender", func(p *sim.Proc) {
			p.Advance(0.001) // let receivers open first
			s := f.OpenSend(p, "news")
			for i := 0; i < nMsgs; i++ {
				f.Send(p, s, make([]byte, 128))
			}
			f.CloseSend(p, s)
		})
	})
	for i, g := range got {
		if g != nMsgs {
			t.Fatalf("receiver %d got %d messages, want %d", i, g, nMsgs)
		}
	}
	msgs, bytes := facility.Delivered()
	if msgs != nRecv*nMsgs || bytes != nRecv*nMsgs*128 {
		t.Fatalf("delivered = %d msgs %d bytes", msgs, bytes)
	}
}

func TestBroadcastConcurrencyBeatsSerial(t *testing.T) {
	// N broadcast receivers copying concurrently must achieve close to
	// N× the single-receiver delivered throughput for large messages —
	// the effect Figure 5 demonstrates.
	elapsed := func(nRecv int) sim.Time {
		k := sim.NewKernel(1)
		f := New(k, balance.Balance21000())
		const nMsgs = 30
		for i := 0; i < nRecv; i++ {
			k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "b", Broadcast)
				for j := 0; j < nMsgs; j++ {
					f.Receive(p, c, make([]byte, 4096))
				}
				f.CloseReceive(p, c)
			})
		}
		k.Spawn("s", func(p *sim.Proc) {
			p.Advance(0.001)
			s := f.OpenSend(p, "b")
			for i := 0; i < nMsgs; i++ {
				f.Send(p, s, make([]byte, 1024))
			}
			f.CloseSend(p, s)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	t1, t8 := elapsed(1), elapsed(8)
	// 8 receivers get 8× the bytes; if copies were serialized the run
	// would take ≈8× as long. Concurrency should keep it under 2×.
	if t8 > 2*t1 {
		t.Fatalf("8 receivers took %.3f s vs %.3f s for 1 — copies not concurrent", t8, t1)
	}
}

func TestLockContentionGrowsWithReceivers(t *testing.T) {
	// Small messages with many FCFS receivers contend for the LNVC lock
	// (Figure 4's declining small-message curves).
	waitFor := func(nRecv int) sim.Time {
		k := sim.NewKernel(1)
		f := New(k, balance.Balance21000())
		const nMsgs = 200
		var circuit *Circuit
		k.Spawn("s", func(p *sim.Proc) {
			s := f.OpenSend(p, "w")
			circuit = s
			for i := 0; i < nMsgs; i++ {
				f.Send(p, s, make([]byte, 16))
			}
			for i := 0; i < nRecv; i++ {
				f.Send(p, s, make([]byte, 0)) // poison per receiver
			}
			f.CloseSend(p, s)
		})
		for i := 0; i < nRecv; i++ {
			k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "w", FCFS)
				for {
					if n := f.Receive(p, c, make([]byte, 4096)); n == 0 {
						break
					}
				}
				f.CloseReceive(p, c)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		_, _, wait := circuit.LockStats()
		return wait
	}
	if w1, w8 := waitFor(1), waitFor(8); w8 <= w1 {
		t.Fatalf("lock wait with 8 receivers (%g) not above 1 receiver (%g)", w8, w1)
	}
}

func TestPagingFactorScalesCopies(t *testing.T) {
	m := balance.Balance21000()
	elapsed := func(regionBytes float64) sim.Time {
		k := sim.NewKernel(1)
		f := New(k, m)
		f.SetWorkload(16, regionBytes)
		k.Spawn("p", func(p *sim.Proc) {
			s := f.OpenSend(p, "x")
			r := f.OpenReceive(p, "x", FCFS)
			for i := 0; i < 20; i++ {
				f.Send(p, s, make([]byte, 1024))
				f.Receive(p, r, make([]byte, 4096))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	small, big := elapsed(1<<20), elapsed(24<<20)
	if big <= small {
		t.Fatalf("oversubscribed run (%g) not slower than resident run (%g)", big, small)
	}
	if f := New(sim.NewKernel(0), m); f.PagingFactor() != 1 {
		t.Fatal("default paging factor must be 1")
	}
}

func TestRetainedBacklogFirstBroadcastJoiner(t *testing.T) {
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("s", func(p *sim.Proc) {
			s := f.OpenSend(p, "bk")
			for i := 0; i < 3; i++ {
				f.Send(p, s, make([]byte, 8))
			}
		})
		k.Spawn("r", func(p *sim.Proc) {
			p.Advance(1) // join after the sends
			c := f.OpenReceive(p, "bk", Broadcast)
			for i := 0; i < 3; i++ {
				if n := f.Receive(p, c, make([]byte, 4096)); n != 8 {
					t.Errorf("backlog message %d: length %d", i, n)
				}
			}
			if f.Check(p, c) {
				t.Error("extra message visible")
			}
		})
	})
}

func TestBroadcastOnlyCircuitReclaims(t *testing.T) {
	var q *Circuit
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("r", func(p *sim.Proc) {
			c := f.OpenReceive(p, "bo", Broadcast)
			q = c
			for i := 0; i < 50; i++ {
				f.Receive(p, c, make([]byte, 4096))
			}
		})
		k.Spawn("s", func(p *sim.Proc) {
			p.Advance(0.001)
			s := f.OpenSend(p, "bo")
			for i := 0; i < 50; i++ {
				f.Send(p, s, make([]byte, 64))
			}
		})
	})
	if q.QueueLen() != 0 {
		t.Fatalf("%d messages hoarded", q.QueueLen())
	}
}

func TestCloseReceiveReleasesClaims(t *testing.T) {
	var q *Circuit
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("main", func(p *sim.Proc) {
			s := f.OpenSend(p, "vex")
			q = s
			r1 := f.OpenReceive(p, "vex", Broadcast)
			for i := 0; i < 10; i++ {
				f.Send(p, s, make([]byte, 32))
			}
			// This process read nothing; a second receiver reads all.
			_ = r1
		})
		k.Spawn("other", func(p *sim.Proc) {
			p.Advance(0.5)
			r2 := f.OpenReceive(p, "vex", Broadcast)
			_ = r2
			// Joined after the sends: sees nothing (not first receiver).
			if f.Check(p, r2) {
				t.Error("late broadcast joiner sees backlog")
			}
			f.CloseReceive(p, r2)
		})
		k.Spawn("closer", func(p *sim.Proc) {
			// The first receiver closes at t=1 without reading: all 10
			// messages become garbage.
			p.Advance(1)
		})
	})
	_ = q
}

func TestDeterministicElapsed(t *testing.T) {
	runOnce := func() sim.Time {
		k := sim.NewKernel(9)
		f := New(k, balance.Balance21000())
		for i := 0; i < 4; i++ {
			k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "d", FCFS)
				for j := 0; j < 25; j++ {
					f.Receive(p, c, make([]byte, 4096))
				}
			})
		}
		k.Spawn("s", func(p *sim.Proc) {
			s := f.OpenSend(p, "d")
			for i := 0; i < 100; i++ {
				f.Send(p, s, make([]byte, 64))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestCheckNonBlocking(t *testing.T) {
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("p", func(p *sim.Proc) {
			s := f.OpenSend(p, "c")
			r := f.OpenReceive(p, "c", FCFS)
			before := p.Now()
			if f.Check(p, r) {
				t.Error("empty circuit reports message")
			}
			// Check costs only lock overhead, never blocks.
			if p.Now()-before > 0.001 {
				t.Errorf("check took %g s", p.Now()-before)
			}
			f.Send(p, s, make([]byte, 4))
			if !f.Check(p, r) {
				t.Error("message not visible")
			}
		})
	})
}

func TestMixedProtocolDelivery(t *testing.T) {
	fcfsGot, bcastGot := 0, 0
	run(t, func(k *sim.Kernel, f *Facility) {
		k.Spawn("bcast", func(p *sim.Proc) {
			c := f.OpenReceive(p, "mx", Broadcast)
			for i := 0; i < 10; i++ {
				f.Receive(p, c, make([]byte, 4096))
				bcastGot++
			}
		})
		k.Spawn("fcfs", func(p *sim.Proc) {
			c := f.OpenReceive(p, "mx", FCFS)
			for i := 0; i < 10; i++ {
				f.Receive(p, c, make([]byte, 4096))
				fcfsGot++
			}
		})
		k.Spawn("s", func(p *sim.Proc) {
			p.Advance(0.001)
			s := f.OpenSend(p, "mx")
			for i := 0; i < 10; i++ {
				f.Send(p, s, make([]byte, 16))
			}
		})
	})
	if fcfsGot != 10 || bcastGot != 10 {
		t.Fatalf("fcfs=%d bcast=%d, want 10/10", fcfsGot, bcastGot)
	}
}

func TestSendThroughputIndependentOfReceiverCount(t *testing.T) {
	// The paper: "the actual message transmission rate is unchanged from
	// the fcfs benchmark" — the sender's rate for large messages is the
	// same no matter how many broadcast receivers listen (± contention).
	rate := func(nRecv int) float64 {
		k := sim.NewKernel(1)
		f := New(k, balance.Balance21000())
		const nMsgs = 40
		var sendDone sim.Time
		for i := 0; i < nRecv; i++ {
			k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				c := f.OpenReceive(p, "t", Broadcast)
				for j := 0; j < nMsgs; j++ {
					f.Receive(p, c, make([]byte, 4096))
				}
			})
		}
		k.Spawn("s", func(p *sim.Proc) {
			p.Advance(0.001)
			s := f.OpenSend(p, "t")
			start := p.Now()
			for i := 0; i < nMsgs; i++ {
				f.Send(p, s, make([]byte, 1024))
			}
			sendDone = p.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(nMsgs*1024) / sendDone
	}
	r1, r8 := rate(1), rate(8)
	if math.Abs(r8-r1)/r1 > 0.35 {
		t.Fatalf("sender rate changed too much: %0.f vs %0.f", r1, r8)
	}
}
