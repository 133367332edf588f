// Package apps is the process interface the paper's programs are
// written against — its two applications (internal/apps/gauss and
// internal/apps/sor) and its four synthetic benchmarks (internal/bench)
// — and its two backends. Each program is written once, as a function
// of a Proc. Native runs it on a real mpf.Facility, one goroutine per
// process; Simulated runs the same function on the simulated Balance
// 21000 (internal/simmpf on internal/sim), where Compute advances the
// process's clock by the machine's floating-point cost. Messages carry
// their payloads on both, so a simulated run computes — and its caller
// can check — the same answer as a native one.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/balance"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/simmpf"
	"repro/mpf"
)

// Proc is one process of an application.
type Proc interface {
	PID() int
	OpenSend(name string) (SendConn, error)
	OpenReceive(name string, proto mpf.Protocol) (RecvConn, error)
	// Compute accounts for flops floating-point operations the process
	// has just performed.
	Compute(flops int)
	// Barrier returns once every process of the Run has called it. It
	// costs no simulated time.
	Barrier()
	// Rand is the process's random stream: natively its own, seeded
	// 1+pid; simulated, the kernel's single stream, which every process
	// draws from in turn.
	Rand() *rand.Rand
}

// SendConn is an open send connection.
type SendConn interface {
	Send(buf []byte) error
	Close() error
}

// RecvConn is an open receive connection. Receive copies the next
// message into buf and returns the number of bytes copied; Check reports
// whether one is waiting (the paper's check_receive).
type RecvConn interface {
	Receive(buf []byte) (int, error)
	Check() (bool, error)
	Close() error
}

// Runner runs body as processes 0..n-1 and returns the first error by
// process id.
type Runner interface {
	Run(n int, body func(Proc) error) error
}

// Native returns a Runner over fac's Facility.Run. Compute is free
// there: the arithmetic itself is the cost.
func Native(fac *mpf.Facility) Runner { return native{fac} }

type native struct{ fac *mpf.Facility }

func (r native) Run(n int, body func(Proc) error) error {
	bar, err := proc.NewBarrier(n)
	if err != nil {
		return err
	}
	return r.fac.Run(n, func(p *mpf.Process) error { return body(&nativeProc{Process: p, bar: bar}) })
}

type nativeProc struct {
	*mpf.Process
	bar *proc.Barrier
	rng *rand.Rand
}

func (p *nativeProc) Barrier() { p.bar.Wait() }

func (p *nativeProc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(int64(1 + p.PID())))
	}
	return p.rng
}

func (p *nativeProc) OpenSend(name string) (SendConn, error) {
	s, err := p.Process.OpenSend(name)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *nativeProc) OpenReceive(name string, proto mpf.Protocol) (RecvConn, error) {
	r, err := p.Process.OpenReceive(name, proto)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (*nativeProc) Compute(int) {}

// Sim is a Runner on the simulated machine: one simmpf.Facility on a
// fresh sim.Kernel, good for one Run.
type Sim struct {
	m   *balance.Machine
	k   *sim.Kernel
	f   *simmpf.Facility
	bar *sim.Barrier
}

// Simulated returns a Sim modelling machine m. The kernel's stream,
// which only Proc.Rand draws from, is seeded 7.
func Simulated(m *balance.Machine) *Sim {
	k := sim.NewKernel(7)
	return &Sim{m: m, k: k, f: simmpf.New(k, m)}
}

// Run spawns one sim.Proc per process and runs the kernel until no
// process can go on. It returns the first error a process returned, by
// process id; failing that, processes left blocked are a deadlock, and
// an error. (A process that fails usually strands its peers, so its own
// error is the one worth reporting.)
func (s *Sim) Run(n int, body func(Proc) error) error {
	if n < 1 {
		return fmt.Errorf("apps: Run of %d processes", n)
	}
	s.bar = sim.NewBarrier(s.k, n, 0, 0)
	errs := make([]error, n)
	for pid := range n {
		s.k.Spawn(fmt.Sprintf("pid%d", pid), func(p *sim.Proc) {
			errs[pid] = body(simProc{s, p})
		})
	}
	deadlock := s.k.Run()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return deadlock
}

// Seconds returns the simulated time the run took.
func (s *Sim) Seconds() float64 { return s.k.Now() }

// Facility returns the simulated facility, for its traffic counters.
func (s *Sim) Facility() *simmpf.Facility { return s.f }

// simProc is one process on a Sim. The kernel numbers processes in
// spawn order, so a Sim's sim.Proc ids are its pids.
type simProc struct {
	s *Sim
	p *sim.Proc
}

func (p simProc) PID() int { return p.p.ID() }

func (p simProc) OpenSend(name string) (SendConn, error) {
	return simSend{p.s.f, p.p, p.s.f.OpenSend(p.p, name)}, nil
}

func (p simProc) OpenReceive(name string, proto mpf.Protocol) (RecvConn, error) {
	return simRecv{p.s.f, p.p, p.s.f.OpenReceive(p.p, name, proto)}, nil
}

func (p simProc) Compute(flops int) { p.p.Advance(p.s.m.FlopsTime(flops)) }

func (p simProc) Barrier() { p.s.bar.Wait(p.p) }

func (p simProc) Rand() *rand.Rand { return p.s.k.Rand() }

type simSend struct {
	f *simmpf.Facility
	p *sim.Proc
	c *simmpf.Circuit
}

func (c simSend) Send(buf []byte) error { c.f.Send(c.p, c.c, buf); return nil }
func (c simSend) Close() error          { c.f.CloseSend(c.p, c.c); return nil }

type simRecv struct {
	f *simmpf.Facility
	p *sim.Proc
	c *simmpf.Circuit
}

func (c simRecv) Receive(buf []byte) (int, error) { return c.f.Receive(c.p, c.c, buf), nil }
func (c simRecv) Check() (bool, error)            { return c.f.Check(c.p, c.c), nil }
func (c simRecv) Close() error                    { c.f.CloseReceive(c.p, c.c); return nil }
