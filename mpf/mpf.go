// Package mpf is a portable message passing facility for shared-memory
// parallelism, reproducing McGuire, Malony and Reed, "MPF: A Portable
// Message Passing Facility for Shared Memory Multiprocessors" (ICPP
// 1987).
//
// # Model
//
// Communication happens over logical, named virtual circuits (LNVCs):
// conversations that processes join and leave freely. Messages are
// addressed to the circuit, never to a process. A receiver joins with one
// of two protocols:
//
//   - FCFS: all first-come-first-serve receivers share one queue head;
//     each message is consumed by exactly one of them.
//   - Broadcast: every broadcast receiver sees the complete, time-ordered
//     message stream.
//
// The two coexist on one circuit: each message then reaches every
// broadcast receiver and exactly one FCFS receiver. This one abstraction
// expresses dialogues, work queues, group discussions and lectures
// (paper Figure 1).
//
// # Use
//
// Create a Facility, run a group of processes against it, and open
// connections by name:
//
//	fac, _ := mpf.New(mpf.WithMaxProcesses(4))
//	defer fac.Shutdown()
//	fac.Run(2, func(p *mpf.Process) error {
//	    if p.PID() == 0 {
//	        s, _ := p.OpenSend("greetings")
//	        return s.Send([]byte("hello")) // conn closed at Shutdown
//	    }
//	    r, _ := p.OpenReceive("greetings", mpf.FCFS)
//	    defer r.Close()
//	    buf := make([]byte, 64)
//	    n, err := r.Receive(buf)
//	    _ = buf[:n]
//	    return err
//	})
//
// The eight primitives of the paper (init, open_send, open_receive,
// close_send, close_receive, message_send, message_receive,
// check_receive) map to New, Process.OpenSend, Process.OpenReceive,
// SendConn.Close, RecvConn.Close, SendConn.Send, RecvConn.Receive and
// RecvConn.Check. Send is asynchronous; Receive blocks; Check is a
// non-blocking probe whose answer is advisory for FCFS connections
// (another FCFS receiver may win the race — the caveat of paper §2).
// Beyond the eight, Process.ReceiveAny waits on several circuits at
// once and Process.NewSelector builds an event loop over any number
// of them with epoll-style per-circuit wakeups (see Selector).
//
// # Circuit lifetime and lost messages
//
// A circuit exists only while at least one connection is open; the last
// Close deletes it and discards unread messages. A sender that opens,
// sends and closes before any receiver joins therefore loses its
// messages — the paper's §3.2 caveat, preserved deliberately. Programs
// must ensure a receiver (or another sender) stays connected across the
// gap; the usual idiom is a ready handshake on a side circuit before
// the sender's first Send or last Close (see examples/quickstart and
// examples/conversation). Note the sender in the sketch above simply
// never closes, which also keeps the circuit alive until Shutdown.
package mpf

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/stats"
)

// Protocol selects a receiver's delivery discipline.
type Protocol = core.Protocol

// Receiver protocols, as in the paper's open_receive.
const (
	// FCFS receivers share one head pointer; each message is delivered
	// to exactly one of them.
	FCFS = core.FCFS
	// Broadcast receivers each see every message.
	Broadcast = core.Broadcast
)

// ID is MPF's internal circuit identifier.
type ID = core.ID

// Stats aggregates facility-wide operation counters.
type Stats = core.Stats

// LockStat is one registry shard's lock-acquisition counters.
type LockStat = stats.LockStat

// Tracer observes every primitive invocation; see package
// internal/trace for ready-made implementations.
type Tracer = core.Tracer

// Event is one traced primitive invocation.
type Event = core.Event

// Errors a facility can return. These alias the internal definitions so
// errors.Is works across the API boundary.
var (
	ErrBadProcess    = core.ErrBadProcess
	ErrBadLNVC       = core.ErrBadLNVC
	ErrTooManyLNVCs  = core.ErrTooManyLNVCs
	ErrNotConnected  = core.ErrNotConnected
	ErrAlreadyOpen   = core.ErrAlreadyOpen
	ErrNoMemory      = core.ErrNoMemory
	ErrNoCredit      = core.ErrNoCredit
	ErrShutdown      = core.ErrShutdown
	ErrMessageTooBig = core.ErrMessageTooBig
	ErrTimeout       = core.ErrTimeout
)

// Option configures New.
type Option func(*core.Config)

// WithMaxLNVCs bounds the number of simultaneously live circuits
// (default 64).
func WithMaxLNVCs(n int) Option { return func(c *core.Config) { c.MaxLNVCs = n } }

// WithMaxProcesses bounds process ids to [0, n) and scales the shared
// region (default 32).
func WithMaxProcesses(n int) Option { return func(c *core.Config) { c.MaxProcesses = n } }

// WithBlockSize sets the message block size in bytes, including the
// 4-byte link word (default 64; the paper's experiments used 10).
// Smaller blocks raise per-byte overhead exactly as in paper Figure 3.
// Payloads start on block boundaries: at a multiple of 64 every
// View.Bytes and Loan.Bytes window is cache-line aligned.
func WithBlockSize(n int) Option { return func(c *core.Config) { c.BlockSize = n } }

// WithBlocksPerProcess scales the shared region: the block pool holds
// maxProcesses times this many blocks (default 256).
func WithBlocksPerProcess(n int) Option { return func(c *core.Config) { c.BlocksPerProcess = n } }

// WithFailFastSend makes Send return ErrNoMemory when the region is
// exhausted instead of blocking until blocks are recycled.
func WithFailFastSend() Option { return func(c *core.Config) { c.SendPolicy = core.FailFast } }

// WithCredit enables per-circuit credit-based flow control: every
// circuit carries a receiver-granted budget of n accounted blocks (the
// same worst-case BlocksFor unit the capacity checks use), debited when
// a send — Send, SendBatch, Loan or LoanBatch alike — is admitted,
// before its allocation, and re-granted as receivers release the
// blocks (receives, view releases, reclamation).
// A send that would overdraw the budget waits for a grant — or, with
// WithFailFastSend, returns ErrNoCredit — so one hot circuit can no
// longer monopolise the shared region and starve every other tenant
// the way plain block-pool exhaustion lets it. A single message or batch whose demand
// exceeds the whole budget fails with ErrNoCredit under either policy,
// and a sender parked for credit when the circuit's last receiver
// departs fails with ErrNotConnected rather than parking forever.
// Zero (the default) leaves flow control off: admission is the
// connection check alone. Stats reports CreditStalls and
// CreditsHeld; see DESIGN.md §13.
func WithCredit(n int) Option { return func(c *core.Config) { c.CreditBlocks = n } }

// WithTracer installs a tracer receiving one Event per primitive call.
func WithTracer(t Tracer) Option { return func(c *core.Config) { c.Tracer = t } }

// Facility is one MPF instance: the shared region, the circuit name
// space, and the descriptor tables. It corresponds to the state the
// paper's init() builds in shared memory.
type Facility struct {
	c *core.Facility
}

// New creates a facility. It is the paper's init(maxLNVCs,
// maxProcesses); limits are supplied via options.
func New(opts ...Option) (*Facility, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	c, err := core.Init(cfg)
	if err != nil {
		return nil, err
	}
	return &Facility{c: c}, nil
}

// Shutdown tears the facility down; every blocked operation returns
// ErrShutdown. Idempotent.
func (f *Facility) Shutdown() { f.c.Shutdown() }

// Stats returns a snapshot of the facility's operation counters. The
// traffic counters live on the connections and are summed here, one
// circuit lock at a time: read Stats between phases, not per message.
func (f *Facility) Stats() Stats { return f.c.Stats() }

// RegistryStats returns per-shard lock acquisition counters for the
// circuit name registry; index i describes shard i. An idle shard shows
// zero acquisitions; a fought-over one shows a high contended fraction.
func (f *Facility) RegistryStats() []LockStat { return f.c.RegistryStats() }

// MaxProcesses returns the configured process limit.
func (f *Facility) MaxProcesses() int { return f.c.Config().MaxProcesses }

// CircuitCount returns the number of live circuits.
func (f *Facility) CircuitCount() int { return f.c.LNVCCount() }

// Core exposes the underlying implementation for the benchmark harness
// and tests that need descriptor-level introspection.
func (f *Facility) Core() *core.Facility { return f.c }

// CircuitInfo describes one live circuit's descriptor state.
type CircuitInfo = core.Info

// Circuit returns a snapshot of the named circuit's state: queued
// messages, connection counts and head positions — the contents of the
// paper's Figure 2 descriptor — with each connection's traffic (the
// words Stats sums) and the pinned-message, oldest-sequence and
// parked-waiter gauges, for debugging and monitoring.
func (f *Facility) Circuit(name string) (CircuitInfo, bool) {
	id, ok := f.c.LNVCByName(name)
	if !ok {
		return CircuitInfo{}, false
	}
	info, err := f.c.LNVCInfo(id)
	if err != nil {
		return CircuitInfo{}, false
	}
	return info, true
}

// Process binds a process id to the facility. Ids must lie in
// [0, MaxProcesses); the same id must not be used from two goroutines at
// once (a "process" is a single thread of control, as in the paper).
func (f *Facility) Process(pid int) (*Process, error) {
	if pid < 0 || pid >= f.c.Config().MaxProcesses {
		return nil, fmt.Errorf("%w: %d", ErrBadProcess, pid)
	}
	return &Process{fac: f, pid: pid}, nil
}

// Run spawns n processes (ids 0..n-1) as goroutines, calls body for each,
// and waits for all to finish. The first error (by process id) is
// returned; worker panics are recovered into errors.
func (f *Facility) Run(n int, body func(p *Process) error) error {
	g, err := proc.NewGroup(n)
	if err != nil {
		return err
	}
	if n > f.c.Config().MaxProcesses {
		return fmt.Errorf("%w: group of %d exceeds max %d", ErrBadProcess, n, f.c.Config().MaxProcesses)
	}
	return g.Run(func(pid int) error {
		p, err := f.Process(pid)
		if err != nil {
			return err
		}
		return body(p)
	})
}

// Process is one participant in MPF conversations.
type Process struct {
	fac *Facility
	pid int
}

// PID returns the process id.
func (p *Process) PID() int { return p.pid }

// Facility returns the facility this process belongs to.
func (p *Process) Facility() *Facility { return p.fac }

// OpenSend establishes a send connection on the named circuit, creating
// the circuit if it does not exist (paper open_send).
func (p *Process) OpenSend(name string) (*SendConn, error) {
	id, err := p.fac.c.OpenSend(p.pid, name)
	if err != nil {
		return nil, err
	}
	return &SendConn{p: p, id: id, name: name}, nil
}

// OpenReceive establishes a receive connection with the given protocol on
// the named circuit, creating the circuit if it does not exist (paper
// open_receive).
func (p *Process) OpenReceive(name string, proto Protocol) (*RecvConn, error) {
	id, err := p.fac.c.OpenReceive(p.pid, name, proto)
	if err != nil {
		return nil, err
	}
	return &RecvConn{p: p, id: id, name: name, proto: proto}, nil
}

// ReceiveAny blocks until any of the given receive connections (all of
// which must belong to this process) delivers a message, consuming it
// into buf. It returns the index of the connection that delivered and
// the byte count. Scanning is round-robin across calls, so a busy
// circuit cannot starve the others. The paper's idiom for this was a
// check_receive polling loop; ReceiveAny is its blocking equivalent.
func (p *Process) ReceiveAny(conns []*RecvConn, buf []byte) (int, int, error) {
	ids := make([]ID, len(conns))
	for i, c := range conns {
		if c.p.pid != p.pid {
			return 0, 0, fmt.Errorf("%w: connection %d belongs to process %d", ErrBadProcess, i, c.p.pid)
		}
		ids[i] = c.id
	}
	return p.fac.c.ReceiveAny(p.pid, ids, buf)
}

// ReceiveAnyDeadline is ReceiveAny bounded by d.
func (p *Process) ReceiveAnyDeadline(conns []*RecvConn, buf []byte, d time.Duration) (int, int, error) {
	ids := make([]ID, len(conns))
	for i, c := range conns {
		if c.p.pid != p.pid {
			return 0, 0, fmt.Errorf("%w: connection %d belongs to process %d", ErrBadProcess, i, c.p.pid)
		}
		ids[i] = c.id
	}
	return p.fac.c.ReceiveAnyDeadline(p.pid, ids, buf, d)
}

// SendConn is an open send connection to a circuit.
type SendConn struct {
	p    *Process
	id   ID
	name string
}

// ID returns MPF's internal identifier for the circuit.
func (s *SendConn) ID() ID { return s.id }

// Name returns the circuit name.
func (s *SendConn) Name() string { return s.name }

// Send transfers buf to the circuit asynchronously (paper message_send):
// it returns once the payload has been copied into shared message blocks,
// before any receiver runs.
func (s *SendConn) Send(buf []byte) error { return s.p.fac.c.Send(s.p.pid, s.id, buf) }

// SendBatch transfers every buffer in bufs as one message each, paying
// the per-send fixed costs (circuit lock, block allocation, receiver
// wakeup) once for the whole batch. The batch is atomic with respect to
// other senders: its messages occupy consecutive positions in the
// circuit's order. Either all of it is enqueued or none.
func (s *SendConn) SendBatch(bufs [][]byte) error {
	return s.p.fac.c.SendBatch(s.p.pid, s.id, bufs)
}

// Close removes the send connection (paper close_send). If it was the
// circuit's last connection, the circuit is deleted and unread messages
// are discarded.
func (s *SendConn) Close() error { return s.p.fac.c.CloseSend(s.p.pid, s.id) }

// RecvConn is an open receive connection to a circuit.
type RecvConn struct {
	p     *Process
	id    ID
	name  string
	proto Protocol
}

// ID returns MPF's internal identifier for the circuit.
func (r *RecvConn) ID() ID { return r.id }

// Name returns the circuit name.
func (r *RecvConn) Name() string { return r.name }

// Protocol returns the connection's delivery protocol.
func (r *RecvConn) Protocol() Protocol { return r.proto }

// Receive blocks until a message is available for this connection, copies
// it into buf (truncating to len(buf)) and returns the byte count (paper
// message_receive).
func (r *RecvConn) Receive(buf []byte) (int, error) { return r.p.fac.c.Receive(r.p.pid, r.id, buf) }

// ReceiveDeadline is Receive bounded by d: it returns ErrTimeout if no
// message arrives in time.
func (r *RecvConn) ReceiveDeadline(buf []byte, d time.Duration) (int, error) {
	return r.p.fac.c.ReceiveDeadline(r.p.pid, r.id, buf, d)
}

// ReceiveBatch blocks until at least one message is available, then
// consumes as many as are ready — at most one per buffer, each
// truncated to its buffer — under a single circuit lock acquisition.
// It returns the per-message byte counts (one entry per message
// consumed). For FCFS connections the batch claim is atomic: sibling
// receivers cannot interleave within it.
func (r *RecvConn) ReceiveBatch(bufs [][]byte) ([]int, error) {
	return r.p.fac.c.ReceiveBatch(r.p.pid, r.id, bufs)
}

// ReceiveBatchDeadline is ReceiveBatch bounded by d for the first
// message; once one is available the batch never waits for more.
func (r *RecvConn) ReceiveBatchDeadline(bufs [][]byte, d time.Duration) ([]int, error) {
	return r.p.fac.c.ReceiveBatchDeadline(r.p.pid, r.id, bufs, d)
}

// Check reports whether a message is currently available (paper
// check_receive). For FCFS connections the answer is advisory: another
// FCFS receiver may consume the message first.
func (r *RecvConn) Check() (bool, error) { return r.p.fac.c.CheckReceive(r.p.pid, r.id) }

// TryReceive consumes a message like Receive if one is available,
// reporting (n, true); otherwise it returns (0, false) without
// blocking. Unlike a Check-then-Receive pair it cannot lose the race
// against other FCFS receivers (the paper's check_receive caveat).
func (r *RecvConn) TryReceive(buf []byte) (int, bool, error) {
	return r.p.fac.c.TryReceive(r.p.pid, r.id, buf)
}

// Close removes the receive connection (paper close_receive), releasing
// this receiver's claim on any unread messages. If it was the circuit's
// last connection, the circuit is deleted.
func (r *RecvConn) Close() error { return r.p.fac.c.CloseReceive(r.p.pid, r.id) }

// Barrier returns a reusable barrier for n parties, a convenience for
// phase-structured applications (the SOR solver uses one).
func Barrier(n int) (*proc.Barrier, error) { return proc.NewBarrier(n) }
