// Package core implements the MPF message passing facility: logical,
// named virtual circuits (LNVCs) with FCFS and BROADCAST receive
// protocols, layered on the shared-memory arena (internal/shm), message
// blocks (internal/msg) and the locks of internal/spinlock.
//
// # The model (paper §1-2, Figure 1)
//
// An LNVC is a conversation identified by a mutually agreed name.
// Processes join as senders (OpenSend) or receivers (OpenReceive) and may
// leave at any time. Messages are addressed to the LNVC, not to
// processes. Receivers choose a protocol when they join:
//
//   - FCFS: all FCFS receivers share one FIFO head pointer; each message
//     is consumed by exactly one of them, in message order.
//   - Broadcast: each BROADCAST receiver has a private head pointer and
//     observes the complete time-ordered message stream.
//
// The two classes may coexist: a message then goes to every BROADCAST
// receiver and exactly one FCFS receiver. A single process may hold at
// most one receive connection per LNVC (the paper forbids mixing
// protocols within one process) but may hold a send and a receive
// connection simultaneously (the base benchmark's loop-back relies on
// this).
//
// # Descriptor layout (paper §3.1, Figure 2)
//
// Each LNVC descriptor holds the name, the internal identifier, the
// queued-message count, a FIFO of messages (linked list with head and
// tail pointers), the shared FCFS head pointer, per-BROADCAST-receiver
// head pointers inside the receive descriptors, the connection lists, and
// one lock for mutually exclusive access. Send, receive and LNVC
// descriptors are recycled through free lists, as are message blocks.
// Head "pointers" are realised as sequence numbers into the FIFO's total
// order, which makes the close_receive reclamation rule O(1) per receive
// (see reclaim semantics below) instead of the pointer-comparison scan
// the paper laments. The shared FCFS head is additionally kept as a
// pointer to its message, with a count of the queued messages below it:
// an FCFS claim is O(1) and the reclaim scan after a receive visits only
// messages FCFS has already consumed, whatever the queue's depth
// (DESIGN.md §5).
//
// # Message retention and reclamation
//
// The paper defines LNVC lifetime (alive while any connection exists;
// the last close discards the circuit and its unread messages) but leaves
// partially stated when an individual message may be recycled. This
// implementation uses the following rules, chosen to be consistent with
// every behaviour the paper does state (late joiners can pick up queued
// messages; broadcast-only circuits run in bounded memory):
//
//  1. At enqueue, a message records Pending = number of connected
//     BROADCAST receivers and FCFSNeeded = true.
//  2. An FCFS consumption clears FCFSNeeded and advances the shared head.
//  3. A message is recycled when Pending == 0 and either FCFSNeeded is
//     false, or no FCFS receiver is connected while at least one other
//     receiver is (an actively broadcast-only circuit does not hoard).
//  4. If no receivers at all are connected, messages are retained for
//     late joiners — this is exactly the paper's "messages could be lost"
//     scenario: they are lost only if the circuit dies first.
//  5. The first receiver to join an LNVC that holds retained messages
//     inherits the backlog: an FCFS joiner finds the shared head already
//     at the oldest message; a BROADCAST joiner has its private head set
//     to the oldest retained message (and Pending is incremented on each).
//     Later BROADCAST joiners see only messages sent after they join.
//
// # One send path, one claim path
//
// Every send primitive — Send, SendBatch, SendLoan+Commit,
// LoanBatch+CommitAll/CommitN — is "size the demand → admit → a
// msg.Pool.Build* → publish" (send.go): admit validates the call and the
// connection and debits credit before the allocation, publish
// re-validates under the circuit lock, enqueues and wakes receivers
// once. Every receive primitive that names its circuit — Receive,
// TryReceive, ReceiveBatch, ReceiveView, their Deadline forms and
// ReceiveAny's polls — is "waitClaim → read the payload under the pin →
// unpinAll" (lnvc.go): waitClaim is the only loop that parks on a
// circuit's condition variable, claimRunLocked the only one that
// claims a run of messages (the Selector's harvest shares it), and
// unpinAll the only way a pin is dropped. DESIGN.md §6.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/shm"
	"repro/internal/spinlock"
	"repro/internal/stats"
)

// Protocol selects a receiver's delivery discipline (paper §2,
// open_receive's protocol argument).
type Protocol uint8

const (
	// FCFS receivers share one head pointer; each message is delivered
	// to exactly one of them.
	FCFS Protocol = iota
	// Broadcast receivers each see every message.
	Broadcast
)

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case Broadcast:
		return "BROADCAST"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// ID is MPF's internal LNVC identifier, returned by OpenSend/OpenReceive
// and consumed by every other primitive.
type ID int32

// SendPolicy selects behaviour when the shared region's block pool is
// exhausted during Send.
type SendPolicy uint8

const (
	// BlockUntilFree makes Send wait for blocks to be recycled — the
	// behaviour of the paper's fixed-size region.
	BlockUntilFree SendPolicy = iota
	// FailFast makes Send return ErrNoMemory immediately.
	FailFast
)

// Errors returned by the facility.
var (
	ErrBadProcess    = errors.New("mpf: process id out of range")
	ErrBadLNVC       = errors.New("mpf: no such LNVC")
	ErrTooManyLNVCs  = errors.New("mpf: LNVC table full")
	ErrNotConnected  = errors.New("mpf: process has no such connection on LNVC")
	ErrAlreadyOpen   = errors.New("mpf: process already holds this connection type on LNVC")
	ErrNoMemory      = errors.New("mpf: shared region out of message blocks")
	ErrShutdown      = errors.New("mpf: facility shut down")
	ErrNameTooLong   = errors.New("mpf: LNVC name exceeds maximum length")
	ErrEmptyName     = errors.New("mpf: LNVC name must be non-empty")
	ErrMessageTooBig = errors.New("mpf: message exceeds region capacity")
	ErrTimeout       = errors.New("mpf: receive deadline exceeded")
)

// MaxNameLen bounds LNVC names; the paper stores names in fixed-size
// shared-memory descriptor fields.
const MaxNameLen = 128

// Config parameterises Init (the paper's init(maxLNVCs, maxProcesses),
// plus the knobs its text mentions informally).
type Config struct {
	// MaxLNVCs and MaxProcesses bound the descriptor tables and size the
	// shared region, exactly as in the paper's init.
	MaxLNVCs     int
	MaxProcesses int
	// BlockSize is the message block size in bytes including the 4-byte
	// link word. The paper's experiments used 10-byte blocks; the
	// default here is 64. Figure 3's per-block overhead is directly
	// controlled by this knob. Payloads start on block boundaries, so
	// a multiple of 64 puts every payload on a cache line.
	BlockSize int
	// BlocksPerProcess scales the region: the block pool holds
	// MaxProcesses * BlocksPerProcess blocks (default 256).
	BlocksPerProcess int
	// RegistryShards sets how many shards the LNVC name registry is
	// split across (rounded up to a power of two, default 16, capped
	// at 1024). One shard reproduces the paper's single global table
	// lock; more shards let opens and closes on distinct circuits
	// proceed without contending. RegistryStats has one entry per
	// shard. The facade always takes the default; the core tests and
	// the fuzzer set one shard to run the paper's layout.
	RegistryShards int
	// SendPolicy selects Send's behaviour on pool exhaustion.
	SendPolicy SendPolicy
	// CreditBlocks, when positive, enables per-circuit credit-based
	// flow control: every circuit carries a receiver-granted budget of
	// this many accounted blocks (Arena.BlocksFor units), debited when a
	// send is admitted (send.go), before its allocation, and re-granted
	// as receivers release the blocks. A send that would overdraw the
	// budget parks on the circuit's credit waiter list (BlockUntilFree)
	// or fails with ErrNoCredit (FailFast), so one hot circuit can no
	// longer monopolise the region and starve its tenants. Zero (the
	// default) disables the ledger entirely: admission is the connection
	// check alone. See credit.go and DESIGN.md §13.
	CreditBlocks int
	// ClassicChains reverts the shared region to the paper's allocation
	// layout: every block is its own chain element behind a linked free
	// list, so multi-block payloads are always fragmented. The default
	// (false) is the contiguous-span mode, which places each payload in
	// one run of adjacent blocks whenever fragmentation permits — the
	// layout that makes single-segment zero-copy views the common case.
	// The facade always takes the default; the core tests and the fuzzer
	// set ClassicChains to run the paper's layout.
	ClassicChains bool
	// ArenaMem, when non-nil, backs the shared region with
	// caller-provided memory instead of a fresh heap allocation — the
	// cross-process hook: mpf.ServeProc points it at a window of a
	// mapped memfd segment (sized via ArenaConfig(cfg).Bytes()), so
	// every block offset the facility hands out is resolvable by any
	// process that mapped the same segment. The memory must be zeroed.
	ArenaMem []byte
	// Tracer, when non-nil, receives one Event per primitive invocation.
	Tracer Tracer
}

func (c *Config) fillDefaults() {
	if c.MaxLNVCs <= 0 {
		c.MaxLNVCs = 64
	}
	if c.MaxProcesses <= 0 {
		c.MaxProcesses = 32
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.BlocksPerProcess <= 0 {
		c.BlocksPerProcess = 256
	}
	if c.RegistryShards <= 0 {
		c.RegistryShards = defaultRegistryShards
	}
	c.RegistryShards = ceilPow2(c.RegistryShards)
}

// Stats aggregates facility-wide operation counts, read via
// Facility.Stats. The traffic fields are sums, taken at the call, of the
// per-connection words the message paths keep under their circuit's lock
// (traffic.go); the rest are rare-event atomics. Concurrent readers see
// every counter monotonic.
type Stats struct {
	Opens, Closes         uint64
	Sends, Receives       uint64
	BytesSent, BytesRecvd uint64
	Checks                uint64
	LNVCsCreated          uint64
	LNVCsDeleted          uint64
	MessagesDropped       uint64 // discarded unread at LNVC deletion
	ReceiveWaits          uint64 // Receive calls that had to block
	// BatchSends and BatchReceives count SendBatch/ReceiveBatch calls;
	// the individual messages they move are included in Sends/Receives.
	BatchSends    uint64
	BatchReceives uint64
	// MuxWakeups counts ReceiveAny/Selector.Wait park wakeups;
	// MuxSpurious is the subset that found no deliverable message —
	// the thundering-herd cost the per-circuit waiter lists remove
	// (timeouts and shutdown aborts count as neither). MuxHandoffs
	// counts the sends that yielded their P to a multiplexer parked
	// longer than a wake costs (at most one per park).
	MuxWakeups  uint64
	MuxSpurious uint64
	MuxHandoffs uint64
	// RegistryAcquisitions and RegistryContended total the per-shard
	// registry lock counters (see Facility.RegistryStats for the
	// per-shard breakdown).
	RegistryAcquisitions uint64
	RegistryContended    uint64
	// The zero-copy plane's ledger. PayloadCopiesIn counts send-side
	// payload copies (user buffer → blocks: Send/SendBatch);
	// PayloadCopiesOut counts receive-side copies (blocks → user
	// buffer: Receive, TryReceive, ReceiveBatch, ReceiveAny, and
	// View.CopyTo). LoanSends counts messages committed through
	// SendLoan — zero send-side copies — and ViewReceives counts
	// messages claimed through ReceiveView/TryReceiveView — zero
	// receive-side copies.
	PayloadCopiesIn  uint64
	PayloadCopiesOut uint64
	LoanSends        uint64
	ViewReceives     uint64
	// The batched zero-copy plane's ledger. LoanBatchSends counts
	// messages committed through LoanBatch (one arena transaction and
	// one circuit lock acquisition per batch); HarvestedViews counts
	// messages claimed as pinned views inside a Selector wait round
	// (HarvestViews) — one circuit lock acquisition per ready circuit,
	// not per message. Both planes are zero-copy; neither is included
	// in LoanSends/ViewReceives, so the per-message and batched planes
	// stay separately observable.
	LoanBatchSends uint64
	HarvestedViews uint64
	// The credit ledger (Config.CreditBlocks). CreditStalls counts
	// send-side parks for circuit credit — each is a send the budget
	// made wait that the uncredited facility would have admitted
	// straight into the arena. CreditsHeld is a gauge: the accounted
	// blocks currently debited across all live circuits; it returns to
	// zero at quiescence (every message reclaimed, every loan
	// resolved), which is the ledger invariant the protocol fuzzer
	// asserts.
	CreditStalls uint64
	CreditsHeld  uint64
	// Crash robustness (the cross-process reaper/reclaimer). PeerDeaths
	// counts segment peers declared dead and reclaimed; ReclaimedViews
	// counts in-flight descriptors discarded or unpinned during those
	// reclaims (views the dead peer held or would have received);
	// ReclaimedCredits counts credit blocks refunded to the ledger; and
	// ReclaimLatencyNanos accumulates wall time spent inside reclaim —
	// divide by PeerDeaths for the mean death-to-slot-free latency.
	PeerDeaths          uint64
	ReclaimedViews      uint64
	ReclaimedCredits    uint64
	ReclaimLatencyNanos uint64
}

// statsCell holds the counters that no per-message or per-batch path
// writes: connection and circuit lifecycle, park cycles, credit stalls,
// peer deaths. Everything that moves with traffic lives on the
// connections (traffic.go) — except the two copy escape hatches at the
// end, which have no lock hold to ride and so keep a line of their own:
// View.CopyTo counts on viewCopiesOut, and a loan that Loan.CopyFrom
// filled but that never reached a FIFO (aborted, or committed to a
// circuit that had gone) on unsentCopiesIn.
type statsCell struct {
	opens, closes       atomic.Uint64
	lnvcsCreated        atomic.Uint64
	lnvcsDeleted        atomic.Uint64
	messagesDropped     atomic.Uint64
	muxWakeups          atomic.Uint64
	muxSpurious         atomic.Uint64
	muxHandoffs         atomic.Uint64
	creditStalls        atomic.Uint64
	peerDeaths          atomic.Uint64
	reclaimedViews      atomic.Uint64
	reclaimedCredits    atomic.Uint64
	reclaimLatencyNanos atomic.Uint64
	_                   [56]byte

	viewCopiesOut  atomic.Uint64
	unsentCopiesIn atomic.Uint64
	_              [56]byte
}

func (s *statsCell) snapshot() Stats {
	return Stats{
		Opens: s.opens.Load(), Closes: s.closes.Load(),
		LNVCsCreated: s.lnvcsCreated.Load(), LNVCsDeleted: s.lnvcsDeleted.Load(),
		MessagesDropped:     s.messagesDropped.Load(),
		MuxWakeups:          s.muxWakeups.Load(),
		MuxSpurious:         s.muxSpurious.Load(),
		MuxHandoffs:         s.muxHandoffs.Load(),
		CreditStalls:        s.creditStalls.Load(),
		PeerDeaths:          s.peerDeaths.Load(),
		ReclaimedViews:      s.reclaimedViews.Load(),
		ReclaimedCredits:    s.reclaimedCredits.Load(),
		ReclaimLatencyNanos: s.reclaimLatencyNanos.Load(),
		PayloadCopiesIn:     s.unsentCopiesIn.Load(),
		PayloadCopiesOut:    s.viewCopiesOut.Load(),
	}
}

// Facility is one MPF instance: the shared region, descriptor tables and
// name service. It corresponds to the state init() lays out in the
// paper's mapped shared-memory segment.
type Facility struct {
	// The header: words every primitive reads and nothing writes after
	// Init (stopped is written once, by Shutdown). They share no cache
	// line with a word that is written while the facility runs: the
	// groups below are a line's worth of padding apart, which holds at
	// whatever address the allocator puts the struct. Asserted by
	// TestHotWordLayout.
	cfg   Config
	arena *shm.Arena
	pool  *msg.Pool

	// The sharded name registry (see registry.go). Names hash across
	// shards; each shard guards its slice of the name map and its
	// descriptor free list with its own reader/writer lock.
	// Send/Receive/Check translate an ID to a descriptor with a single
	// atomic load of slots — no registry lock at all. Lock order: shard
	// lock before the LNVC lock; idLock is a leaf.
	shards     []registryShard
	shardMask  uint32
	slots      []atomic.Pointer[lnvc] // indexed by ID
	contention *stats.Contention

	stop    chan struct{}
	stopped atomic.Bool
	_       [60]byte

	// Written while the facility runs, by opens, closes and ReceiveAny
	// only. descs lists every LNVC descriptor ever created, append-only
	// under idLock: what Stats sums over.
	idLock  spinlock.TAS
	freeIDs []ID
	descs   []*lnvc

	// anyCursor holds per-process round-robin scan positions for
	// ReceiveAny fairness, guarded by anyMu.
	anyMu     spinlock.TAS
	anyCursor map[int]int
	_         [56]byte

	// The rare-event cell starts on a line of its own.
	stats statsCell
}

// ArenaConfig returns the arena carving Init derives from cfg — block
// size, block count and span mode after defaulting. Callers that back
// the region with a shared segment (Config.ArenaMem) use it to size
// the window before Init runs, and to describe the carving to
// attaching processes in the handshake.
func ArenaConfig(cfg Config) shm.Config {
	cfg.fillDefaults()
	acfg := shm.SizeFor(cfg.MaxLNVCs, cfg.MaxProcesses, cfg.BlockSize, cfg.BlocksPerProcess)
	acfg.Spans = !cfg.ClassicChains
	return acfg
}

// Init creates a facility, allocating the shared region and initialising
// the descriptor free lists (paper §2, init).
func Init(cfg Config) (*Facility, error) {
	cfg.fillDefaults()
	if cfg.BlockSize < shm.MinBlockSize {
		return nil, fmt.Errorf("mpf: block size %d below minimum %d", cfg.BlockSize, shm.MinBlockSize)
	}
	acfg := ArenaConfig(cfg)
	var arena *shm.Arena
	var err error
	if cfg.ArenaMem != nil {
		arena, err = shm.NewAt(acfg, cfg.ArenaMem)
	} else {
		arena, err = shm.New(acfg)
	}
	if err != nil {
		return nil, err
	}
	f := &Facility{
		cfg:        cfg,
		arena:      arena,
		pool:       msg.NewPool(arena, 0),
		shards:     make([]registryShard, cfg.RegistryShards),
		shardMask:  uint32(cfg.RegistryShards - 1),
		slots:      make([]atomic.Pointer[lnvc], cfg.MaxLNVCs),
		contention: stats.NewContention(cfg.RegistryShards),
		stop:       make(chan struct{}),
	}
	perShard := cfg.MaxLNVCs/cfg.RegistryShards + 1
	for i := range f.shards {
		f.shards[i].names = make(map[string]ID, perShard)
	}
	f.freeIDs = make([]ID, 0, cfg.MaxLNVCs)
	for id := cfg.MaxLNVCs - 1; id >= 0; id-- {
		f.freeIDs = append(f.freeIDs, ID(id))
	}
	return f, nil
}

// Shutdown tears the facility down: every blocked Receive or Send returns
// ErrShutdown and all subsequent operations fail. Shutdown is idempotent.
func (f *Facility) Shutdown() {
	if f.stopped.Swap(true) {
		return
	}
	close(f.stop)
	// Wake every receiver blocked on an LNVC condition variable. Slots
	// are read with atomic loads; a descriptor recycled concurrently
	// receives a harmless spurious broadcast (waiters always re-check
	// their predicate).
	for i := range f.slots {
		if l := f.slots[i].Load(); l != nil {
			l.lock.Lock()
			l.cond.Broadcast()
			l.lock.Unlock()
		}
	}
}

// Arena exposes the backing region for tests and the benchmark harness.
func (f *Facility) Arena() *shm.Arena { return f.arena }

// NotePeerReclaim records the outcome of one dead-peer reclamation in
// the facility's counters and trace: views discarded or unpinned,
// credit blocks refunded, and the wall time from death detection to
// the slot returning to free. Called by the cross-process server's
// reclaimer (mpf.ProcServer); it lives here because the counters do.
func (f *Facility) NotePeerReclaim(pid int, views, credits uint64, d time.Duration) {
	f.stats.peerDeaths.Add(1)
	f.stats.reclaimedViews.Add(views)
	f.stats.reclaimedCredits.Add(credits)
	if d > 0 {
		f.stats.reclaimLatencyNanos.Add(uint64(d.Nanoseconds()))
	}
	f.trace(Event{Op: OpPeerReclaim, PID: pid, Bytes: int(views + credits)})
}

// Config returns the effective (default-filled) configuration.
func (f *Facility) Config() Config { return f.cfg }

func (f *Facility) checkPID(pid int) error {
	if pid < 0 || pid >= f.cfg.MaxProcesses {
		return fmt.Errorf("%w: %d (max %d)", ErrBadProcess, pid, f.cfg.MaxProcesses)
	}
	return nil
}

func checkName(name string) error {
	if name == "" {
		return ErrEmptyName
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: %q is %d bytes (max %d)", ErrNameTooLong, name[:16]+"…", len(name), MaxNameLen)
	}
	return nil
}

// lookup translates an ID to its descriptor with one atomic load — the
// Send/Receive hot path takes no registry lock at all.
func (f *Facility) lookup(id ID) (*lnvc, error) {
	if id < 0 || int(id) >= len(f.slots) {
		return nil, fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	l := f.slots[id].Load()
	if l == nil {
		return nil, fmt.Errorf("%w: id %d", ErrBadLNVC, id)
	}
	return l, nil
}

// LNVCByName returns the ID bound to name, for introspection.
func (f *Facility) LNVCByName(name string) (ID, bool) {
	si := f.shardIndex(name)
	s := f.rlockShard(si)
	defer s.lock.RUnlock()
	id, ok := s.names[name]
	return id, ok
}

// LNVCCount returns the number of live LNVCs.
func (f *Facility) LNVCCount() int {
	n := 0
	for i := range f.shards {
		s := f.rlockShard(uint32(i))
		n += len(s.names)
		s.lock.RUnlock()
	}
	return n
}
