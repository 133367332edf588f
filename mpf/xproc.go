package mpf

// Cross-process MPF. The paper's facility served "a group of Unix
// processes" sharing one mapped region; this file is that deployment
// shape for the port. One process — the server — runs the full
// facility over an arena carved out of a memfd segment (ServeProc).
// Child processes receive the segment fd and a layout handshake over
// an inherited unix socket (AttachProc), map the same physical pages
// at their own base address, claim a descriptor-table slot, and from
// then on speak only through in-segment SPSC rings whose records carry
// segment offsets. Payload bytes are written and read in place in the
// shared mapping — the copy ledger stays at zero across the process
// boundary, which examples/procdemo and the CI cross-process leg
// assert.
//
// The division of labour (DESIGN.md §15): the server owns the arena
// allocator and every LNVC descriptor; children are raw segment peers.
// A bridge per child translates between the facility's batched
// zero-copy plane and the child's rings. Both directions are the same
// sliding-window loop (runBridge), moving chunks of up to maxChunk
// records:
//
//	down:  LoanBatch → fill → CommitAll → WaitViews → one PushBatch of
//	       VIEW records → the child verifies each payload in place and
//	       answers the run with one PushBatch of ACKs → ReleaseViews
//	up:    LoanBatch → one PushBatch of LOAN records → the child fills
//	       each window in place and answers with FILLED records →
//	       CommitAll → WaitViews → verify → ReleaseViews
//
// Both directions move every payload byte through the circuit exactly
// once with zero copies on either side of the boundary, and both pay
// the arena transaction, the circuit lock, the ring's index store and
// the futex wake once per chunk, not once per message.
//
// The window W — how many records a call keeps in flight — is derived,
// not configured (ProcServer.window): the least of the call's message
// count, the ring capacity, the circuit's credit budget and this
// bridge's share of the arena, arena/(2·Children), the last two in
// messages. The share is what makes the loop deadlock-free: a bridge
// allocates a chunk only while chunk + in flight ≤ W, so all the
// bridges together never pin more than half the arena and none can
// park in the allocator holding what another is waiting for. For the
// same reason pushes never wait for ring space and loans never wait
// for credit. Chunks are W split evenly into the fewest pieces of at
// most maxChunk, so that any W > maxChunk keeps at least two in flight
// and the child works on one while the bridge prepares the next.
//
// The bridge issues chunks while the window has room, polling the reply
// ring without blocking in between, and blocks only when the window is
// full or everything is issued. Replies retire strictly in order: each
// must echo the window of the oldest record in flight, so a reply
// names nothing but what is loaned or pinned to this slot right now.
// A chunk's views are released (down) or its loans committed, read
// back and verified (up) when its last reply arrives. A call for one
// message is a window of one: LOAN or VIEW, then FILLED or ACK, the
// same records in the same order a stop-and-wait bridge exchanges.
//
// Nothing a peer can write is trusted: ring indices further apart than
// the capacity (shm.ErrRingCorrupt) and replies of the wrong kind or
// for the wrong window declare the peer dead — the bridge reclaims the
// slot itself and returns ErrPeerDead. On every failure each chunk in
// flight is resolved exactly once (AbortAll, ReleaseViews) before the
// call returns. A failure that is the call's own — a checksum that does
// not verify, a payload in more than one span — is not the peer's
// death: the loop stops issuing and matches replies until its window is
// empty before it returns the failure, so the slot stays attached and
// the next call finds the rings as a finished call leaves them.
//
// What a call costs is the ring hop and the circuit. The two byte loops
// of the verification protocol, xsum and fillPattern, run as
// word-parallel forms of the same functions (bit-identical: a peer from
// an earlier commit interoperates); a call's chunks are one slab; and a
// ring wait spins for as long as a futex sleep and wake would cost
// before it takes one (shm.NotifyWord.Wait), so a counterpart that
// answers within a chunk's time is met polling, with no syscall on
// either side.
//
// Crash robustness (DESIGN.md §17): every ring record's Tag carries
// the slot's attach generation in its high byte, so records from a
// dead incarnation are recognisably stale and are discarded instead of
// corrupting the next claimant's protocol. Bridge ring waits carry an
// abort probe against the slot's state word (a reaped peer surfaces as
// ErrPeerDead, not a 30-second hang), and the child's worker loop
// aborts when its parent process disappears. The reaper/reclaimer
// lives in reclaim.go; the fault points threaded through the child
// path (child-attach, child-claim, child-ack, child-fill) are what the
// chaos harness arms to kill children at exact protocol steps.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/affinity"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/proc"
	"repro/internal/shm"
)

// Ring record kinds of the bridge/worker protocol, carried in the low
// byte of a record's Tag (the high byte is the attach generation —
// see xtag).
const (
	// XTagView announces a committed message's payload window to the
	// child (down direction); Word is the payload checksum.
	XTagView uint16 = 1
	// XTagLoan offers the child an unfilled loan window to write (up
	// direction); Word is the message sequence number.
	XTagLoan uint16 = 2
	// XTagAck acknowledges a VIEW after the child verified the payload
	// in place; Word echoes the checksum.
	XTagAck uint16 = 3
	// XTagFilled reports a LOAN filled in place; Word is the checksum
	// the child computed over what it wrote.
	XTagFilled uint16 = 4
	// XTagDone tells the child to detach and exit.
	XTagDone uint16 = 5
)

// xtag stamps a record kind with the slot's attach generation (low 8
// bits of the generation in the Tag's high byte). A record pushed by
// incarnation G and popped by incarnation G' ≠ G fails the generation
// check and is discarded — the defense that makes ring reuse after a
// peer death safe even if a stale producer got one last push in.
func xtag(kind uint16, gen uint32) uint16 { return kind&0xFF | uint16(gen&0xFF)<<8 }

// xtagKind extracts the record kind from a tag.
func xtagKind(tag uint16) uint16 { return tag & 0xFF }

// xtagGen extracts the generation byte from a tag.
func xtagGen(tag uint16) uint8 { return uint8(tag >> 8) }

// ErrNoSharedBackend re-exports the shm gate so callers can probe for
// cross-process support without importing internal packages.
var ErrNoSharedBackend = shm.ErrNoSharedBackend

// ErrPeerDead re-exports the shm sentinel: a cross-process operation
// was aborted because the peer on the other side of the segment has
// been declared dead (process gone or slot reaped).
var ErrPeerDead = shm.ErrPeerDead

// ErrHandshakeTimeout re-exports the shm sentinel: the attach
// handshake frame never arrived — the parent died before serving the
// segment, or never intended to.
var ErrHandshakeTimeout = shm.ErrHandshakeTimeout

// xprocDeadline bounds every blocking ring operation of the bridge and
// worker loops so a dead peer surfaces as an error, not a hang.
const xprocDeadline = 30 * time.Second

// ServeConfig parameterises ServeProc.
type ServeConfig struct {
	// Children is the number of descriptor-table slots (one per child
	// process).
	Children int
	// RingCap is the per-direction ring capacity in records (power of
	// two, default 64).
	RingCap int
	// Options configure the underlying facility exactly as New does.
	Options []Option
}

// ProcServer is the serving side of a cross-process facility.
type ProcServer struct {
	fac      *Facility
	seg      *shm.Segment
	table    *core.SegTable
	gen      uint64
	tableOff int64
	arenaOff int64
	acfg     shm.Config
	bridges  []bridgeState
}

// bridgeState is one slot's server-side bridge. The mutex serialises
// lazy open (bridge) against teardown (ReclaimSlot); the traffic loops
// work on a value snapshot of conn so a concurrent reclaim can reset
// the state without racing them.
type bridgeState struct {
	mu   sync.Mutex
	conn bridgeConn // zero until opened, and again once reclaimed
}

// bridgeConn is one incarnation's bridge: both ends of the loop-back
// circuit, the selector the receive end is harvested through, the ring
// handles and the attach generation they were bound to.
type bridgeConn struct {
	send *SendConn
	recv *RecvConn
	sel  *Selector
	down *shm.XRing
	up   *shm.XRing
	gen  uint32
}

// ServeProc creates a memfd-backed facility ready for child processes:
// segment, descriptor table, rings, and the facility itself with its
// arena carved out of the segment. Fails with ErrNoSharedBackend where
// the platform has no shared segments.
func ServeProc(sc ServeConfig) (*ProcServer, error) {
	if sc.Children < 1 {
		return nil, fmt.Errorf("mpf: ServeProc with %d children", sc.Children)
	}
	if sc.RingCap == 0 {
		sc.RingCap = 64
	}
	var cfg core.Config
	for _, o := range sc.Options {
		o(&cfg)
	}
	if cfg.MaxProcesses < sc.Children+1 {
		// One facility pid per bridge plus pid 0 for the application.
		cfg.MaxProcesses = sc.Children + 1
	}
	acfg := core.ArenaConfig(cfg)

	tableOff := int64(64)
	arenaOff := shm.AlignUp(tableOff + core.SegTableBytes(sc.Children, sc.RingCap))
	segSize := arenaOff + shm.AlignUp(acfg.Bytes())
	seg, err := shm.NewSharedSegment("mpf-arena", segSize)
	if err != nil {
		return nil, err
	}
	gen := uint64(time.Now().UnixNano())<<8 ^ uint64(os.Getpid())
	table, err := core.InitSegTable(seg, tableOff, sc.Children, sc.RingCap, gen)
	if err != nil {
		seg.Close()
		return nil, err
	}
	cfg.ArenaMem = seg.At(arenaOff, acfg.Bytes())
	c, err := core.Init(cfg)
	if err != nil {
		seg.Close()
		return nil, err
	}
	return &ProcServer{
		fac:      &Facility{c: c},
		seg:      seg,
		table:    table,
		gen:      gen,
		tableOff: tableOff,
		arenaOff: arenaOff,
		acfg:     acfg,
		bridges:  make([]bridgeState, sc.Children),
	}, nil
}

// Facility returns the served facility (fully usable in-process too).
func (s *ProcServer) Facility() *Facility { return s.fac }

// Segment exposes the backing segment (tests, layout assertions).
func (s *ProcServer) Segment() *shm.Segment { return s.seg }

// Table exposes the in-segment descriptor table.
func (s *ProcServer) Table() *core.SegTable { return s.table }

// Handshake builds the attach frame for the given slot; SendSegment
// stamps the segment size.
func (s *ProcServer) Handshake(slot int) shm.Handshake {
	var flags uint32
	if s.acfg.Spans {
		flags |= shm.HandshakeSpans
	}
	return shm.Handshake{
		Generation: s.gen,
		TableOff:   s.tableOff,
		ArenaOff:   s.arenaOff,
		BlockSize:  int32(s.acfg.BlockSize),
		NumBlocks:  int32(s.acfg.NumBlocks),
		Slot:       int32(slot),
		Flags:      flags,
	}
}

// SendSegmentTo runs the server half of the attach handshake for slot
// over an arbitrary unix socket — the hook the in-process tests use;
// Spawn does this over each child's inherited socket.
func (s *ProcServer) SendSegmentTo(conn *net.UnixConn, slot int) error {
	return shm.SendSegment(conn, s.seg, s.Handshake(slot))
}

// Spawn execs n children of bin (one table slot each) and performs the
// fd-passing handshake with every one. n must not exceed the table's
// slot count. When the facility was configured with WithAffinity, each
// child process is pinned to its own CPU core (slot modulo the CPU
// count) best-effort: restricted runners leave children floating.
func (s *ProcServer) Spawn(n int, bin string, args []string, extraEnv []string) (*proc.ExecGroup, error) {
	return s.SpawnEnv(n, bin, args, func(int) []string { return extraEnv })
}

// SpawnEnv is Spawn with a per-child environment — the chaos harness
// arms crash fault points (faultpoint.EnvVar) in its victim children
// and not the survivors.
func (s *ProcServer) SpawnEnv(n int, bin string, args []string, envFor func(i int) []string) (*proc.ExecGroup, error) {
	if n > s.table.NSlots() {
		return nil, fmt.Errorf("mpf: spawning %d children for %d slots", n, s.table.NSlots())
	}
	g, err := proc.StartGroupEnv(n, bin, args, envFor)
	if err != nil {
		return nil, err
	}
	pin := s.fac.c.Config().Affinity
	for i := 0; i < n; i++ {
		if pin {
			if p := g.Child(i).Cmd.Process; p != nil {
				// Advisory: a cpuset that forbids the pin leaves the
				// child floating, exactly like an unpinned run.
				affinity.PinPID(p.Pid, i)
			}
		}
		if err := s.SendSegmentTo(g.Child(i).Conn, i); err != nil {
			g.Kill()
			return nil, fmt.Errorf("mpf: handshake with child %d: %w", i, err)
		}
	}
	return g, nil
}

// bridge lazily opens slot i's facility connections, the selector the
// receive end is harvested through and the ring handles, first waiting
// (bounded) for a peer to claim the slot so the bridge
// binds to a definite attach generation. Bridge pid i+1 holds both
// ends of circuit "xproc-i": the loop-back shape means every payload
// crosses the circuit queue exactly once in each phase.
func (s *ProcServer) bridge(slot int) (bridgeConn, error) {
	b := &s.bridges[slot]
	b.mu.Lock()
	c := b.conn
	b.mu.Unlock()
	if c.send != nil {
		return c, nil
	}

	// Wait for the peer to claim the slot: the generation the bridge
	// captures must be the incarnation it will talk to, not a guess
	// made before the child arrived.
	gen, err := s.waitClaim(slot, xprocDeadline)
	if err != nil {
		return bridgeConn{}, err
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conn.send != nil { // raced with another opener
		return b.conn, nil
	}
	p, err := s.fac.Process(slot + 1)
	if err != nil {
		return bridgeConn{}, err
	}
	name := fmt.Sprintf("xproc-%d", slot)
	c = bridgeConn{gen: gen}
	if c.send, err = p.OpenSend(name); err != nil {
		return bridgeConn{}, err
	}
	if c.recv, err = p.OpenReceive(name, FCFS); err == nil {
		if c.sel, err = p.NewSelector(); err == nil {
			err = c.sel.Add(c.recv)
		}
	}
	if err == nil {
		if c.down, err = s.table.DownRing(slot); err == nil {
			c.up, err = s.table.UpRing(slot)
		}
	}
	if err != nil {
		c.closeCircuit()
		return bridgeConn{}, err
	}
	b.conn = c
	return c, nil
}

// closeCircuit closes whatever of the loop-back circuit is open.
func (c bridgeConn) closeCircuit() {
	if c.sel != nil {
		c.sel.Close()
	}
	if c.recv != nil {
		c.recv.Close()
	}
	if c.send != nil {
		c.send.Close()
	}
}

// waitClaim polls slot until a peer holds it attached, returning the
// attach generation. ErrPeerDead reports a slot that went dead while
// waiting; ErrTimeout-shaped failure reports nobody ever came. The
// pause between polls is a sixteenth of the time waited so far, from
// 20 µs up to 1 ms: a freshly forked child claims 2–5 ms after the
// first bridge call asks, and a fixed millisecond — or a pause that
// has doubled its way there by then — adds half of one to the set-up of
// every bridge.
func (s *ProcServer) waitClaim(slot int, timeout time.Duration) (uint32, error) {
	start := time.Now()
	for {
		st, gen := s.table.SlotStateGen(slot)
		switch st {
		case core.SlotAttached:
			return gen, nil
		case core.SlotDead:
			return 0, fmt.Errorf("mpf: slot %d: %w", slot, ErrPeerDead)
		}
		waited := time.Since(start)
		if waited >= timeout {
			return 0, fmt.Errorf("mpf: slot %d never claimed within %v", slot, timeout)
		}
		time.Sleep(min(max(waited/16, 20*time.Microsecond), time.Millisecond))
	}
}

// slotAbort builds the liveness probe for ring waits bound to one
// incarnation: the moment the slot leaves the attached state or moves
// to another generation, blocked bridge operations fail with
// ErrPeerDead instead of waiting out their full deadline.
func (s *ProcServer) slotAbort(slot int, gen uint32) func() error {
	return func() error {
		st, g := s.table.SlotStateGen(slot)
		if st != core.SlotAttached || g != gen {
			return fmt.Errorf("mpf: slot %d gen %d: %w", slot, gen, ErrPeerDead)
		}
		return nil
	}
}

// xsum is the protocol's payload checksum: cheap, order-sensitive, and
// computed independently on both sides of the process boundary. It is
// the polynomial s ← s·31 + c over the bytes, mod 2³², folded to 16
// bits. A polynomial is linear in its coefficients, so sixteen bytes go
// in per step of the one dependent chain: SWAR arithmetic on two 64-bit
// loads gives each group of four bytes its own value c₀·31³ + c₁·31² +
// c₂·31 + c₃ (quads), and s ← s·31¹⁶ + q₀·31¹² + q₁·31⁸ + q₂·31⁴ + q₃
// is what sixteen serial steps compute. Same function, same values as
// the byte loop a peer built from any earlier commit runs
// (TestBridgeKernelsMatchSerial).
func xsum(b []byte) uint16 {
	const (
		m   = 1<<32 - 1
		p4  = 31 * 31 * 31 * 31
		p8  = p4 * p4 & m
		p12 = p8 * p4 & m
		p16 = p8 * p8 & m
	)
	var s uint32
	for ; len(b) >= 16; b = b[16:] {
		q0, q1 := quads(binary.LittleEndian.Uint64(b))
		q2, q3 := quads(binary.LittleEndian.Uint64(b[8:]))
		s = s*p16 + q0*p12 + q1*p8 + q2*p4 + q3
	}
	for _, c := range b {
		s = s*31 + uint32(c)
	}
	return uint16(s ^ s>>16)
}

// quads evaluates the checksum polynomial over each half of eight bytes
// loaded little-endian (x's low byte is the first): lo is c₀·31³ +
// c₁·31² + c₂·31 + c₃ for bytes 0–3, hi the same for bytes 4–7. The
// even bytes times 31 plus the odd bytes is four pair values in 16-bit
// lanes (at most 255·32); the even pairs times 31² plus the odd pairs
// is the two results in 32-bit lanes (under 2²³): no lane carries into
// its neighbour.
func quads(x uint64) (lo, hi uint32) {
	const bytes, pairs = 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF
	p := (x&bytes)*31 + (x >> 8 & bytes)
	q := (p&pairs)*(31*31) + (p >> 16 & pairs)
	return uint32(q), uint32(q >> 32)
}

// fillPattern writes the deterministic payload for (slot, seq): what
// the bridge writes down is what the child re-derives, and vice versa.
// The bytes are the top bytes of the linear congruential sequence x ←
// x·A + C from a seed mixing slot and seq. Stepping an LCG eight times
// is again one multiply and add, x·A⁸ + C·(A⁷ + … + 1), so eight lanes
// started on eight consecutive states each produce every eighth byte
// of the same stream, independent of one another, and a step of all
// eight is one 64-bit store.
func fillPattern(b []byte, slot, seq int) {
	const (
		a  = 1664525
		c  = 1013904223
		m  = 1<<32 - 1
		a2 = a * a & m
		a4 = a2 * a2 & m
		a8 = a4 * a4 & m
		c8 = c * (1 + a) * (1 + a2) * (1 + a4) & m // C·(A⁷ + … + 1)
	)
	// Eight named lanes, not an array: the compiler keeps these in
	// registers and does not unroll a loop over an array.
	x0 := (uint32(slot)*2654435761+uint32(seq)*40503+1)*a + c
	x1 := x0*a + c
	x2 := x1*a + c
	x3 := x2*a + c
	x4 := x3*a + c
	x5 := x4*a + c
	x6 := x5*a + c
	x7 := x6*a + c
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, uint64(x0>>24)|uint64(x1>>24)<<8|uint64(x2>>24)<<16|uint64(x3>>24)<<24|
			uint64(x4>>24)<<32|uint64(x5>>24)<<40|uint64(x6>>24)<<48|uint64(x7>>24)<<56)
		x0, x1, x2, x3 = x0*a8+c8, x1*a8+c8, x2*a8+c8, x3*a8+c8
		x4, x5, x6, x7 = x4*a8+c8, x5*a8+c8, x6*a8+c8, x7*a8+c8
	}
	tail := [...]uint32{x0, x1, x2, x3, x4, x5, x6}
	for i := range b {
		b[i] = byte(tail[i] >> 24)
	}
}

// maxChunk is the most records the bridge issues, and the worker
// answers, in one step: one LoanBatch, one CommitAll, one harvest, one
// ring push and at most one futex wake are shared by this many
// messages.
const maxChunk = 16

// window derives how many records one bridge call keeps in flight: the
// least of what the call moves, what a ring holds, what the circuit's
// credit budget covers and this bridge's share of the arena — half of
// it split over the slots, so that every bridge holding a full window
// still leaves the allocator able to serve each one's next chunk.
// Never less than one: a message too big for its share is a window of
// one and reports its own error.
func (s *ProcServer) window(msgs, size int) int {
	arena := s.fac.c.Arena()
	per := arena.BlocksFor(size)
	w := min(msgs, s.table.RingCap(), arena.NumBlocks()/(2*len(s.bridges))/per)
	if budget := s.fac.c.Config().CreditBlocks; budget > 0 {
		w = min(w, budget/per)
	}
	return max(w, 1)
}

// chunk is one issue step of the window: the records of one LoanBatch,
// which travel, are answered and retire together. A call's chunks are a
// slab it makes once, sized to its window, and reuses as they retire;
// views and recs keep their storage from one use to the next.
type chunk struct {
	lb    *LoanBatch   // the payload windows until circulate commits them
	views []*View      // the same windows, pinned, once circulate has run
	recs  []shm.Record // as pushed; replies are matched against them in order
	got   int          // replies matched so far
}

// drop resolves whatever the chunk still holds. Both halves are no-ops
// on what is already resolved, so every path — retired, failed half
// issued, abandoned in flight — ends here exactly once per resource.
func (c *chunk) drop() {
	c.lb.AbortAll()
	ReleaseViews(c.views)
}

// circulate sends the chunk through the loop-back circuit: one
// CommitAll, then one harvest claiming every message back as a pinned
// view (a commit to the bridge's own circuit is queued in full by the
// time it returns, so the loop runs once).
func (b bridgeConn) circulate(c *chunk) error {
	if err := c.lb.CommitAll(); err != nil {
		return err
	}
	for len(c.views) < len(c.recs) {
		vs, err := b.sel.WaitViewsDeadline(len(c.recs)-len(c.views), xprocDeadline)
		c.views = append(c.views, vs...)
		if err != nil {
			return err
		}
	}
	return nil
}

// pushWait publishes recs in one ring transaction, waiting for space up
// to xprocDeadline under the abort probe. The deadline's clock is read
// only once the ring has no room: a push that fits, which by the
// window's construction is every push to a peer that keeps the
// protocol, reads no clock.
func pushWait(r *shm.XRing, recs []shm.Record, abort func() error) error {
	if ok, err := r.TryPushBatch(recs); ok || err != nil {
		return err
	}
	return r.PushBatchAbort(recs, time.Now().Add(xprocDeadline), abort)
}

// popWait consumes what is queued, waiting for the first record up to
// xprocDeadline under the abort probe; like pushWait it reads the clock
// only when it is about to wait.
func popWait(r *shm.XRing, dst []shm.Record, abort func() error) (int, error) {
	if n, err := r.PopBatch(dst); n > 0 || err != nil {
		return n, err
	}
	return r.PopBatchAbort(dst, time.Now().Add(xprocDeadline), abort)
}

// errFragmented: the protocol ships each payload as one record, so it
// must be one contiguous span. Span mode with uniform message sizes
// cannot fragment below span granularity, so this does not occur in
// steady state.
var errFragmented = errors.New("mpf: payload fragmented; use span mode with uniform sizes")

// deadErr folds teardown-shaped failures onto ErrPeerDead when the
// abort probe confirms the incarnation is gone. A reclaim racing a
// bridge op can surface as ErrRingClosed (the reclaim closed the ring
// first) or as a closed-connection error (the reclaim closed the
// circuit first) depending on the interleaving; callers retrying after
// a respawn need one error to key on, not three.
func deadErr(err error, abort func() error) error {
	if err == nil {
		return nil
	}
	if aerr := abort(); aerr != nil {
		return aerr
	}
	return err
}

// peerErr is deadErr for a bridge call on one incarnation. Ring state
// that no run of the protocol produces — indices out of bounds, a
// reply of the wrong kind or for the wrong window — comes from a peer
// that is writing garbage: the bridge declares it dead and reclaims
// the slot itself, and the caller sees ErrPeerDead as for any other
// death.
func (s *ProcServer) peerErr(err error, slot int, gen uint32) error {
	if errors.Is(err, shm.ErrRingCorrupt) {
		s.ReclaimSlot(slot, gen)
		return fmt.Errorf("mpf: slot %d gen %d: %v: %w", slot, gen, err, ErrPeerDead)
	}
	return deadErr(err, s.slotAbort(slot, gen))
}

// BridgeDown runs the down phase for one slot: msgs messages of size
// bytes each, committed through the circuit, exported to the child as
// VIEW records, acknowledged, released. Returns the number of payload
// round trips completed.
func (s *ProcServer) BridgeDown(slot, msgs, size int) (int, error) {
	return s.runBridge(slot, msgs, size, false)
}

// BridgeUp runs the up phase for one slot: msgs loans offered to the
// child, filled in place across the process boundary, committed, and
// verified through the receive view. Returns the round trips
// completed.
func (s *ProcServer) BridgeUp(slot, msgs, size int) (int, error) {
	return s.runBridge(slot, msgs, size, true)
}

// runBridge is the one send/retire loop of both phases (the protocol
// comment at the top of the file). done counts round trips verified in
// order: acknowledged records going down, committed and checksummed
// ones coming up.
//
// A failure that is the call's own — a payload that does not verify or
// is not one span, a loan or a commit refused — and not the peer's ring
// conduct leaves the peer alive and still answering what was pushed. The
// loop then stops issuing, keeps matching replies until nothing is in
// flight, and only then returns that failure: the rings are left empty
// for the next call on the slot. Ring errors and the abort probe end the
// call at once, as the peer's death.
func (s *ProcServer) runBridge(slot, msgs, size int, up bool) (done int, err error) {
	b, err := s.bridge(slot)
	if err != nil {
		return 0, err
	}
	abort := s.slotAbort(slot, b.gen)
	w := s.window(msgs, size)
	per := w / ((w + maxChunk - 1) / maxChunk) // W in the fewest equal chunks of at most maxChunk
	var ns [maxChunk]int
	for i := range ns[:per] {
		ns[i] = size
	}
	var replies [maxChunk]shm.Record

	// The chunks in flight are slab[head%len], … oldest first. Every one
	// but a call's last carries per records and a chunk is issued only
	// while it fits the window, so ⌈W/per⌉ of them is the most there
	// can be.
	slab := make([]chunk, (w+per-1)/per)
	recs, views := make([]shm.Record, len(slab)*per), make([]*View, len(slab)*per)
	for i := range slab {
		lo, hi := i*per, (i+1)*per
		slab[i].recs, slab[i].views = recs[lo:hi:hi], views[lo:lo:hi]
	}
	head, flying := 0, 0
	var failed error // the call's own failure, held while its window drains
	defer func() {
		for i := 0; i < flying; i++ {
			slab[(head+i)%len(slab)].drop()
		}
		if failed != nil && !errors.Is(err, failed) {
			err = fmt.Errorf("%w (draining the window after: %v)", err, failed)
		}
		err = s.peerErr(err, slot, b.gen)
	}()

	for issued, inflight := 0, 0; done < msgs && (failed == nil || flying > 0); {
		k := min(per, msgs-issued)
		room := failed == nil && k > 0 && inflight+k <= w
		if room {
			lb, lerr := b.send.LoanBatch(ns[:k])
			if lerr != nil {
				failed = lerr
				continue
			}
			c := &slab[(head+flying)%len(slab)]
			c.lb, c.views, c.recs, c.got = lb, c.views[:0], c.recs[:k], 0
			if failed = s.prepare(b, c, slot, issued, up); failed != nil {
				c.drop() // never pushed: nothing will answer it
				continue
			}
			if err := pushWait(b.down, c.recs, abort); err != nil {
				c.drop()
				return done, err
			}
			flying++
			issued += k
			inflight += k
		}

		// Replies: whatever is there while the window still has room,
		// at least one once it is full or everything is issued.
		var n int
		if room {
			n, err = b.up.PopBatch(replies[:])
		} else {
			n, err = popWait(b.up, replies[:], abort)
		}
		if err != nil {
			return done, err
		}
		for _, rec := range replies[:n] {
			if xtagGen(rec.Tag) != uint8(b.gen) {
				// A leftover of a reclaimed incarnation (defense in
				// depth: reclamation reformats the rings, so this takes
				// a zombie producer racing the reclaim).
				continue
			}
			if flying == 0 {
				return done, fmt.Errorf("mpf: slot %d: reply tag %d with nothing in flight: %w",
					slot, xtagKind(rec.Tag), shm.ErrRingCorrupt)
			}
			c := &slab[head%len(slab)]
			if err := c.match(rec, slot, up); err != nil {
				return done, err
			}
			if !up {
				done++
			}
			if c.got < len(c.recs) {
				continue
			}
			if up && failed == nil {
				if failed = b.land(c, slot); failed == nil {
					done += len(c.recs)
				}
			}
			c.drop()
			head, flying = head+1, flying-1
			inflight -= len(c.recs)
		}
	}
	return done, failed
}

// prepare makes one chunk's records ready to push. Down, the bridge
// writes and checksums the payloads, circulates them and exports the
// pinned views; up, it exports the unfilled loan windows.
func (s *ProcServer) prepare(b bridgeConn, c *chunk, slot, seq int, up bool) error {
	kind := XTagLoan
	if !up {
		kind = XTagView
		for i := range c.recs {
			buf, ok := c.lb.Bytes(i)
			if !ok {
				return errFragmented
			}
			fillPattern(buf, slot, seq+i)
			c.recs[i].Word = xsum(buf)
		}
		if err := b.circulate(c); err != nil {
			return err
		}
	}
	for i := range c.recs {
		var pay []byte
		var ok bool
		if up {
			pay, ok = c.lb.Bytes(i)
			c.recs[i].Word = uint16(seq + i)
		} else {
			pay, ok = c.views[i].Bytes()
		}
		if !ok {
			return errFragmented
		}
		off, ok := s.seg.OffsetOf(pay)
		if !ok {
			return errors.New("mpf: payload does not alias the shared segment")
		}
		c.recs[i].Off, c.recs[i].Len, c.recs[i].Tag = off, int32(len(pay)), xtag(kind, b.gen)
	}
	return nil
}

// match retires the chunk's next record against a reply. Replies come
// in the order the records went out and echo their window, so anything
// else — another kind, another window, a changed ACK word — is not the
// protocol: ErrRingCorrupt. A FILLED reply's word is the child's own
// checksum, kept for land to verify.
func (c *chunk) match(rec shm.Record, slot int, up bool) error {
	want := c.recs[c.got]
	if up {
		want.Tag = xtag(XTagFilled, uint32(xtagGen(want.Tag)))
		want.Word = rec.Word
	} else {
		want.Tag = xtag(XTagAck, uint32(xtagGen(want.Tag)))
	}
	if rec != want {
		return fmt.Errorf("mpf: slot %d: child replied %+v to %+v: %w", slot, rec, c.recs[c.got], shm.ErrRingCorrupt)
	}
	c.recs[c.got].Word = rec.Word
	c.got++
	return nil
}

// land finishes an up chunk once every window is reported filled:
// circulate it and check what arrives through the views against the
// checksums the child reported.
func (b bridgeConn) land(c *chunk, slot int) error {
	if err := b.circulate(c); err != nil {
		return err
	}
	for i, v := range c.views {
		pay, _ := v.Bytes()
		if sum := xsum(pay); sum != c.recs[i].Word {
			return fmt.Errorf("mpf: slot %d: child-filled payload at %d sums %#x, child said %#x",
				slot, c.recs[i].Off, sum, c.recs[i].Word)
		}
	}
	return nil
}

// RingWaitStats sums the waiter counters of every bridge's ring
// handles: spin polls, kernel futex sleeps, and wake syscalls issued
// on the serving side. The cross-process benchmark records these per
// message — a waiter protocol regressing to busy-spin shows up here.
func (s *ProcServer) RingWaitStats() shm.WaitStats {
	var total shm.WaitStats
	add := func(w shm.WaitStats) {
		total.Polls += w.Polls
		total.Sleeps += w.Sleeps
		total.Wakes += w.Wakes
	}
	for i := range s.bridges {
		b := &s.bridges[i]
		b.mu.Lock()
		down, up := b.conn.down, b.conn.up
		b.mu.Unlock()
		for _, r := range []*shm.XRing{down, up} {
			if r != nil {
				data, space := r.WaitStats()
				add(data)
				add(space)
			}
		}
	}
	return total
}

// FinishSlot tells the child on slot to detach and exit.
func (s *ProcServer) FinishSlot(slot int) error {
	b, err := s.bridge(slot)
	if err != nil {
		return err
	}
	err = pushWait(b.down, []shm.Record{{Tag: xtag(XTagDone, b.gen)}}, s.slotAbort(slot, b.gen))
	return s.peerErr(err, slot, b.gen)
}

// Close shuts the facility down and unmaps the segment. The returned
// error is the unmap's — the "clean unmap" the cross-process demo
// asserts.
func (s *ProcServer) Close() error {
	s.fac.Shutdown()
	return s.seg.Close()
}

// ProcClient is a child process's attachment: the mapped segment, the
// claimed table slot, and its two rings. It deliberately has no
// facility — children are raw segment peers; the serving process owns
// every descriptor and the allocator (DESIGN.md §15).
type ProcClient struct {
	seg    *shm.Segment
	table  *core.SegTable
	h      shm.Handshake
	slot   int
	gen    uint32
	ppid   int
	down   *shm.XRing
	up     *shm.XRing
	served int
}

// AttachProc attaches via the socket inherited from proc.StartGroup
// (fd 3) — the one-call child side of ServeProc+Spawn. Fault points
// (chaos testing) are armed from the environment first, so a spawned
// worker binary needs no extra wiring to participate in crash drills.
func AttachProc() (*ProcClient, error) {
	if err := faultpoint.EnableFromEnv(); err != nil {
		return nil, err
	}
	conn, _, err := proc.ParentConn()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return AttachProcConn(conn)
}

// AttachProcConn attaches over an explicit unix socket: receive the
// segment fd and handshake (deadline-bounded — a dead parent surfaces
// as ErrHandshakeTimeout), map the segment, verify the table
// generation, claim the assigned slot, open the rings.
func AttachProcConn(conn *net.UnixConn) (*ProcClient, error) {
	seg, h, err := shm.RecvSegment(conn)
	if err != nil {
		return nil, err
	}
	faultpoint.Hit("child-attach")
	table, err := core.AttachSegTable(seg, h.TableOff, h.Generation)
	if err != nil {
		seg.Close()
		return nil, err
	}
	gen, err := table.ClaimGen(int(h.Slot), uint32(os.Getpid()))
	if err != nil {
		seg.Close()
		return nil, err
	}
	faultpoint.Hit("child-claim")
	c := &ProcClient{seg: seg, table: table, h: h, slot: int(h.Slot), gen: gen, ppid: os.Getppid()}
	if c.down, err = table.DownRing(c.slot); err == nil {
		c.up, err = table.UpRing(c.slot)
	}
	if err != nil {
		table.Detach(c.slot)
		seg.Close()
		return nil, err
	}
	return c, nil
}

// Slot returns the claimed table slot.
func (c *ProcClient) Slot() int { return c.slot }

// Gen returns the attach generation this client claimed the slot with.
func (c *ProcClient) Gen() uint32 { return c.gen }

// Handshake returns the attach frame the parent sent.
func (c *ProcClient) Handshake() shm.Handshake { return c.h }

// Served returns the number of payload records processed by Serve.
func (c *ProcClient) Served() int { return c.served }

// abort is the child-side liveness probe: the worker stops waiting the
// moment its parent process dies (getppid changes as init adopts the
// orphan) or its slot is no longer this incarnation's (a reaper
// mistakenly — or a chaos test deliberately — reclaimed it).
func (c *ProcClient) abort() error {
	if os.Getppid() != c.ppid {
		return fmt.Errorf("mpf: slot %d worker orphaned: %w", c.slot, ErrPeerDead)
	}
	st, g := c.table.SlotStateGen(c.slot)
	if st != core.SlotAttached || g != c.gen {
		return fmt.Errorf("mpf: slot %d reclaimed under worker: %w", c.slot, ErrPeerDead)
	}
	return nil
}

// payload resolves a ring record against this process's mapping,
// bounds-checking it against the arena region the handshake described
// — a corrupt descriptor fails here, not as a segment panic.
func (c *ProcClient) payload(rec shm.Record) ([]byte, error) {
	arenaEnd := c.h.ArenaOff + int64(c.h.BlockSize)*int64(c.h.NumBlocks+1)
	if rec.Len < 0 || rec.Off < c.h.ArenaOff || rec.Off+int64(rec.Len) > arenaEnd {
		return nil, fmt.Errorf("mpf: record window [%d,%d) outside arena [%d,%d)",
			rec.Off, rec.Off+int64(rec.Len), c.h.ArenaOff, arenaEnd)
	}
	return c.seg.At(rec.Off, int64(rec.Len)), nil
}

// Serve runs the worker loop: VIEW records are verified in place and
// acknowledged, LOAN records filled in place, until a DONE record
// arrives. The worker takes what is queued, up to maxChunk records, in
// one ring pop and answers the run with one ring push; every reply
// echoes the window it answers, which is how the bridge matches it.
// Records tagged with a different attach generation are discarded
// (stale leftovers of a dead predecessor). It returns after detaching
// the slot; the caller still owns Close.
func (c *ProcClient) Serve() error {
	defer c.table.Detach(c.slot)
	var in, out [maxChunk]shm.Record
	for {
		n, err := popWait(c.down, in[:], c.abort)
		if err != nil {
			return fmt.Errorf("mpf: slot %d worker: %w", c.slot, err)
		}
		replies, finished := out[:0], false
		for _, rec := range in[:n] {
			if xtagGen(rec.Tag) != uint8(c.gen) {
				continue
			}
			kind := xtagKind(rec.Tag)
			if kind == XTagDone {
				finished = true
				break
			}
			if kind != XTagView && kind != XTagLoan {
				return fmt.Errorf("mpf: slot %d: unknown record tag %d", c.slot, kind)
			}
			pay, err := c.payload(rec)
			if err != nil {
				return err
			}
			if kind == XTagView {
				if sum := xsum(pay); sum != rec.Word {
					return fmt.Errorf("mpf: slot %d: payload at %d sums %#x, parent said %#x",
						c.slot, rec.Off, sum, rec.Word)
				}
				faultpoint.Hit("child-ack")
				rec.Tag = xtag(XTagAck, c.gen)
			} else {
				faultpoint.Hit("child-fill")
				fillPattern(pay, c.slot, int(rec.Word)|1<<20) // distinct from down-phase patterns
				rec.Tag, rec.Word = xtag(XTagFilled, c.gen), xsum(pay)
			}
			replies = append(replies, rec)
		}
		if err := pushWait(c.up, replies, c.abort); err != nil {
			return err
		}
		c.served += len(replies)
		if finished {
			return nil
		}
	}
}

// Close unmaps the child's view of the segment.
func (c *ProcClient) Close() error { return c.seg.Close() }
