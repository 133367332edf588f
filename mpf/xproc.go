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
// call returns.
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
// waiting; ErrTimeout-shaped failure reports nobody ever came.
func (s *ProcServer) waitClaim(slot int, timeout time.Duration) (uint32, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, gen := s.table.SlotStateGen(slot)
		switch st {
		case core.SlotAttached:
			return gen, nil
		case core.SlotDead:
			return 0, fmt.Errorf("mpf: slot %d: %w", slot, ErrPeerDead)
		}
		if !time.Now().Before(deadline) {
			return 0, fmt.Errorf("mpf: slot %d never claimed within %v", slot, timeout)
		}
		time.Sleep(time.Millisecond)
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
// computed independently on both sides of the process boundary.
func xsum(b []byte) uint16 {
	var s uint32
	for _, c := range b {
		s = s*31 + uint32(c)
	}
	return uint16(s ^ s>>16)
}

// fillPattern writes the deterministic payload for (slot, seq): what
// the bridge writes down is what the child re-derives, and vice versa.
func fillPattern(b []byte, slot, seq int) {
	x := uint32(slot)*2654435761 + uint32(seq)*40503 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
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
// which travel, are answered and retire together.
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
	var flight []*chunk // issued and not yet retired, oldest first
	defer func() {
		for _, c := range flight {
			c.drop()
		}
		err = s.peerErr(err, slot, b.gen)
	}()

	for issued, inflight := 0, 0; done < msgs; {
		k := min(per, msgs-issued)
		room := k > 0 && inflight+k <= w
		if room {
			lb, err := b.send.LoanBatch(ns[:k])
			if err != nil {
				return done, err
			}
			c := &chunk{lb: lb, recs: make([]shm.Record, k)}
			flight = append(flight, c)
			if err := s.issue(b, c, slot, issued, up, abort); err != nil {
				return done, err
			}
			issued += k
			inflight += k
		}

		// Replies: whatever is there while the window still has room,
		// at least one once it is full or everything is issued.
		var n int
		if room {
			n, err = b.up.PopBatch(replies[:])
		} else {
			n, err = b.up.PopBatchAbort(replies[:], time.Now().Add(xprocDeadline), abort)
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
			if len(flight) == 0 {
				return done, fmt.Errorf("mpf: slot %d: reply tag %d with nothing in flight: %w",
					slot, xtagKind(rec.Tag), shm.ErrRingCorrupt)
			}
			c := flight[0]
			if err := c.match(rec, slot, up); err != nil {
				return done, err
			}
			if !up {
				done++
			}
			if c.got < len(c.recs) {
				continue
			}
			if up {
				if err := b.land(c, slot); err != nil {
					return done, err
				}
				done += len(c.recs)
			}
			c.drop()
			flight = flight[1:]
			inflight -= len(c.recs)
		}
	}
	return done, nil
}

// issue fills in and pushes one chunk's records. Down, the bridge
// writes and checksums the payloads, circulates them and exports the
// pinned views; up, it exports the unfilled loan windows.
func (s *ProcServer) issue(b bridgeConn, c *chunk, slot, seq int, up bool, abort func() error) error {
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
	return b.down.PushBatchAbort(c.recs, time.Now().Add(xprocDeadline), abort)
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
	err = b.down.PushAbort(shm.Record{Tag: xtag(XTagDone, b.gen)},
		time.Now().Add(xprocDeadline), s.slotAbort(slot, b.gen))
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
		n, err := c.down.PopBatchAbort(in[:], time.Now().Add(xprocDeadline), c.abort)
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
		if err := c.up.PushBatchAbort(replies, time.Now().Add(xprocDeadline), c.abort); err != nil {
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
