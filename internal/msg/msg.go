// Package msg implements MPF messages: a header plus a chain of shared
// memory blocks holding the payload.
//
// The paper's fundamental data structure is the message — "linked message
// blocks together with a header for saving pertinent message information
// (e.g., message length, a pointer to the tail, and a pointer to the next
// message in a list of messages for an LNVC)". This package reproduces
// that header and the two copies the paper performs: message_send copies
// the user buffer into the block chain, message_receive copies the chain
// into the user buffer.
//
// The header additionally carries the reference-counting state that
// internal/core uses to solve the paper's close_receive reclamation
// problem (see DESIGN.md §5): Pending counts BROADCAST receivers that have
// not yet consumed the message, and FCFSNeeded records whether an FCFS
// consumption is still outstanding.
//
// The paper keeps that header beside the message's blocks and takes
// descriptors from free lists built at init, so getting one is never a
// trip to an allocator. Here a header is bound to the message's head
// block: every message owns at least one block (a zero-length one too)
// from allocation until its chain is freed, so the Pool keeps one table
// entry per block and a message's header is the entry of its head. There
// is nothing to allocate, recycle or lock — see Pool for the ownership
// argument and the release order it imposes.
package msg

import (
	"fmt"

	"repro/internal/shm"
)

// Message is a queued MPF message. Headers are ordinary Go objects owned
// by a Pool, one per head block; payload lives in the shm arena. A header
// is valid for as long as its holder owns the message's chain: once the
// chain is freed the header is the next message's that starts on the same
// block, and must not be read again.
type Message struct {
	// Length is the payload length in bytes.
	Length int
	// Head and Tail are arena offsets of the first and last payload
	// blocks. Tail is kept so appends and sanity checks are O(1), as in
	// the paper's header.
	Head, Tail int32
	// Next links messages in an LNVC's FIFO. It is owned by the LNVC
	// lock.
	Next *Message
	// Seq is the message's position in its LNVC's total order; assigned
	// under the LNVC lock at enqueue. Receivers use it to resume after
	// their private head pointer.
	Seq uint64
	// Sender is the process id of the sending process (for tracing).
	Sender int
	// Pending is the number of BROADCAST receivers that still need this
	// message. FCFSNeeded reports whether an FCFS consumption is still
	// outstanding. Both are manipulated under the LNVC lock.
	Pending    int
	FCFSNeeded bool
	// Blocks is the message's accounted block demand — Arena.BlocksFor
	// of the payload length, recorded at build time. It is the unit the
	// credit ledger debits at allocation and re-grants at reclamation
	// (core's flow control), chosen to match the worst-case demand the
	// capacity checks already use so that debit and grant can never
	// disagree about a message's cost.
	Blocks int
	// Pins counts the zero-copy Views currently holding the message,
	// read outside the LNVC lock. (A copying receive extracts under the
	// lock and takes no pin.) A pinned message must not be reclaimed:
	// a broadcast view releases its Pending claim when it is taken, but
	// the blocks must survive until the last pin drops. Manipulated
	// under the LNVC lock.
	Pins int
	// Orphan marks a pinned message whose circuit was deleted before
	// its views were released: the close path cannot release it, so
	// ownership passes to the view holders and the last unpin releases
	// it (core's unpinAll). Set under the LNVC lock.
	Orphan bool
}

// Pool builds messages — a payload chain from the arena plus its header —
// and releases them. Headers are bound to blocks: headers[i] is the header
// of whichever message currently has block i as its head, created the
// first time block i heads a message and re-zeroed on every later one.
//
// No channel, lock or atomic guards the table, because whoever owns a
// block owns its entry: the entry is touched only between the allocation
// that returned the block as a chain's head and the free of that chain,
// and what orders the block's hand-over from one owner to the next
// orders the entry's with it — the arena lock, or, for a chain that
// passes through a circuit's recycle slot (BuildIn, ReleaseIn), the
// slot's CAS on each side. The one rule this imposes is the release
// order — finish with the header first, free the chain last (Release,
// ReleaseBatch, ReleaseIn): a header written after its chain went back
// to the arena may already be the next message's.
//
// Memory: 8 bytes per region block for the table, plus one header per
// head position ever used — at most one per block, in practice the few
// positions the allocator's first-fit placement keeps returning to.
type Pool struct {
	arena   *shm.Arena
	headers []*Message
}

// NewPool creates a pool over arena. maxFree is unused: it sized the
// channel of recycled headers this pool no longer has, and stays only
// because the repository benchmark pins the signature.
func NewPool(arena *shm.Arena, maxFree int) *Pool {
	return &Pool{arena: arena, headers: make([]*Message, arena.NumBlocks())}
}

// Arena exposes the backing arena (for receive-side copies).
func (p *Pool) Arena() *shm.Arena { return p.arena }

// Build allocates blocks for buf, copies buf in, and returns a message
// header describing it. The allocation is payload-shaped
// (shm.Arena.AllocPayload): the chain is one contiguous run of blocks
// whenever fragmentation permits. If wait is true the allocation blocks
// until enough blocks are free (stop aborts); otherwise exhaustion
// returns shm.ErrOutOfBlocks.
func (p *Pool) Build(sender int, buf []byte, wait bool, stop <-chan struct{}) (*Message, error) {
	return p.BuildIn(shm.NoSlot, sender, buf, wait, stop)
}

// BuildIn is Build for a send on the circuit that owns the arena's
// recycle slot slot: a chain the circuit's last retirement parked
// there, of the span length buf needs, is taken back without the arena
// lock (shm.Arena.AllocPayloadIn).
func (p *Pool) BuildIn(slot, sender int, buf []byte, wait bool, stop <-chan struct{}) (*Message, error) {
	m, err := p.BuildLoanIn(slot, sender, len(buf), wait, stop)
	if err != nil {
		return nil, err
	}
	p.arena.WriteChain(m.Head, buf)
	return m, nil
}

// BuildLoan allocates a chain able to hold n payload bytes and returns
// its header with the payload *uninitialised* — the send-side zero-copy
// primitive. The caller writes the payload in place through View(m)
// (core.Loan does) and the structural send copy never happens.
func (p *Pool) BuildLoan(sender, n int, wait bool, stop <-chan struct{}) (*Message, error) {
	return p.BuildLoanIn(shm.NoSlot, sender, n, wait, stop)
}

// BuildLoanIn is BuildLoan taking its chain as BuildIn does.
func (p *Pool) BuildLoanIn(slot, sender, n int, wait bool, stop <-chan struct{}) (*Message, error) {
	head, tail, err := p.arena.AllocPayloadIn(slot, n, wait, stop)
	if err != nil {
		return nil, err
	}
	return p.bind(sender, n, head, tail), nil
}

// BatchInline is the batch size up to which the batched builders keep
// their scratch (chain endpoints, payload lengths) on the stack, and core
// its per-message bookkeeping inline: a batch of at most this many
// messages is built without a heap allocation. Larger batches fall back
// to slices.
const BatchInline = 16

// InlineOr returns buf[:n] when buf is large enough, else a fresh slice.
func InlineOr[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// BuildLoanBatch is BuildLoan's batch form: one message header per
// length in ns, every payload chain allocated in a single arena
// transaction (Arena.AllocPayloadsInto) with all payloads uninitialised —
// the allocator half of the batched zero-copy send path (core's
// LoanBatch). Either every message is built or none is; wait and stop
// have Build's semantics, applied to the batch's total block demand. It
// is BuildLoanBatchInto with a result slice of its own.
func (p *Pool) BuildLoanBatch(sender int, ns []int, wait bool, stop <-chan struct{}) ([]*Message, error) {
	if len(ns) == 0 {
		return nil, nil
	}
	msgs := make([]*Message, len(ns))
	if err := p.BuildLoanBatchInto(sender, ns, msgs, wait, stop); err != nil {
		return nil, err
	}
	return msgs, nil
}

// BuildLoanBatchInto is BuildLoanBatch writing message i to msgs[i]; msgs
// is the caller's, at least len(ns) long and untouched on error. A batch
// of up to BatchInline messages makes no heap allocation.
func (p *Pool) BuildLoanBatchInto(sender int, ns []int, msgs []*Message, wait bool, stop <-chan struct{}) error {
	var headsBuf, tailsBuf [BatchInline]int32
	heads, tails := InlineOr(headsBuf[:], len(ns)), InlineOr(tailsBuf[:], len(ns))
	if err := p.arena.AllocPayloadsInto(ns, heads, tails, wait, stop); err != nil {
		return err
	}
	for i, n := range ns {
		msgs[i] = p.bind(sender, n, heads[i], tails[i])
	}
	return nil
}

// View returns a zero-copy window onto m's payload. Validity follows
// block ownership: the caller must hold the message pinned (receive
// views) or own its unsent chain (loans).
func (p *Pool) View(m *Message) View {
	return NewView(p.arena, m.Head, m.Length)
}

// Extract copies the message payload into buf and returns the number of
// bytes copied (min of message length and len(buf)), mirroring
// message_receive's buffer-length semantics.
func (p *Pool) Extract(m *Message, buf []byte) int {
	if m.Length == 0 {
		return 0
	}
	return p.arena.ReadChain(m.Head, m.Length, buf)
}

// Release returns the message's blocks to the arena. The caller must
// guarantee no receiver still needs m, and must not touch m afterwards:
// the header goes with the head block.
func (p *Pool) Release(m *Message) {
	if head := unbind(m); head != shm.NilOffset {
		p.arena.FreeChain(head)
	}
}

// ReleaseBatch returns a whole batch of messages' blocks to the arena
// in one free-pool transaction (Arena.FreeChains) — Release amortised
// the same way BuildLoanBatch amortises Build. The caller must guarantee
// no receiver still needs any of them. Every header of the batch is
// finished with before any chain is freed.
func (p *Pool) ReleaseBatch(ms []*Message) {
	if len(ms) == 0 {
		return
	}
	// 32 is what a reclaim scan collects and FreeChains walks without
	// leaving the stack.
	var headsBuf [32]int32
	heads := InlineOr(headsBuf[:], len(ms))
	for i, m := range ms {
		heads[i] = unbind(m)
	}
	p.arena.FreeChains(heads)
}

// ReleaseIn is ReleaseBatch for messages retired from the circuit that
// owns recycle slot slot. A lone message's chain is offered to the slot
// (shm.Arena.FreeChainIn), which keeps it for the circuit's next send
// if it is one span; a batch keeps ReleaseBatch's one transaction.
func (p *Pool) ReleaseIn(slot int, ms []*Message) {
	if len(ms) != 1 {
		p.ReleaseBatch(ms)
		return
	}
	if head := unbind(ms[0]); head != shm.NilOffset {
		p.arena.FreeChainIn(slot, head)
	}
}

// bind returns the header of the freshly allocated chain head…tail, set
// up for n payload bytes from sender: the table entry of head's block,
// zeroed of whatever message last started there.
func (p *Pool) bind(sender, n int, head, tail int32) *Message {
	slot := &p.headers[p.arena.BlockIndex(head)]
	m := *slot
	if m == nil {
		m = new(Message)
		*slot = m
	}
	*m = Message{Length: n, Head: head, Tail: tail, Sender: sender, Blocks: p.arena.BlocksFor(n)}
	return m
}

// unbind is the header half of a release, done while the caller still
// owns the chain: it takes m's chain out of the header — a second release
// straight after the first finds nothing to free — and returns the head
// for the caller to free.
func unbind(m *Message) int32 {
	head := m.Head
	m.Head, m.Tail, m.Next = shm.NilOffset, shm.NilOffset, nil
	return head
}

// Check verifies header/chain consistency: m is the header bound to its own head block, the chain's segments cover
// exactly Length payload bytes (the last segment is load-bearing — no
// over-allocation), a zero-length message still occupies one segment, and
// Tail is the chain's last segment. For tests.
func (p *Pool) Check(m *Message) error {
	if m.Head == shm.NilOffset {
		return fmt.Errorf("msg: %d-byte message has no chain", m.Length)
	}
	if i := p.arena.BlockIndex(m.Head); i < 0 || i >= len(p.headers) || p.headers[i] != m {
		return fmt.Errorf("msg: header of the message at offset %d is not the entry of its head block", m.Head)
	}
	capacity, lastCap, segs := 0, 0, 0
	tail := m.Head
	for off := m.Head; off != shm.NilOffset; off = p.arena.Next(off) {
		lastCap = len(p.arena.SegPayload(off))
		capacity += lastCap
		segs++
		tail = off
	}
	if capacity < m.Length {
		return fmt.Errorf("msg: %d-byte message has chain capacity %d", m.Length, capacity)
	}
	if segs > 1 && capacity-lastCap >= m.Length {
		return fmt.Errorf("msg: %d-byte message over-allocated: %d segments, capacity %d without the last",
			m.Length, segs, capacity-lastCap)
	}
	if m.Length == 0 && segs != 1 {
		return fmt.Errorf("msg: zero-length message has %d segments, want 1", segs)
	}
	if tail != m.Tail {
		return fmt.Errorf("msg: tail pointer %d does not match chain end %d", m.Tail, tail)
	}
	return nil
}

// Queue is the FIFO of messages inside an LNVC descriptor, a singly
// linked list with head and tail pointers exactly as in the paper's
// Figure 2. All methods must be called under the LNVC lock.
type Queue struct {
	head, tail *Message
	n          int
	nextSeq    uint64
}

// Enqueue appends m and assigns its sequence number.
func (q *Queue) Enqueue(m *Message) {
	m.Seq = q.nextSeq
	q.nextSeq++
	m.Next = nil
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.Next = m
	}
	q.tail = m
	q.n++
}

// Head returns the oldest queued message, or nil.
func (q *Queue) Head() *Message { return q.head }

// Len returns the number of queued messages (the paper's "number of
// queued messages" descriptor field).
func (q *Queue) Len() int { return q.n }

// NextSeq returns the sequence number the next enqueued message will get.
func (q *Queue) NextSeq() uint64 { return q.nextSeq }

// Remove unlinks m from the queue. prev must be m's predecessor or nil if
// m is the head. Core tracks predecessors while scanning for reclaimable
// messages.
func (q *Queue) Remove(m, prev *Message) {
	if prev == nil {
		if q.head != m {
			panic("msg: Remove head mismatch")
		}
		q.head = m.Next
	} else {
		if prev.Next != m {
			panic("msg: Remove prev mismatch")
		}
		prev.Next = m.Next
	}
	if q.tail == m {
		q.tail = prev
	}
	m.Next = nil
	q.n--
}

// Walk calls f for each message in FIFO order together with its
// predecessor; returning false stops the walk. f must not mutate the
// queue; use the returned (m, prev) pairs with Remove afterwards.
func (q *Queue) Walk(f func(m, prev *Message) bool) {
	var prev *Message
	for m := q.head; m != nil; {
		next := m.Next
		if !f(m, prev) {
			return
		}
		prev = m
		m = next
	}
}

// After returns the first message with Seq >= seq, or nil. This is how a
// receiver's private head "pointer" (a sequence number) is dereferenced.
func (q *Queue) After(seq uint64) *Message {
	for m := q.head; m != nil; m = m.Next {
		if m.Seq >= seq {
			return m
		}
	}
	return nil
}
