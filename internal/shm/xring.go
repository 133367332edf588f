package shm

// XRing: a single-producer single-consumer descriptor ring living
// entirely inside a segment. Payload never travels through it: records carry
// segment offsets into the shared arena (plus a tag and a user word),
// so a parent and a child exchange multi-kilobyte messages by moving
// 16-byte descriptors while the payload bytes sit still in the mapped
// region — zero copies across the process boundary.
//
// Synchronization is two futex-backed NotifyWords: the producer
// publishes records with a release store of the tail index and one
// Post (one FUTEX_WAKE per publish or batch); the consumer parks on
// the data word when the ring is empty, the producer parks on the
// space word when it is full. All ring state (indices, closed flag,
// records) is in the segment; only the stats handles are
// process-local.
//
// Layout, all offsets 64-aligned so the producer's and consumer's hot
// words never share a cache line across processes:
//
//	+0    magic, capacity (records, power of two)
//	+64   tail  (producer-owned index, consumer-read)
//	+128  head  (consumer-owned index, producer-read)
//	+192  closed flag
//	+256  data NotifyWord  (posted by producer; two lines — see NotifyBytes)
//	+384  space NotifyWord (posted by consumer)
//	+512  records: capacity × 16 bytes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ErrRingClosed is returned once a closed ring has drained (a pop) or
// immediately (a push): the peer has detached or the facility is
// shutting down.
var ErrRingClosed = errors.New("shm: descriptor ring closed")

// ErrRingTimeout is returned when a bounded pop or push expires.
var ErrRingTimeout = errors.New("shm: descriptor ring wait timed out")

// ErrRingCorrupt is returned when the ring's indices are further apart
// than its capacity: a peer scribbled on them, or died half-way through
// something no protocol step does.
var ErrRingCorrupt = errors.New("shm: descriptor ring indices corrupt")

const (
	// ringMagic is "MPRS": bumped from "MPRR" when the NotifyWords grew
	// to two cache lines each, so a stale-layout attach fails loudly at
	// the magic check instead of aliasing the space word over the data
	// word's sleeper count.
	ringMagic    = 0x4D505253
	ringHdrBytes = 512
	// RecordBytes is the wire size of one descriptor.
	RecordBytes = 16

	ringOffMagic  = 0
	ringOffCap    = 4
	ringOffTail   = 64
	ringOffHead   = 128
	ringOffClosed = 192
	ringOffData   = 256
	ringOffSpace  = 256 + NotifyBytes
)

// Record is one ring descriptor: a segment window plus protocol tag
// and user word. The meaning of Tag/Word is the attaching protocol's
// business (the proc facade uses Tag for message kinds and Word for
// checksums/sequence numbers).
type Record struct {
	Off int64
	Len int32
	Tag uint16
	// Word is a protocol scratch field (checksum, sequence, slot…).
	Word uint16
}

// RingBytes returns the segment footprint of a ring with the given
// capacity (which must be a power of two).
func RingBytes(capacity int) int64 {
	return ringHdrBytes + int64(capacity)*RecordBytes
}

// XRing is a process-local handle onto an in-segment SPSC ring. Each
// side creates its own handle (InitRing in the segment's creator,
// AttachRing or RingAt everywhere else).
type XRing struct {
	seg  *Segment
	base int64
	mask uint32
	data *NotifyWord // posted by producer after publishing
	spc  *NotifyWord // posted by consumer after freeing space
}

// InitRing formats a ring at base (64-aligned) and returns a handle.
// capacity must be a power of two; the ring's memory must be zeroed
// (fresh segments are).
func InitRing(seg *Segment, base int64, capacity int) (*XRing, error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("shm: ring capacity %d is not a power of two", capacity)
	}
	if base%64 != 0 {
		return nil, fmt.Errorf("shm: ring base %d not 64-aligned", base)
	}
	if base+RingBytes(capacity) > seg.Size() {
		return nil, fmt.Errorf("shm: ring of %d records at %d exceeds segment of %d bytes",
			capacity, base, seg.Size())
	}
	r := RingAt(seg, base, capacity)
	r.Reset()
	return r, nil
}

// Reset formats the ring in place under its handle: capacity and magic
// stamped, indices zeroed, closed flag cleared, so queued records are
// unreachable. Only safe while neither end is in use.
func (r *XRing) Reset() {
	r.seg.Atomic32(r.base + ringOffCap).Store(r.mask + 1)
	r.seg.Atomic32(r.base + ringOffTail).Store(0)
	r.seg.Atomic32(r.base + ringOffHead).Store(0)
	r.seg.Atomic32(r.base + ringOffClosed).Store(0)
	r.seg.Atomic32(r.base + ringOffMagic).Store(ringMagic)
}

// RingAt binds a handle to the ring of the given capacity (a power of
// two) at base without reading the ring's header: for a process that
// derives ring geometry instead of reading it from words a peer can
// write. The caller guarantees the ring lies inside the segment.
func RingAt(seg *Segment, base int64, capacity int) *XRing {
	return &XRing{
		seg:  seg,
		base: base,
		mask: uint32(capacity) - 1,
		data: NotifyAt(seg, base+ringOffData),
		spc:  NotifyAt(seg, base+ringOffSpace),
	}
}

// Cap returns the ring capacity in records.
func (r *XRing) Cap() int { return int(r.mask + 1) }

// cursors loads the consumer and producer indices and bounds their
// distance. Either index is a word the peer process can write, so it is
// not trusted: a distance beyond the capacity is no state the protocol
// can reach, and the caller gets ErrRingCorrupt instead of being
// walked through up to 2³² garbage records. Head is read first, so the
// owner of either index sees an exact distance and anybody else a
// conservative one.
func (r *XRing) cursors() (head, tail uint32, err error) {
	head = r.seg.Atomic32(r.base + ringOffHead).Load()
	tail = r.seg.Atomic32(r.base + ringOffTail).Load()
	if tail-head > r.mask+1 {
		return head, tail, fmt.Errorf("%w: head %d, tail %d, capacity %d", ErrRingCorrupt, head, tail, r.mask+1)
	}
	return head, tail, nil
}

// Len returns the number of records currently queued (advisory: the
// peer moves concurrently), never more than the capacity.
func (r *XRing) Len() int {
	head, tail, err := r.cursors()
	if err != nil {
		return r.Cap()
	}
	return int(tail - head)
}

// closed reports whether either side has closed the ring.
func (r *XRing) closed() bool { return r.seg.Atomic32(r.base+ringOffClosed).Load() != 0 }

// Close marks the ring closed and wakes both sides. Either side may
// close; records already published remain poppable (a pop drains
// them, then reports ErrRingClosed).
func (r *XRing) Close() {
	r.seg.Atomic32(r.base + ringOffClosed).Store(1)
	r.data.Post()
	r.spc.Post()
}

func (r *XRing) recSlot(i uint32) []byte {
	return r.seg.At(r.base+ringHdrBytes+int64(i&r.mask)*RecordBytes, RecordBytes)
}

func putRecord(b []byte, rec Record) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(rec.Off))
	binary.LittleEndian.PutUint32(b[8:12], uint32(rec.Len))
	binary.LittleEndian.PutUint16(b[12:14], rec.Tag)
	binary.LittleEndian.PutUint16(b[14:16], rec.Word)
}

func getRecord(b []byte) Record {
	return Record{
		Off:  int64(binary.LittleEndian.Uint64(b[0:8])),
		Len:  int32(binary.LittleEndian.Uint32(b[8:12])),
		Tag:  binary.LittleEndian.Uint16(b[12:14]),
		Word: binary.LittleEndian.Uint16(b[14:16]),
	}
}

// tryPush publishes all of recs if they fit, reporting whether it did:
// the record stores, a release store of tail and one Post however many
// records.
func (r *XRing) tryPush(recs []Record) (bool, error) {
	if r.closed() {
		return false, ErrRingClosed
	}
	head, tail, err := r.cursors()
	if err != nil {
		return false, err
	}
	if tail-head+uint32(len(recs)) > r.mask+1 {
		return false, nil
	}
	for i, rec := range recs {
		putRecord(r.recSlot(tail+uint32(i)), rec)
	}
	// The atomic store is the release barrier making the record bytes
	// visible before the index moves; one Post per publish (or batch)
	// is the single FUTEX_WAKE.
	r.seg.Atomic32(r.base + ringOffTail).Store(tail + uint32(len(recs)))
	r.data.Post()
	return true, nil
}

// tryPop consumes up to len(dst) of the oldest records, returning how
// many: the record loads, one store of head and one Post of the space
// word however long the run. A closed ring reports ErrRingClosed once
// it is empty.
func (r *XRing) tryPop(dst []Record) (int, error) {
	head, tail, err := r.cursors()
	if err != nil {
		return 0, err
	}
	n := int(tail - head)
	if n == 0 {
		if r.closed() {
			return 0, ErrRingClosed
		}
		return 0, nil
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := range dst[:n] {
		dst[i] = getRecord(r.recSlot(head + uint32(i)))
	}
	r.seg.Atomic32(r.base + ringOffHead).Store(head + uint32(n))
	r.spc.Post()
	return n, nil
}

// abortProbeSlice bounds each futex park inside an abortable wait so
// the abort callback is consulted at least this often. 10ms keeps the
// liveness check off the hot path (a posted word returns immediately;
// the slice only matters while genuinely blocked on a silent peer).
const abortProbeSlice = 10 * time.Millisecond

// park is the slow path shared by every blocking push and pop: wait
// for w to move past seen. Without an abort probe it parks until the
// deadline (zero = forever); with one, the probe runs first — a
// non-nil return, typically ErrPeerDead, ends the wait with that
// error — and each park lasts at most abortProbeSlice. The caller
// retries its operation on nil.
func park(w *NotifyWord, seen uint32, deadline time.Time, abort func() error) error {
	until := deadline
	if abort != nil {
		if err := abort(); err != nil {
			return err
		}
		if slice := time.Now().Add(abortProbeSlice); deadline.IsZero() || slice.Before(deadline) {
			until = slice
		}
	}
	if _, ok := w.Wait(seen, until); !ok && !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrRingTimeout
	}
	return nil
}

// PushBatchAbort publishes all of recs in one ring transaction — one
// tail store and one wake however many records, the cross-process
// counterpart of the LoanBatch amortisation — blocking while
// they do not fit (spin, then futex-wait on the space word). The batch
// must fit the ring's capacity. A zero deadline waits forever;
// ErrRingTimeout reports expiry, ErrRingClosed a closed ring,
// ErrRingCorrupt cursors no run of the protocol produces. abort, when
// not nil, is the liveness hook of a producer whose consumer may die:
// it is probed at least every abortProbeSlice while blocked, never on
// the fast path.
func (r *XRing) PushBatchAbort(recs []Record, deadline time.Time, abort func() error) error {
	if len(recs) == 0 {
		return nil
	}
	if len(recs) > r.Cap() {
		return fmt.Errorf("shm: batch of %d records exceeds ring capacity %d", len(recs), r.Cap())
	}
	for {
		if ok, err := r.tryPush(recs); err != nil || ok {
			return err
		}
		seen := r.spc.Load()
		// Re-check after reading the token: a Post between the failed
		// try and the Load is not missable now.
		if ok, err := r.tryPush(recs); err != nil || ok {
			return err
		}
		if err := park(r.spc, seen, deadline, abort); err != nil {
			return err
		}
	}
}

// PopBatchAbort consumes the oldest queued records into dst, blocking
// while the ring is empty (spin, then futex-wait on the data word) and
// returning as soon as there is at least one: however long the run, it
// costs one head store and one Post of the space word. Deadline and
// abort are PushBatchAbort's. A closed ring drains its queued records
// first, then reports ErrRingClosed.
func (r *XRing) PopBatchAbort(dst []Record, deadline time.Time, abort func() error) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	for {
		if n, err := r.tryPop(dst); err != nil || n > 0 {
			return n, err
		}
		seen := r.data.Load()
		if n, err := r.tryPop(dst); err != nil || n > 0 {
			return n, err
		}
		if err := park(r.data, seen, deadline, abort); err != nil {
			return 0, err
		}
	}
}

// PopBatch is the non-blocking PopBatchAbort: it consumes what is
// queued, up to len(dst) records, and returns 0 for an empty ring.
func (r *XRing) PopBatch(dst []Record) (int, error) { return r.tryPop(dst) }

// TryPushBatch is the non-blocking PushBatchAbort: it publishes all of
// recs if they fit right now, reporting whether it did.
func (r *XRing) TryPushBatch(recs []Record) (bool, error) {
	if len(recs) == 0 {
		return true, nil
	}
	return r.tryPush(recs)
}

// TryPush publishes rec if space is available, reporting whether it
// did.
func (r *XRing) TryPush(rec Record) (bool, error) { return r.tryPush([]Record{rec}) }

// TryPop consumes the oldest record if one is available.
func (r *XRing) TryPop() (Record, bool, error) {
	var one [1]Record
	n, err := r.tryPop(one[:])
	return one[0], n == 1, err
}

// PushBatch is PushBatchAbort without a liveness hook.
func (r *XRing) PushBatch(recs []Record, deadline time.Time) error {
	return r.PushBatchAbort(recs, deadline, nil)
}

// WaitStats returns the waiter counters of this handle's two notify
// words: data is what the consumer slept/spun on, space the
// producer's. The cross-process ablation derives its busy-spin
// metrics from these.
func (r *XRing) WaitStats() (data, space WaitStats) {
	return r.data.Stats(), r.spc.Stats()
}
