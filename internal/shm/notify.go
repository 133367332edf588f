package shm

// NotifyWord: the cross-process event counter. Two 4-byte protocol
// words live side by side inside the segment — an event count and a
// sleeper count. Post increments the count and issues one FUTEX_WAKE
// only when a peer is actually asleep; Wait polls the count for one
// spin window — as long as a sleep and its wake would cost, see
// WakeWindow — registers as a sleeper, re-checks, and then sleeps
// in the kernel via FUTEX_WAIT until the count moves.
// This is the process-boundary analogue of the Ring.SetNotify
// readiness hook and the per-circuit waiter lists of PR 2/4: one wake
// per publish or batch at most, none when the consumer keeps up, no
// thundering herd, and no Go runtime shared between waiter and waker.
//
// The registration/re-check dance is the classic futex protocol: both
// sides' accesses are sequentially consistent atomics, so either the
// waiter's post-registration re-check observes the new count, or the
// poster's waiter-count load observes the registration — a wakeup can
// not fall between the cracks. Kernel sleeps are additionally bounded
// (notifySleepSlice) so a peer killed mid-publish degrades to a
// periodic re-check instead of a hang.

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// NotifyBytes is a NotifyWord's in-segment footprint: the event count
// on one cache line and the sleeper count on the next. The two words
// used to sit side by side, but they have disjoint writers — the
// poster bumps the count, waiters bump the sleeper registration — so
// packing them made every registration invalidate the poster's line
// and vice versa. Two lines remove that false sharing.
const NotifyBytes = 128

// notifySleeperOff is the sleeper word's offset inside a NotifyWord's
// footprint: one cache line past the event count.
const notifySleeperOff = 64

// WakeWindow is how long a waiter polls the count before it
// sleeps in the kernel: the cost of the alternative. A FUTEX_WAIT that
// a Post ends takes 22–24 µs from the post to the waiter running again
// on the reference box (the benchmark's shm.notify_wake_us) and charges
// the poster a FUTEX_WAKE syscall of about 6 µs on top, so an event due
// within the window is cheaper to poll for, and one that is not has
// cost the waiter at most as much again as the sleep it then takes:
// never more than twice the best choice made with hindsight (Karlin et
// al., competitive spinning, SOSP 1991). The window is time, not a poll
// count, because a count is worth whatever the box's cache and
// scheduler make of it (192 polls were ~3 µs here, an eighth of the
// sleep they were meant to avoid). It must stay under 50 µs: the
// notify_wake_us probe posts 150 µs into a Wait and has to find its
// waiter asleep. In-process, the same cost decides when a send hands
// its P to the multiplexer it wakes (internal/core, waiter.go): only to
// one that has slept longer than this.
const WakeWindow = 25 * time.Microsecond

// notifyPollsPerCheck is the number of polls between two looks away
// from the count: a Gosched, which keeps a same-process counterpart
// runnable (in-process tests, the heap fallback), and the clock read
// that ends the window. Across processes the polls in between are pure
// cache-line reads.
const notifyPollsPerCheck = 16

// notifySleepSlice bounds one kernel sleep so a lost wakeup (a peer
// killed between publish and wake) degrades to a periodic re-check
// instead of a hang. Waiters re-validate their predicate every slice.
const notifySleepSlice = 2 * time.Millisecond

// WaitStats counts a handle's activity on one NotifyWord (the handle
// is process-local; the words are shared). Polls is the number of spin
// iterations that found no progress, Sleeps the number of kernel
// waits, Wakes the number of FUTEX_WAKE syscalls actually issued.
// Polls/Sleeps per delivered message are the busy-spin metrics the
// cross-process ablation records.
type WaitStats struct {
	Polls  uint64
	Sleeps uint64
	Wakes  uint64
}

// NotifyWord is a handle onto a shared event-count word pair. Handles
// onto the same offset share the words but not the stats.
type NotifyWord struct {
	w        *atomic.Uint32 // event count
	sleepers *atomic.Uint32 // registered kernel sleepers
	stats    *WaitStats
}

// NotifyAt binds a handle to the NotifyBytes-sized word pair at off
// (4-aligned; 64-align it so each word owns its line outright).
func NotifyAt(seg *Segment, off int64) *NotifyWord {
	return &NotifyWord{
		w:        seg.Atomic32(off),
		sleepers: seg.Atomic32(off + notifySleeperOff),
		stats:    &WaitStats{},
	}
}

// Load returns the current event count, the token Wait resumes from.
func (n *NotifyWord) Load() uint32 { return n.w.Load() }

// Post publishes one event: increment the count, then one FUTEX_WAKE —
// and only if a peer is registered asleep, so the syscall vanishes
// entirely while the consumer keeps up. A Post after k ring pushes is
// still at most one wake: the batch-friendly shape.
func (n *NotifyWord) Post() {
	n.w.Add(1)
	if n.sleepers.Load() != 0 {
		atomic.AddUint64(&n.stats.Wakes, 1)
		futexWake((*uint32)(addrOf(n.w)), 1<<30)
	}
}

// Wait blocks until the count differs from old, returning the new
// value: poll for one spin window, then FUTEX_WAIT in bounded slices.
// The deadline (zero time = none) bounds the total wait; on expiry the
// current count is returned with ok=false — callers re-check their
// predicate either way, exactly as with any condition variable.
func (n *NotifyWord) Wait(old uint32, deadline time.Time) (v uint32, ok bool) {
	// The window opens at the first clock read, so a count that moves
	// within the first polls costs no clock read at all; it closes early
	// at a deadline that falls inside it.
	var closes time.Time
	for i := 1; ; i++ {
		if v := n.w.Load(); v != old {
			return v, true
		}
		atomic.AddUint64(&n.stats.Polls, 1)
		if i%notifyPollsPerCheck != 0 {
			continue
		}
		runtime.Gosched()
		if now := time.Now(); closes.IsZero() {
			closes = now.Add(WakeWindow)
			if !deadline.IsZero() && deadline.Before(closes) {
				closes = deadline
			}
		} else if !now.Before(closes) {
			break
		}
	}
	for {
		// Register, then re-check: sequential consistency guarantees
		// the poster either sees the registration or we see its count.
		n.sleepers.Add(1)
		if v := n.w.Load(); v != old {
			n.sleepers.Add(^uint32(0))
			return v, true
		}
		slice := notifySleepSlice
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				n.sleepers.Add(^uint32(0))
				return n.w.Load(), false
			}
			if remain < slice {
				slice = remain
			}
		}
		atomic.AddUint64(&n.stats.Sleeps, 1)
		futexWait((*uint32)(addrOf(n.w)), old, slice)
		n.sleepers.Add(^uint32(0))
		if v := n.w.Load(); v != old {
			return v, true
		}
	}
}

// Stats snapshots this handle's waiter counters.
func (n *NotifyWord) Stats() WaitStats {
	return WaitStats{
		Polls:  atomic.LoadUint64(&n.stats.Polls),
		Sleeps: atomic.LoadUint64(&n.stats.Sleeps),
		Wakes:  atomic.LoadUint64(&n.stats.Wakes),
	}
}

// addrOf recovers the raw word address the futex syscalls need.
// atomic.Uint32 is its uint32 plus zero-size alignment guards, so the
// struct address is the word address.
func addrOf(w *atomic.Uint32) unsafe.Pointer { return unsafe.Pointer(w) }
