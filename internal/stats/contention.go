package stats

import "sync/atomic"

// Per-shard contention accounting for sharded data structures (the LNVC
// registry in internal/core). The counters live here, next to the rest
// of the measurement toolkit; the facility reports them through
// Stats and RegistryStats.

// LockStat is a snapshot of one shard's lock traffic.
type LockStat struct {
	// Acquisitions counts successful lock acquisitions (read and write).
	Acquisitions uint64
	// Contended counts acquisitions whose first attempt found the lock
	// held, i.e. the acquirer had to spin.
	Contended uint64
}

// ContentionRate returns the fraction of acquisitions that contended
// (0 for an idle shard).
func (s LockStat) ContentionRate() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}

// cacheLine pads contention cells so that adjacent shards' counters do
// not share a cache line — otherwise the counters themselves would
// recreate the very contention they are measuring.
const cacheLine = 64

type contentionCell struct {
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	_            [cacheLine - 16]byte
}

// Contention is a fixed-size set of per-shard lock counters, safe for
// concurrent use.
type Contention struct {
	cells []contentionCell
}

// NewContention creates counters for n shards (n >= 1).
func NewContention(n int) *Contention {
	if n < 1 {
		n = 1
	}
	return &Contention{cells: make([]contentionCell, n)}
}

// Shards returns the number of shards tracked.
func (c *Contention) Shards() int { return len(c.cells) }

// Record notes one lock acquisition on shard i, contended or not.
func (c *Contention) Record(i int, contended bool) {
	cell := &c.cells[i]
	cell.acquisitions.Add(1)
	if contended {
		cell.contended.Add(1)
	}
}

// Snapshot returns the current per-shard counters.
func (c *Contention) Snapshot() []LockStat {
	out := make([]LockStat, len(c.cells))
	for i := range c.cells {
		out[i] = LockStat{
			Acquisitions: c.cells[i].acquisitions.Load(),
			Contended:    c.cells[i].contended.Load(),
		}
	}
	return out
}

// Total sums the per-shard counters.
func (c *Contention) Total() LockStat {
	var t LockStat
	for i := range c.cells {
		t.Acquisitions += c.cells[i].acquisitions.Load()
		t.Contended += c.cells[i].contended.Load()
	}
	return t
}
