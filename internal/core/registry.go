package core

import "repro/internal/spinlock"

// The LNVC registry maps circuit names to descriptors. The paper
// serializes every open_send/open_receive/close through one global table
// lock (§3.1), and its Figures 4-6 show the resulting contention as
// process counts grow. This implementation shards the name space
// instead: names hash across registryShards shards, each with
// its own reader/writer lock, name map and descriptor free list, so
// opens and closes on circuits in different shards never contend.
//
// Two registry structures remain global:
//
//   - slots: the ID-to-descriptor table. Lookups (the Send/Receive hot
//     path) are a single atomic load — no registry lock at all.
//   - freeIDs: the pool of unused IDs, behind its own leaf lock. It is
//     touched only on circuit creation and deletion, and its critical
//     section is a slice push/pop, so it is not a practical bottleneck;
//     keeping it global preserves the exact MaxLNVCs capacity semantics
//     under any hash skew.
//
// Each shard's lock counts its own traffic (spinlock.RW.Stats), which
// Facility.Stats and Facility.RegistryStats read.
//
// A descriptor is recycled only through its own shard's free list, so
// the descriptor-to-shard binding is immutable for the descriptor's
// lifetime: the close path can map a descriptor back to its shard
// without any lock.
//
// Where the shard lock and the freeIDs lock rank among the facility's
// locks is stated once, in DESIGN.md §16.

// registryShards is the number of registry shards, a power of two.
// Sixteen shards keep the per-shard footprint trivial while making
// open/close contention negligible at the goroutine counts the
// contention benchmark sweeps.
const registryShards = 16

// registryShard is one slice of the name space.
type registryShard struct {
	// The shard lock and its counters own their cache line: shards sit
	// adjacent in one slice, and unpadded, two 40-byte locks — each taken
	// by a different opener — would share a line, turning independent
	// shards back into one contended word. The tail pad keeps the whole
	// shard a multiple of 64 bytes so neighbouring shards never share a
	// line either (asserted by TestHotWordLayout).
	lock spinlock.RW
	_    [24]byte

	names    map[string]ID
	lnvcFree []*lnvc // recycled descriptors, owned by this shard forever
	_        [32]byte
}

// fnv32 is FNV-1a, inlined to keep name hashing allocation-free.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (f *Facility) shardIndex(name string) uint32 {
	return fnv32(name) & (registryShards - 1)
}

// allocID pops an unused ID, or reports exhaustion. Leaf lock; callers
// may hold a shard lock.
func (f *Facility) allocID() (ID, bool) {
	f.idLock.Lock()
	n := len(f.freeIDs)
	if n == 0 {
		f.idLock.Unlock()
		return -1, false
	}
	id := f.freeIDs[n-1]
	f.freeIDs = f.freeIDs[:n-1]
	f.idLock.Unlock()
	return id, true
}

// freeID returns an ID to the pool.
func (f *Facility) freeID(id ID) {
	f.idLock.Lock()
	f.freeIDs = append(f.freeIDs, id)
	f.idLock.Unlock()
}

// FreeIDCount reports how many LNVC identifiers are currently unused —
// MaxLNVCs minus live circuits when no descriptor has leaked. Tests use
// it to assert leak-freedom after churn.
func (f *Facility) FreeIDCount() int {
	f.idLock.Lock()
	defer f.idLock.Unlock()
	return len(f.freeIDs)
}

// LockStat is a snapshot of one registry shard's lock traffic.
type LockStat struct {
	// Acquisitions counts lock acquisitions, read and write.
	Acquisitions uint64
	// Contended counts the acquisitions that found the lock unavailable
	// and parked.
	Contended uint64
}

// RegistryStats returns the per-shard lock acquisition counters gathered
// since Init. Index i describes shard i.
func (f *Facility) RegistryStats() []LockStat {
	out := make([]LockStat, len(f.shards))
	for i := range f.shards {
		out[i].Acquisitions, out[i].Contended = f.shards[i].lock.Stats()
	}
	return out
}
