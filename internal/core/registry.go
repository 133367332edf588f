package core

import (
	"math/bits"

	"repro/internal/spinlock"
	"repro/internal/stats"
)

// The LNVC registry maps circuit names to descriptors. The paper
// serializes every open_send/open_receive/close through one global table
// lock (§3.1), and its Figures 4-6 show the resulting contention as
// process counts grow. This implementation shards the name space
// instead: names hash across a power-of-two number of shards, each with
// its own reader/writer lock, name map and descriptor free list, so
// opens and closes on circuits in different shards never contend.
//
// Three registry structures remain global:
//
//   - slots: the ID-to-descriptor table. Lookups (the Send/Receive hot
//     path) are a single atomic load — no registry lock at all.
//   - freeIDs: the pool of unused IDs, behind its own leaf lock. It is
//     touched only on circuit creation and deletion, and its critical
//     section is a slice push/pop, so it is not a practical bottleneck;
//     keeping it global preserves the exact MaxLNVCs capacity semantics
//     under any hash skew.
//   - contention: per-shard lock counters (internal/stats.Contention),
//     fed by the TryLock-first probes below and surfaced through
//     Facility.Stats and Facility.RegistryStats.
//
// A descriptor is recycled only through its own shard's free list, so
// the descriptor-to-shard binding is immutable for the descriptor's
// lifetime: the close path can map a descriptor back to its shard
// without any lock.
//
// Lock order: shard lock, then LNVC lock, then (leaf) the freeIDs lock
// or the arena lock. Never the reverse.

// defaultRegistryShards is used when Config.RegistryShards is zero.
// Sixteen shards keep the per-shard footprint trivial while making
// open/close contention negligible at the goroutine counts the
// contention benchmark sweeps.
const defaultRegistryShards = 16

// maxRegistryShards bounds configuration mistakes.
const maxRegistryShards = 1 << 10

// registryShard is one slice of the name space.
type registryShard struct {
	// The shard lock owns its cache line: shards sit adjacent in one
	// slice, and unpadded, two or three 24-byte locks — each taken by a
	// different opener — would share a line, turning independent shards
	// back into one contended word. The tail pad keeps the whole shard a
	// multiple of 64 bytes so neighbouring shards never share a line
	// either (asserted by TestHotWordLayout).
	lock spinlock.RW
	_    [40]byte

	names    map[string]ID
	lnvcFree []*lnvc // recycled descriptors, owned by this shard forever
	_        [32]byte
}

// ceilPow2 rounds n up to a power of two within [1, maxRegistryShards].
func ceilPow2(n int) int {
	if n < 1 {
		n = 1
	}
	if n > maxRegistryShards {
		n = maxRegistryShards
	}
	return 1 << bits.Len(uint(n-1))
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
	return fnv32(name) & f.shardMask
}

// lockShard write-locks shard i, recording whether the acquisition
// contended. The TryLock probe costs one CAS on the uncontended path and
// is what lets the contention figures distinguish "idle shard" from
// "fought-over shard" without timing anything.
func (f *Facility) lockShard(i uint32) *registryShard {
	s := &f.shards[i]
	if s.lock.TryLock() {
		f.contention.Record(int(i), false)
	} else {
		s.lock.Lock()
		f.contention.Record(int(i), true)
	}
	return s
}

// rlockShard read-locks shard i with the same contention accounting.
func (f *Facility) rlockShard(i uint32) *registryShard {
	s := &f.shards[i]
	if s.lock.TryRLock() {
		f.contention.Record(int(i), false)
	} else {
		s.lock.RLock()
		f.contention.Record(int(i), true)
	}
	return s
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

// RegistryStats returns the per-shard lock acquisition counters gathered
// since Init. Index i describes shard i.
func (f *Facility) RegistryStats() []stats.LockStat {
	return f.contention.Snapshot()
}
