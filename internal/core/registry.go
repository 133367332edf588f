package core

// The LNVC registry maps circuit names to descriptors. As in the paper,
// every open_send, open_receive and close runs under one table lock
// (§3.1): Facility.reg, a reader/writer lock that guards the name map,
// the descriptor free list, the pool of unused IDs and descs. It is
// taken only to open and close, never per message: Send, Receive and
// Check translate an ID to its descriptor with one atomic load of slots.
//
// An ID and its descriptor are bound for life. A circuit that is
// created takes a recycled descriptor, which keeps its ID, or else a
// fresh ID from freeIDs and a new descriptor; a circuit that is deleted
// returns its descriptor to lnvcFree. So the facility's capacity is
// exactly MaxLNVCs, and a recycled circuit differs from its predecessor
// only in its generation (lnvc.gen).
//
// reg counts its own traffic (spinlock.RW.Stats), which Facility.Stats
// and Facility.RegistryStats read. Where reg ranks among the facility's
// locks is stated once, in DESIGN.md §16.

// LNVCByName returns the ID bound to name, for introspection.
func (f *Facility) LNVCByName(name string) (ID, bool) {
	f.reg.RLock()
	defer f.reg.RUnlock()
	id, ok := f.names[name]
	return id, ok
}

// LNVCCount returns the number of live LNVCs.
func (f *Facility) LNVCCount() int {
	f.reg.RLock()
	defer f.reg.RUnlock()
	return len(f.names)
}

// LockStat is a snapshot of the registry lock's traffic.
type LockStat struct {
	// Acquisitions counts lock acquisitions, read and write.
	Acquisitions uint64
	// Contended counts the acquisitions that found the lock unavailable
	// and parked.
	Contended uint64
}

// RegistryStats returns the registry lock's acquisition counters
// gathered since Init, as a one-element slice.
func (f *Facility) RegistryStats() []LockStat {
	var s LockStat
	s.Acquisitions, s.Contended = f.reg.Stats()
	return []LockStat{s}
}
