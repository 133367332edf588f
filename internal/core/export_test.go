package core

// FreeIDCount reports how many LNVC identifiers are currently unused —
// MaxLNVCs minus live circuits when no descriptor has leaked. Tests use
// it to assert leak-freedom after churn.
func (f *Facility) FreeIDCount() int {
	f.reg.RLock()
	defer f.reg.RUnlock()
	return len(f.freeIDs) + len(f.lnvcFree)
}
