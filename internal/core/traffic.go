package core

// Traffic accounting (DESIGN.md §8). The paper keeps its bookkeeping in
// the LNVC, send and receive descriptors (§3.1, Figure 2): whoever holds
// a circuit's lock owns everything it has to update. So do the counters
// here. Every count that moves per message or per batch is a plain word
// on the connection that caused it — sendDesc.tx, recvDesc.rx — bumped
// inside a circuit-lock hold the path already takes (publish, waitClaim,
// unpinAll, a harvest round's per-circuit hold, checkReceive). Nothing
// facility-wide is written per message; Facility.Stats adds the words up
// when asked, one circuit lock at a time. The two copy escape hatches
// that hold no lock (View.CopyTo, a CopyFrom-filled loan that is never
// enqueued) are the exception, on a facility-wide line of their own
// (statsCell).
//
// A closing connection folds its words into its circuit's closed group
// (lnvc.gone) under the close path's hold, and a recycled descriptor
// folds that into past, so the sums are monotonic across close, deletion
// and recycling.

// sendCounts is the traffic of one send connection. publish takes one by
// value as the caller's attribution (copiesIn, loans, loanBatch, batches)
// and fills in msgs and bytes from the loop that enqueues.
type sendCounts struct {
	msgs, bytes uint64
	copiesIn    uint64 // Send, SendBatch, a committed loan's CopyFrom
	loans       uint64 // messages committed through SendLoan
	loanBatch   uint64 // messages committed through LoanBatch
	batches     uint64 // SendBatch calls
}

func (c *sendCounts) add(o *sendCounts) {
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.copiesIn += o.copiesIn
	c.loans += o.loans
	c.loanBatch += o.loanBatch
	c.batches += o.batches
}

// recvCounts is the traffic of one receive connection: exactly one cache
// line. View claims are counted where they are made (waitClaim, a
// harvest round); a copying receive is counted by the unpinAll that ends
// it, because its byte count exists only after the copy.
type recvCounts struct {
	msgs, bytes uint64
	copiesOut   uint64 // Receive, TryReceive, ReceiveBatch, ReceiveAny
	views       uint64 // messages claimed through ReceiveView/TryReceiveView
	harvested   uint64 // messages claimed inside a Selector harvest round
	batches     uint64 // ReceiveBatch calls
	waits       uint64 // claims that had to park
	checks      uint64 // CheckReceive calls
}

func (c *recvCounts) add(o *recvCounts) {
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.copiesOut += o.copiesOut
	c.views += o.views
	c.harvested += o.harvested
	c.batches += o.batches
	c.waits += o.waits
	c.checks += o.checks
}

// traffic is both sides' counts: a circuit's closed and past groups, and
// the accumulator Stats sums into.
type traffic struct {
	tx sendCounts
	rx recvCounts
}

func (t *traffic) add(o *traffic) {
	t.tx.add(&o.tx)
	t.rx.add(&o.rx)
}

// trafficLocked adds everything this descriptor has ever counted — its
// earlier incarnations, this incarnation's closed connections and the
// live ones — to t. Called under l.lock, which is what every writer of
// these words holds.
func (l *lnvc) trafficLocked(t *traffic) {
	t.add(&l.gone.past)
	t.add(&l.gone.closed)
	for _, d := range l.sends {
		t.tx.add(&d.tx)
	}
	for _, d := range l.recvs {
		t.rx.add(&d.rx)
	}
}

// adopt records a freshly created descriptor so that Stats can find it
// for the rest of the facility's life (descriptors are recycled, never
// freed).
func (f *Facility) adopt(l *lnvc) {
	f.idLock.Lock()
	f.descs = append(f.descs, l)
	f.idLock.Unlock()
}

// Stats returns a snapshot of the facility's operation counters: the
// rare-event cell, the registry lock totals (per-shard breakdown via
// RegistryStats), and the per-connection traffic words summed over every
// LNVC descriptor the facility has created — one circuit lock at a time,
// never two together, so a concurrent reader sees each field monotonic
// but not the fields of one instant. CreditsHeld is derived the same way:
// the sum of the circuits' outstanding debits.
func (f *Facility) Stats() Stats {
	st := f.stats.snapshot()
	rt := f.contention.Total()
	st.RegistryAcquisitions = rt.Acquisitions
	st.RegistryContended = rt.Contended

	// descs is append-only, so the prefix read here stays valid after the
	// leaf lock drops.
	f.idLock.Lock()
	descs := f.descs
	f.idLock.Unlock()
	var t traffic
	held := 0
	for _, l := range descs {
		l.lock.Lock()
		l.trafficLocked(&t)
		held += int(l.creditUsed)
		l.lock.Unlock()
	}
	st.Sends, st.BytesSent = t.tx.msgs, t.tx.bytes
	st.PayloadCopiesIn += t.tx.copiesIn
	st.LoanSends, st.LoanBatchSends = t.tx.loans, t.tx.loanBatch
	st.BatchSends = t.tx.batches
	st.Receives, st.BytesRecvd = t.rx.msgs, t.rx.bytes
	st.PayloadCopiesOut += t.rx.copiesOut
	st.ViewReceives, st.HarvestedViews = t.rx.views, t.rx.harvested
	st.BatchReceives = t.rx.batches
	st.ReceiveWaits, st.Checks = t.rx.waits, t.rx.checks
	st.CreditsHeld = uint64(held)
	return st
}
