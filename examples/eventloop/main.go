// Eventloop: a multiplexed zero-copy server draining many producer
// circuits from a single goroutine — the default server shape the
// batched payload plane is built for. Each producer owns a private
// circuit and ships its records in LoanBatches: one arena transaction
// and one circuit lock acquisition per batch, the records produced in
// place in shared memory. One consumer parks on a Selector over all of
// the circuits and drains them with WaitViews: ready circuits are
// claimed into pinned views inside the wait round — one circuit lock
// per ready circuit, not per message — read in place, and released in
// a batch (one arena transaction per circuit run). No payload byte is
// copied anywhere end to end.
//
// The run ends with the facility's accounting: wakeups per message
// stays well below one however many circuits the loop multiplexes, and
// the copy ledger must show zero payload copies in either direction —
// the run aborts otherwise, which is what CI's example smoke checks.
// The repository benchmark's eventloop_mmpp workload measures the same
// shape (bash benchmark/run.sh --workload eventloop_mmpp).
//
// With -credit n the facility runs under per-circuit credit flow
// control (mpf.WithCredit): each producer circuit is bounded to n
// accounted blocks of the arena, so a producer outrunning the event
// loop parks on its own budget instead of starving its siblings; the
// run then also asserts the ledger drained back to zero held blocks.
//
//	go run ./examples/eventloop [-producers 8] [-msgs 5000] [-batch 16] [-credit 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/mpf"
)

func main() {
	producers := flag.Int("producers", 8, "producer processes, one circuit each")
	msgs := flag.Int("msgs", 5000, "messages per producer")
	batch := flag.Int("batch", 16, "producer loan-batch size and consumer harvest budget")
	credit := flag.Int("credit", 0, "per-circuit credit budget in blocks (0 = flow control off); must cover one loan batch")
	flag.Parse()
	if *producers < 1 || *msgs < 1 || *batch < 1 || *credit < 0 {
		log.Fatalf("eventloop: need positive -producers, -msgs, -batch and non-negative -credit")
	}

	opts := []mpf.Option{
		mpf.WithMaxProcesses(*producers + 1),
		mpf.WithMaxLNVCs(*producers + 2),
		mpf.WithBlocksPerProcess(4096),
	}
	if *credit > 0 {
		// Bound every producer circuit's share of the arena: a producer
		// that outruns the event loop parks on its own circuit's credit
		// waiter instead of bleeding the region dry for its siblings.
		opts = append(opts, mpf.WithCredit(*credit))
	}
	fac, err := mpf.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Shutdown()

	counts := make([]int, *producers)
	var elapsed time.Duration
	// Credit is receiver-granted: a credited producer that spends its
	// whole budget before the event loop has joined its circuit can
	// never be granted more and fails with ErrNotConnected, by design.
	// The loop therefore signals once every circuit is open and
	// credited producers hold their first batch until then; uncredited
	// producers keep the PR-4 behaviour (no handshake — early records
	// are simply retained and inherited by the first receiver). The
	// signal also fires if the loop dies during setup, so producers
	// fail forward (ErrNotConnected) instead of parking forever.
	loopReady := make(chan struct{})
	var readyOnce sync.Once
	signalReady := func() { readyOnce.Do(func() { close(loopReady) }) }
	err = fac.Run(*producers+1, func(p *mpf.Process) error {
		if p.PID() < *producers {
			if *credit > 0 {
				<-loopReady
			}
			return produce(p, *msgs, *batch)
		}
		defer signalReady()
		return consume(p, *producers, *msgs, *batch, counts, &elapsed, signalReady)
	})
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	for i, c := range counts {
		fmt.Printf("circuit work-%d: %6d messages\n", i, c)
		total += c
	}
	st := fac.Stats()
	fmt.Printf("\n%d messages through one event loop in %v (%.0f msgs/sec)\n",
		total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("park wakeups: %d (%.3f per message), spurious: %d\n",
		st.MuxWakeups, float64(st.MuxWakeups)/float64(total), st.MuxSpurious)
	fmt.Printf("ledger: %d loan-batch sends, %d harvested views, %d/%d payload copies in/out\n",
		st.LoanBatchSends, st.HarvestedViews, st.PayloadCopiesIn, st.PayloadCopiesOut)
	if *credit > 0 {
		fmt.Printf("credit: %d-block budget per circuit, %d send stalls, %d blocks still held\n",
			*credit, st.CreditStalls, st.CreditsHeld)
		if st.CreditsHeld != 0 {
			log.Fatalf("eventloop: credit ledger not quiescent: %d blocks still held", st.CreditsHeld)
		}
	}
	// The whole point of the batched zero-copy pipeline: not one payload
	// byte copied in either direction. CI runs this example at fan-out 8
	// and relies on the check.
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		log.Fatalf("eventloop: payload copies leaked onto the zero-copy pipeline: in=%d out=%d",
			st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
	if st.HarvestedViews != uint64(total) {
		log.Fatalf("eventloop: %d messages but %d harvested views", total, st.HarvestedViews)
	}
}

// produce ships msgs records on this producer's private circuit in
// loan batches: the records are produced directly into shared-memory
// spans and committed in groups, one arena transaction and one circuit
// lock per group. Uncredited, no ready handshake is needed: records
// sent before the event loop joins are retained and inherited by the
// first receiver, and the send connection stays open (until Shutdown)
// so the circuit cannot die in the gap. Credited producers are gated
// by the caller until the loop has joined — credit is receiver-granted
// and a budget spent into a receiverless circuit can never refill.
func produce(p *mpf.Process, msgs, batch int) error {
	s, err := p.OpenSend(fmt.Sprintf("work-%d", p.PID()))
	if err != nil {
		return err
	}
	recs := make([][]byte, 0, batch)
	ns := make([]int, 0, batch)
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		lb, err := s.LoanBatch(ns)
		if err != nil {
			return err
		}
		for i, rec := range recs {
			lb.Fill(i, rec) // production into the loaned span
		}
		if err := lb.CommitAll(); err != nil {
			return err
		}
		recs, ns = recs[:0], ns[:0]
		return nil
	}
	for k := 0; k < msgs; k++ {
		rec := fmt.Appendf(nil, "producer %d record %d", p.PID(), k)
		recs = append(recs, rec)
		ns = append(ns, len(rec))
		if len(recs) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// consume multiplexes every producer circuit through one Selector and
// drains it with WaitViews: each wait round hands back a batch of
// pinned views — already claimed, read in place, attributed to their
// circuits — which are then released together.
func consume(p *mpf.Process, producers, msgs, batch int, counts []int, elapsed *time.Duration, signalReady func()) error {
	sel, err := p.NewSelector()
	if err != nil {
		return err
	}
	defer sel.Close()
	byID := make(map[mpf.ID]int, producers)
	for i := 0; i < producers; i++ {
		rc, err := p.OpenReceive(fmt.Sprintf("work-%d", i), mpf.FCFS)
		if err != nil {
			return err
		}
		if err := sel.Add(rc); err != nil {
			return err
		}
		byID[rc.ID()] = i
	}
	signalReady() // every circuit has its receiver: credited producers may start

	start := time.Now()
	total, want := 0, producers*msgs
	budget := batch * producers
	for total < want {
		// A generous deadline turns a wedged producer (its circuit
		// stays open, so no close wakeup would ever arrive) into a
		// diagnosable error instead of a silent hang.
		views, err := sel.WaitViewsDeadline(budget, 10*time.Second)
		if err != nil {
			return fmt.Errorf("event loop after %d of %d messages: %w", total, want, err)
		}
		for _, v := range views {
			// Read the record where it lives; contiguous is the common
			// case under span allocation.
			if b, ok := v.Bytes(); !ok || len(b) == 0 {
				v.Segments(func(seg []byte) bool { _ = seg[0]; return true })
			} else {
				_ = b[0]
			}
			counts[byID[v.Circuit()]]++
			total++
		}
		mpf.ReleaseViews(views)
	}
	*elapsed = time.Since(start)
	return nil
}
