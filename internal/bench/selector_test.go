package bench

import (
	"fmt"
	"testing"
)

// The selector-scaling benchmarks measure the two multiplexers built on
// the per-circuit waiter lists (Selector, ReceiveAny). `go test -bench
// SelectorHerd` prints the per-mode numbers; TestSelectorWakeupAdvantage
// enforces the headline claim and TestSelectorWakeupsFlat the scaling
// shape.

func BenchmarkSelectorHerd(b *testing.B) {
	for _, mode := range []MuxMode{MuxSelector, MuxAnyWaiters} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			msgs := b.N
			if msgs < 50 {
				msgs = 50
			}
			if msgs > 2000 {
				msgs = 2000
			}
			res, err := NativeSelectorHerd(mode, HerdWaiters, 8, msgs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.WakeupsPerMsg, "wakeups/msg")
			b.ReportMetric(res.SpuriousPerMsg, "spurious/msg")
		})
	}
}

// TestSelectorWakeupAdvantage enforces what the waiter lists bought, as
// an absolute, structural bound on the surviving scheme (the
// facility-wide pulse it was once compared against is gone): with 8
// consumers parked over 64 circuits and traffic on a single hot
// circuit, a delivered message costs the facility about one park
// wakeup — the hot consumer's — and the 7 bystanders none: at most 1.25
// wakeups and 0.25 spurious wakeups per message. Best-of-five absorbs
// the parks that time out while a loaded CI machine holds a message
// back.
func TestSelectorWakeupAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("wakeup bound skipped in -short mode")
	}
	const (
		circuitsPer = 8 // × HerdWaiters = 64 circuits
		msgs        = 300
		maxSpurious = 0.25
		maxWakeups  = 1.25
	)
	var sel HerdResult
	for attempt := 0; attempt < 5; attempt++ {
		var err error
		sel, err = NativeSelectorHerd(MuxSelector, HerdWaiters, circuitsPer, msgs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: selector %.2f spurious/msg, %.2f wakeups/msg",
			attempt, sel.SpuriousPerMsg, sel.WakeupsPerMsg)
		if sel.SpuriousPerMsg <= maxSpurious && sel.WakeupsPerMsg <= maxWakeups {
			return
		}
	}
	t.Errorf("selector pays %.2f spurious and %.2f total wakeups per message, want <= %.2f and <= %.2f",
		sel.SpuriousPerMsg, sel.WakeupsPerMsg, maxSpurious, maxWakeups)
}

// TestSelectorWakeupsFlat checks the scaling shape: a selector
// consumer's wakeups per delivered message must stay ~constant as the
// bystander circuit count quadruples (16 → 64 circuits) — O(ready)
// per wakeup, with no dependence on how much idle state is parked.
func TestSelectorWakeupsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling shape skipped in -short mode")
	}
	const msgs = 300
	best := false
	var small, large HerdResult
	for attempt := 0; attempt < 5 && !best; attempt++ {
		var err error
		small, err = NativeSelectorHerd(MuxSelector, HerdWaiters, 2, msgs) // 16 circuits
		if err != nil {
			t.Fatal(err)
		}
		large, err = NativeSelectorHerd(MuxSelector, HerdWaiters, 8, msgs) // 64 circuits
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: wakeups/msg %.2f at 16 circuits, %.2f at 64 circuits",
			attempt, small.WakeupsPerMsg, large.WakeupsPerMsg)
		// Paced sends wake the hot consumer about once per message in
		// both shapes; allow generous headroom before calling it
		// growth.
		limit := 2 * small.WakeupsPerMsg
		if limit < 1.5 {
			limit = 1.5
		}
		best = large.WakeupsPerMsg <= limit
	}
	if !best {
		t.Errorf("wakeups/msg grew from %.2f (16 circuits) to %.2f (64 circuits); selector wakeups must not scale with idle circuits",
			small.WakeupsPerMsg, large.WakeupsPerMsg)
	}
}

// TestSelectorSweepQuick exercises the sweep end-to-end: two series
// (one per mux mode), one point per circuit count.
func TestSelectorSweepQuick(t *testing.T) {
	fig, err := SelectorSweep(Config{Mode: Native, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("sweep produced %d series, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %q has %d points, want 2", s.Label, len(s.Points))
		}
	}
}
