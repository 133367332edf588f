package bench

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// sampleSummary builds a plausible schema-6 summary for comparison
// tests; the absolute numbers only have to be self-consistent.
func sampleSummary() *JSONSummary {
	s := &JSONSummary{Schema: 6}
	s.Contention.Workers = 8
	s.Contention.Batch = 16
	s.Contention.UnshardedMsgsPerSec = 100_000
	s.Contention.ShardedBatchedMsgsPerSec = 450_000
	s.Contention.Advantage = 4.5
	s.Selector.SelectorMsgsPerSec = 300_000
	s.Selector.SelectorSpuriousPerMsg = 0.01
	s.Copies = []CopiesPoint{
		{PayloadBytes: 4096, FanOut: 1, CopyMsgsPerSec: 90_000, ZeroMsgsPerSec: 250_000, Advantage: 2.8},
		{PayloadBytes: 16384, FanOut: 1, CopyMsgsPerSec: 30_000, ZeroMsgsPerSec: 100_000, Advantage: 3.4},
	}
	s.LoanBatch.Batch = 16
	s.LoanBatch.PayloadBytes = 4096
	s.LoanBatch.BatchedMsgsPerSec = 480_000
	s.LoanBatch.Advantage = 1.9
	s.LoanBatch.LockAmortisation = 14
	s.LoanBatch.BatchedArenaLocksPerMsg = 0.14
	s.Credit.Circuits = CreditFairnessCircuits
	s.Credit.Budget = CreditFairnessBudget
	s.Credit.UncreditedColdP99Micros = 900
	s.Credit.CreditedColdP99Micros = 120
	s.Credit.FairnessAdvantage = 7.5
	s.Credit.CreditedHotMsgsPerSec = 150_000
	s.Credit.CreditStalls = 4000
	s.XProc.Supported = true
	s.XProc.Children = 2
	s.XProc.MsgsPerChild = 600
	s.XProc.PayloadBytes = 1024
	s.XProc.MsgsPerSec = 60_000
	s.XProc.SpinPollsPerMsgPlus1 = 3.5
	s.XProc.FutexSleepsPerMsgPlus1 = 1.1
	s.XProc.FutexWakesPerMsgPlus1 = 1.4
	s.Crash.Supported = true
	s.Crash.Children = 4
	s.Crash.Victims = 2
	s.Crash.MsgsPerChild = 400
	s.Crash.PayloadBytes = 512
	s.Crash.Deaths = 2
	s.Crash.Respawns = 2
	s.Crash.ReclaimCompleteness = 1.0
	s.Crash.SurvivorMsgsPerSec = 40_000
	s.Crash.ReclaimMeanMicros = 12
	s.Crash.ReclaimMaxMicros = 30
	s.Crash.ReclaimedViews = 3
	s.Crash.ReclaimedCredits = 5
	return s
}

// TestCompareIdentical: a summary never regresses against itself.
func TestCompareIdentical(t *testing.T) {
	s := sampleSummary()
	rows, regressions, err := Compare(s, s, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("self-comparison found %d regressions", regressions)
	}
	if len(rows) == 0 {
		t.Fatal("self-comparison produced no rows")
	}
	for _, r := range rows {
		if r.Delta != 0 || r.Regressed {
			t.Errorf("metric %s: delta %+.2f regressed=%v against itself", r.Name, r.Delta, r.Regressed)
		}
	}
}

// TestCompareDoctoredDrop is the perf-regression job's teeth, in
// miniature: a 30% throughput drop on one headline must fail a 25%
// tolerance, and the rendered table must name the regressed metric.
func TestCompareDoctoredDrop(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.LoanBatch.BatchedMsgsPerSec *= 0.70 // the doctored 30% drop
	rows, regressions, err := Compare(oldS, newS, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("doctored drop found %d regressions, want 1", regressions)
	}
	table := RenderCompare(rows, regressions, 0.25)
	if !strings.Contains(table, "loan_batch.batched_msgs_per_sec") || !strings.Contains(table, "REGRESSED") {
		t.Errorf("delta table does not flag the doctored metric:\n%s", table)
	}
}

// TestCompareWithinTolerance: a 20% wobble survives a 25% tolerance in
// either direction, including on the lower-is-better lock-count
// metric.
func TestCompareWithinTolerance(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.Contention.ShardedBatchedMsgsPerSec *= 0.80
	newS.LoanBatch.BatchedArenaLocksPerMsg *= 1.20
	if _, regressions, err := Compare(oldS, newS, 0.25, false); err != nil || regressions != 0 {
		t.Fatalf("20%% wobble regressed under a 25%% tolerance: %d (err %v)", regressions, err)
	}
}

// TestCompareLowerIsBetterDirection: the lower-is-better arena-lock
// metric regresses when it *rises* beyond tolerance — batching that
// stops amortising is a regression even if throughput holds.
func TestCompareLowerIsBetterDirection(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.LoanBatch.BatchedArenaLocksPerMsg *= 2 // locks doubled = regression
	rows, regressions, err := Compare(oldS, newS, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("doubled locks/msg found %d regressions, want 1", regressions)
	}
	var hit bool
	for _, r := range rows {
		if r.Name == "loan_batch.batched_arena_locks_per_msg" {
			hit = r.Regressed
		}
	}
	if !hit {
		t.Error("doubled locks/msg not flagged on its own row")
	}
}

// TestCompareSchemaMismatch: a bump may redefine a metric under its
// old name, so comparing across schemas is refused outright rather
// than producing definition-skew deltas.
func TestCompareSchemaMismatch(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	oldS.Schema = 2
	if _, _, err := Compare(oldS, newS, 0.25, false); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("cross-schema comparison: %v, want ErrSchemaMismatch", err)
	}
}

// TestCompareShapeSkew: within one schema, a baseline with a different
// metric shape (fewer measured copies points, say) compares cleanly —
// metrics only one side has are simply unheld — the credit section
// never enters the comparison (its starvation headline is unbounded
// noise by construction; see metrics()), and regressions on shared
// metrics still bite.
func TestCompareShapeSkew(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	oldS.Copies = oldS.Copies[:1] // older baseline: one measured point
	rows, regressions, err := Compare(oldS, newS, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("shape skew produced %d regressions", regressions)
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "copies.16384B") {
			t.Errorf("metric %s compared against a baseline that lacks it", r.Name)
		}
		if strings.HasPrefix(r.Name, "credit.") {
			t.Errorf("credit metric %s entered the comparison set", r.Name)
		}
	}
	newS.Contention.ShardedBatchedMsgsPerSec *= 0.70
	if _, regressions, err := Compare(oldS, newS, 0.25, false); err != nil || regressions != 1 {
		t.Fatalf("shared-metric drop under skew found %d regressions (err %v), want 1", regressions, err)
	}
}

// TestCompareXProcSection: the cross-process sleep and wake counts
// gate same-pool chains — a waiter that took to sleeping on every
// message is a regression, while polls per message, which a
// time-bounded spin makes a property of the box, are not held — but a
// baseline or fresh run without shared-segment support simply drops the
// section from the intersection rather than failing the compare, and
// the committed-seed ratios-only mode skips the whole section as
// scale-dependent.
func TestCompareXProcSection(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.XProc.FutexSleepsPerMsgPlus1 *= 2 // a kernel sleep for every message
	newS.XProc.SpinPollsPerMsgPlus1 *= 40  // not held
	rows, regressions, err := Compare(oldS, newS, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("sleep-per-message blowup found %d regressions, want 1", regressions)
	}
	var hit bool
	for _, r := range rows {
		if r.Name == "xproc.futex_sleeps_per_msg_plus1" {
			hit = r.Regressed
		}
	}
	if !hit {
		t.Error("sleep-per-message blowup not flagged on its own row")
	}

	// Unsupported on either side: the section leaves the intersection.
	newS = sampleSummary()
	newS.XProc = sampleSummary().XProc
	newS.XProc.Supported = false
	newS.XProc.MsgsPerSec = 0
	if _, regressions, err := Compare(oldS, newS, 0.25, false); err != nil || regressions != 0 {
		t.Fatalf("supported→unsupported pair: %d regressions (err %v), want 0", regressions, err)
	}

	// Ratios-only (committed-seed fallback): scale-dependent, skipped.
	newS = sampleSummary()
	newS.XProc.FutexSleepsPerMsgPlus1 *= 2
	if _, regressions, err := Compare(oldS, newS, 0.25, true); err != nil || regressions != 0 {
		t.Fatalf("ratios-only held a waiter counter: %d regressions (err %v)", regressions, err)
	}
}

// TestCompareCrashSection: reclaim completeness is a deterministic
// ratio held everywhere — including the committed-seed ratios-only
// fallback, so a build that silently stops detecting deaths cannot
// pass on fresh hardware — while survivor throughput is
// scale-dependent, and an unsupported side drops the whole section
// from the intersection (the xproc pattern).
func TestCompareCrashSection(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.Crash.ReclaimCompleteness = 0.5 // a death went undetected
	rows, regressions, err := Compare(oldS, newS, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("halved completeness in ratios-only mode found %d regressions, want 1", regressions)
	}
	var hit bool
	for _, r := range rows {
		if r.Name == "crash.reclaim_completeness" {
			hit = r.Regressed
		}
	}
	if !hit {
		t.Error("completeness drop not flagged on its own row")
	}

	// Survivor throughput: held same-pool, skipped against a foreign
	// seed.
	newS = sampleSummary()
	newS.Crash.SurvivorMsgsPerSec *= 0.5
	if _, regressions, err := Compare(oldS, newS, 0.25, false); err != nil || regressions != 1 {
		t.Fatalf("halved survivor throughput: %d regressions (err %v), want 1", regressions, err)
	}
	if _, regressions, err := Compare(oldS, newS, 0.25, true); err != nil || regressions != 0 {
		t.Fatalf("ratios-only held survivor throughput: %d regressions (err %v)", regressions, err)
	}

	// Unsupported on either side: the section leaves the intersection.
	newS = sampleSummary()
	newS.Crash.Supported = false
	newS.Crash.SurvivorMsgsPerSec = 0
	newS.Crash.ReclaimCompleteness = 0
	if _, regressions, err := Compare(oldS, newS, 0.25, false); err != nil || regressions != 0 {
		t.Fatalf("supported→unsupported crash pair: %d regressions (err %v), want 0", regressions, err)
	}
}

// TestCompareRatiosOnly: against a baseline measured on different
// hardware (the committed seed), raw throughput deltas are noise and
// are skipped — but a dropped ratio still fails: box speed divides out
// of ratios, so losing one is a real regression anywhere.
func TestCompareRatiosOnly(t *testing.T) {
	oldS, newS := sampleSummary(), sampleSummary()
	newS.Contention.ShardedBatchedMsgsPerSec *= 0.40 // a slower box, not a regression
	rows, regressions, err := Compare(oldS, newS, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("ratios-only comparison flagged a raw throughput delta: %d", regressions)
	}
	for _, r := range rows {
		if strings.HasSuffix(r.Name, "msgs_per_sec") {
			t.Errorf("raw metric %s entered a ratios-only comparison", r.Name)
		}
	}
	newS.LoanBatch.Advantage *= 0.60 // the batched plane stopped winning
	if _, regressions, err := Compare(oldS, newS, 0.25, true); err != nil || regressions != 1 {
		t.Fatalf("ratios-only comparison missed a dropped ratio: %d regressions, want 1", regressions)
	}
}

// TestSummaryRoundTrip: Write then ReadSummary reproduces the
// comparable metric set exactly — the artifact chain the CI job relies
// on.
func TestSummaryRoundTrip(t *testing.T) {
	s := sampleSummary()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := s.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, regressions, err := Compare(s, back, 0, false); err != nil || regressions != 0 {
		t.Fatalf("round-tripped summary regressed against the original")
	}
	if got, want := len(back.metrics()), len(s.metrics()); got != want {
		t.Fatalf("round-trip lost metrics: %d, want %d", got, want)
	}
}
