package bench

import (
	"fmt"
	"strings"
)

// Perf-regression comparison. The perf-regression CI job measures a
// fresh BENCH.json, loads the previous run's artifact (or the committed
// BENCH_BASELINE.json seed when the trajectory is empty), and feeds
// both through Compare: every headline metric is checked against the
// old value under a relative tolerance, the deltas are rendered as a
// markdown table for $GITHUB_STEP_SUMMARY, and any regression beyond
// tolerance fails the build (mpfbench -compare exits non-zero).
//
// Comparison requires the two files to share a schema — a bump may
// *redefine* a metric under its old name (schema 3 smoothed a wakeup
// ratio, for instance), and holding a new definition to an old
// baseline fails on pure definition skew — and is then by metric
// *name* over the intersection of the two summaries, so shape
// differences within a schema (a baseline that measured fewer copies
// points, say) degrade gracefully: metrics only one side has are
// simply unheld. The CI artifact name carries the schema
// (bench-json-v5), so the gate never even downloads a stale-schema
// baseline; a schema bump's first run falls back to the committed
// seed.

// metricDir says which way a metric is allowed to move freely.
type metricDir int

const (
	higherIsBetter metricDir = iota
	lowerIsBetter
)

// metric is one comparable headline number extracted from a summary.
// scaleDependent marks raw throughput numbers, which only compare
// meaningfully between runs on comparable hardware — the ratiosOnly
// comparison mode (used when the baseline is the committed seed,
// measured on whatever machine committed it) skips them and holds only
// the scale-invariant ratios and lock counts.
type metric struct {
	name           string
	val            float64
	dir            metricDir
	scaleDependent bool
}

// metrics flattens the summary into its ordered list of comparable
// headlines. Absolute throughput numbers are machine-dependent and CI
// boxes are heterogeneous, so the comparison leans on the *ratios*
// (sharded/unsharded, zero-copy/copy, batched/per-message) — both
// sides of each ratio ride the same box, so box speed divides out —
// plus the arena-lock *counts* per message, which are structural and
// essentially deterministic. Raw throughputs are included too:
// same-box reruns (the artifact chain on one runner pool) do catch
// real walk-backs, and the tolerance absorbs pool noise.
//
// The credit section is deliberately NOT in the comparison set: its
// headline is the uncredited starvation p99, which is unbounded noise
// by construction (a starved send records however long the monopoly
// lasted), so no fixed tolerance fits it. The fairness property is
// enforced by the TestCreditFairness gate instead; BENCH.json records
// the numbers purely as trajectory.
func (s *JSONSummary) metrics() []metric {
	ms := []metric{
		{"contention.sharded_batched_msgs_per_sec", s.Contention.ShardedBatchedMsgsPerSec, higherIsBetter, true},
		{"contention.advantage", s.Contention.Advantage, higherIsBetter, false},
		{"selector.msgs_per_sec", s.Selector.SelectorMsgsPerSec, higherIsBetter, true},
		// Smoothed (+1: *total* park wakeups per delivered message, not
		// spurious-only): the selector's spurious count is routinely
		// exactly zero, and a relative tolerance on a value that flickers
		// between 0 and one stray event per run holds nothing.
		{"selector.spurious_per_msg_plus1", s.Selector.SelectorSpuriousPerMsg + 1, lowerIsBetter, false},
	}
	for _, p := range s.Copies {
		tag := fmt.Sprintf("copies.%dB_fan%d", p.PayloadBytes, p.FanOut)
		ms = append(ms,
			metric{tag + ".zerocopy_msgs_per_sec", p.ZeroMsgsPerSec, higherIsBetter, true},
			metric{tag + ".advantage", p.Advantage, higherIsBetter, false},
		)
	}
	ms = append(ms,
		metric{"loan_batch.batched_msgs_per_sec", s.LoanBatch.BatchedMsgsPerSec, higherIsBetter, true},
		metric{"loan_batch.advantage", s.LoanBatch.Advantage, higherIsBetter, false},
		metric{"loan_batch.lock_amortisation", s.LoanBatch.LockAmortisation, higherIsBetter, false},
		metric{"loan_batch.batched_arena_locks_per_msg", s.LoanBatch.BatchedArenaLocksPerMsg, lowerIsBetter, false},
	)
	// The cross-process section contributes only when it actually ran —
	// a summary measured where there is no shared-segment backend has
	// nothing to hold or be held to, and the by-name intersection makes
	// a supported/unsupported pair degrade to "unheld", not "failed".
	// All three are scale-dependent: throughput for the usual reason, and
	// the sleep and wake counts because spin-vs-sleep crossover is a
	// property of the box's scheduling latency — they gate same-pool
	// artifact chains but not the committed-seed ratios-only fallback.
	// Polls per message are recorded and not held: a waiter spins for a
	// window of time, so the count says how fast the box polls, and what
	// waiting costs is in the repository benchmark's cpu_s_per_mmsg.
	if s.XProc.Supported {
		ms = append(ms,
			metric{"xproc.msgs_per_sec", s.XProc.MsgsPerSec, higherIsBetter, true},
			metric{"xproc.futex_sleeps_per_msg_plus1", s.XProc.FutexSleepsPerMsgPlus1, lowerIsBetter, true},
			metric{"xproc.futex_wakes_per_msg_plus1", s.XProc.FutexWakesPerMsgPlus1, lowerIsBetter, true},
		)
	}
	// The crash section mirrors the xproc Supported gating. Survivor
	// throughput is scale-dependent for the usual reason; reclaim
	// completeness is a deterministic ratio (deaths over armed victims,
	// 1.0 by construction — RunCrash fails outright on a missed death)
	// held everywhere, including the ratios-only seed fallback, so a
	// regression that silently stopped detecting deaths cannot pass the
	// gate even on fresh hardware. The reclaim *latency* figures are
	// trajectory-only, credit-style: they measure the supervisor's
	// detection epoch (death-watcher poll + probe interval), which is
	// configuration, not protocol performance, and no fixed tolerance
	// fits a number dominated by scheduler jitter around a 5ms poll.
	if s.Crash.Supported {
		ms = append(ms,
			metric{"crash.survivor_msgs_per_sec", s.Crash.SurvivorMsgsPerSec, higherIsBetter, true},
			metric{"crash.reclaim_completeness", s.Crash.ReclaimCompleteness, higherIsBetter, false},
		)
	}
	return ms
}

// CompareRow is one metric's old-versus-new outcome.
type CompareRow struct {
	Name     string
	Old, New float64
	// Delta is the relative change in the metric's *good* direction:
	// positive is improvement, negative is movement toward regression,
	// whichever way the metric points.
	Delta float64
	// Regressed is true when the bad-direction movement exceeds the
	// tolerance.
	Regressed bool
}

// ErrSchemaMismatch is returned by Compare when the two summaries use
// different schemas: a bump may redefine a metric under its old name,
// so cross-schema deltas are definition skew, not performance signal.
var ErrSchemaMismatch = fmt.Errorf("bench: BENCH.json schemas differ; measure a same-schema baseline")

// Compare checks every headline metric present in both summaries under
// a relative tolerance (0.25 = a metric may lose up to 25% before the
// comparison fails). It returns the per-metric rows in old-summary
// order and the number of regressions, or ErrSchemaMismatch when the
// files do not share a schema. With ratiosOnly, raw throughput
// metrics are skipped and only the scale-invariant ratios and lock
// counts are held — the right mode when the two files were measured on
// different machines (the committed-baseline fallback).
func Compare(oldS, newS *JSONSummary, tolerance float64, ratiosOnly bool) ([]CompareRow, int, error) {
	if oldS.Schema != newS.Schema {
		return nil, 0, fmt.Errorf("%w (old schema %d, new schema %d)", ErrSchemaMismatch, oldS.Schema, newS.Schema)
	}
	newVals := make(map[string]metric)
	for _, m := range newS.metrics() {
		newVals[m.name] = m
	}
	var rows []CompareRow
	regressions := 0
	for _, om := range oldS.metrics() {
		if ratiosOnly && om.scaleDependent {
			continue
		}
		nm, ok := newVals[om.name]
		if !ok {
			continue // metric retired by a schema bump: nothing to hold it to
		}
		row := CompareRow{Name: om.name, Old: om.val, New: nm.val}
		if om.val != 0 {
			row.Delta = (nm.val - om.val) / om.val
			if om.dir == lowerIsBetter {
				row.Delta = -row.Delta
			}
		}
		row.Regressed = row.Delta < -tolerance
		if row.Regressed {
			regressions++
		}
		rows = append(rows, row)
	}
	return rows, regressions, nil
}

// RenderCompare renders the comparison as a GitHub-flavoured markdown
// delta table (the perf-regression job appends it to
// $GITHUB_STEP_SUMMARY) followed by a one-line verdict.
func RenderCompare(rows []CompareRow, regressions int, tolerance float64) string {
	var b strings.Builder
	b.WriteString("| metric | old | new | delta | status |\n")
	b.WriteString("|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		status := "ok"
		switch {
		case r.Regressed:
			status = "**REGRESSED**"
		case r.Delta > tolerance:
			status = "improved"
		}
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %+.1f%% | %s |\n",
			r.Name, r.Old, r.New, 100*r.Delta, status)
	}
	if regressions > 0 {
		fmt.Fprintf(&b, "\n**%d metric(s) regressed beyond the %.0f%% tolerance.**\n",
			regressions, 100*tolerance)
	} else {
		fmt.Fprintf(&b, "\nNo regressions beyond the %.0f%% tolerance across %d metric(s).\n",
			100*tolerance, len(rows))
	}
	return b.String()
}
