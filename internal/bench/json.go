package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/mpf"
)

// Machine-readable performance trajectory. Summary runs compact
// versions of the eight headline benchmarks — contention scaling
// (PR 1), selector wakeups (PR 2), the copies ablation (PR 3), the
// batched loan/harvest plane (PR 4), the credit-fairness ablation
// (PR 5), the cross-process leg (PR 6), the self-tuning ablation
// (PR 8) and the crash-robustness ablation (PR 9) — and
// JSONSummary.Write serialises the result as BENCH.json,
// which CI uploads as an artifact so the repository's throughput
// history can be charted across commits without re-parsing log text.
// The perf-regression CI job feeds two BENCH.json files (previous run,
// or the committed BENCH_BASELINE.json seed, versus fresh) through
// Compare and fails the build when a headline drops beyond tolerance.

// JSONSummary is the BENCH.json schema. All throughput figures are
// operations per second; ratios are dimensionless.
type JSONSummary struct {
	// Schema bumps when a field changes meaning, so downstream chart
	// tooling can fail loudly instead of plotting nonsense.
	Schema int `json:"schema"`

	Contention struct {
		Workers                  int     `json:"workers"`
		Batch                    int     `json:"batch"`
		UnshardedMsgsPerSec      float64 `json:"unsharded_msgs_per_sec"`
		ShardedBatchedMsgsPerSec float64 `json:"sharded_batched_msgs_per_sec"`
		Advantage                float64 `json:"advantage"`
	} `json:"contention"`

	Selector struct {
		Waiters                int     `json:"waiters"`
		CircuitsPerWaiter      int     `json:"circuits_per_waiter"`
		SelectorSpuriousPerMsg float64 `json:"selector_spurious_per_msg"`
		SelectorMsgsPerSec     float64 `json:"selector_msgs_per_sec"`
	} `json:"selector"`

	Copies []CopiesPoint `json:"copies"`

	// LoanBatch is the PR 4 headline: the batched zero-copy pipeline
	// (LoanBatch/CommitAll + Selector.WaitViews/ReleaseViews) against
	// the per-message loan/view plane, with the per-plane arena
	// free-pool lock traffic that shows the amortisation itself, not
	// just its throughput effect.
	LoanBatch struct {
		Batch                      int     `json:"batch"`
		PayloadBytes               int     `json:"payload_bytes"`
		PerMessageMsgsPerSec       float64 `json:"per_message_msgs_per_sec"`
		BatchedMsgsPerSec          float64 `json:"batched_msgs_per_sec"`
		Advantage                  float64 `json:"advantage"`
		PerMessageArenaLocksPerMsg float64 `json:"per_message_arena_locks_per_msg"`
		BatchedArenaLocksPerMsg    float64 `json:"batched_arena_locks_per_msg"`
		// LockAmortisation is per-message locks/msg over batched
		// locks/msg; the CI gate wants >= 8.
		LockAmortisation float64 `json:"lock_amortisation"`
	} `json:"loan_batch"`

	// Credit is the PR 5 headline: the fairness ablation at the
	// 8-circuit hot/cold mix. The uncredited facility lets the hot
	// circuit monopolise the arena, so every cold Send parks behind its
	// backlog; the 16-block budget bounds the hot circuit's share and
	// the cold tenants' p99 Send latency collapses. Schema 3.
	Credit struct {
		Circuits int `json:"circuits"`
		Budget   int `json:"budget_blocks"`
		// Cold-circuit p99 Send latency in microseconds, without and
		// with the budget, and the improvement ratio (the gate wants
		// >= 2 in the test; the trajectory records the real number).
		UncreditedColdP99Micros float64 `json:"uncredited_cold_p99_micros"`
		CreditedColdP99Micros   float64 `json:"credited_cold_p99_micros"`
		FairnessAdvantage       float64 `json:"fairness_advantage"`
		// What the budget costs the aggressor, and proof it engaged.
		CreditedHotMsgsPerSec float64 `json:"credited_hot_msgs_per_sec"`
		CreditStalls          uint64  `json:"credit_stalls"`
	} `json:"credit"`

	// XProc is the PR 6 headline: the same loan/view protocol with the
	// receiver in a real forked OS process, sharing only the mmap'd
	// memfd segment. Supported is false where the platform has no
	// shared-segment backend (or no spawn hook was installed); the
	// compare gate skips the section's metrics then instead of failing
	// the whole file. Schema 4.
	XProc struct {
		Supported    bool `json:"supported"`
		Children     int  `json:"children"`
		MsgsPerChild int  `json:"msgs_per_child"`
		PayloadBytes int  `json:"payload_bytes"`
		// Round-trip deliveries per second across all children, both
		// phases (down views + up loans).
		MsgsPerSec float64 `json:"msgs_per_sec"`
		// Serving-side futex-ring waiter behaviour per delivered
		// message — the busy-spin regression signal. Smoothed (+1, like
		// selector.spurious_per_msg_plus1) because sleeps and wakes are
		// routinely exactly zero when the peer keeps up, and a raw
		// near-zero denominator is bimodal noise no tolerance can hold.
		SpinPollsPerMsgPlus1   float64 `json:"spin_polls_per_msg_plus1"`
		FutexSleepsPerMsgPlus1 float64 `json:"futex_sleeps_per_msg_plus1"`
		FutexWakesPerMsgPlus1  float64 `json:"futex_wakes_per_msg_plus1"`
	} `json:"xproc"`

	// Tuning is the PR 8 headline: the self-tuning ablation. The
	// auto-versus-fixed harvest drain, the padded-versus-packed
	// false-sharing microbench, the pinned-versus-floating stream
	// (AffinitySupported false where thread pinning is refused or
	// there is one CPU — its metric leaves the comparison then, the
	// xproc Supported pattern), and the huge-page hint outcome.
	// Schema 5.
	Tuning struct {
		Circuits    int `json:"circuits"`
		BurstDepth  int `json:"burst_depth"`
		Bursts      int `json:"bursts"`
		FixedBudget int `json:"fixed_budget"`
		// The harvest drain: throughput both ways, plus the
		// deterministic round counts whose ratio (fixed/auto) is the
		// machine-independent round amortisation the gate holds.
		FixedMsgsPerSec      float64 `json:"fixed_msgs_per_sec"`
		AutoMsgsPerSec       float64 `json:"auto_msgs_per_sec"`
		AutoVsFixedAdvantage float64 `json:"auto_vs_fixed_advantage"`
		FixedRounds          int     `json:"fixed_rounds"`
		AutoRounds           int     `json:"auto_rounds"`
		RoundAmortisation    float64 `json:"round_amortisation"`
		// Fairness: worst consecutive rounds a ready circuit went
		// unserved during the drain, and proof the adaptive machinery
		// engaged (cap truncations counted, budget gauge peak).
		FixedStarvationRounds int    `json:"fixed_starvation_rounds"`
		AutoStarvationRounds  int    `json:"auto_starvation_rounds"`
		AutoCapHits           uint64 `json:"auto_cap_hits"`
		AutoBudgetPeak        uint64 `json:"auto_budget_peak"`
		// False sharing: ns per atomic increment with the two hot words
		// packed on one line versus padded a line apart.
		PackedNsPerOp           float64 `json:"packed_ns_per_op"`
		PaddedNsPerOp           float64 `json:"padded_ns_per_op"`
		PaddedVsPackedAdvantage float64 `json:"padded_vs_packed_advantage"`
		// Core affinity: the pinned-versus-floating stream.
		AffinitySupported         bool    `json:"affinity_supported"`
		FloatingMsgsPerSec        float64 `json:"floating_msgs_per_sec"`
		PinnedMsgsPerSec          float64 `json:"pinned_msgs_per_sec"`
		PinnedVsFloatingAdvantage float64 `json:"pinned_vs_floating_advantage"`
		// Huge pages: whether the MADV_HUGEPAGE hint took on the arena
		// backing, and the stream throughput either way.
		HugePagesAdvised    bool    `json:"huge_pages_advised"`
		HugeAdvisedBytes    int64   `json:"huge_advised_bytes"`
		BasePagesMsgsPerSec float64 `json:"base_pages_msgs_per_sec"`
		HugePagesMsgsPerSec float64 `json:"huge_pages_msgs_per_sec"`
		HugeVsBaseAdvantage float64 `json:"huge_vs_base_advantage"`
	} `json:"tuning"`

	// Crash is the PR 9 headline: the crash-robustness ablation. K of N
	// children die at armed fault points mid-traffic; the respawn
	// supervisor reclaims their slots and restarts them, and the run
	// records what that cost the survivors. Supported mirrors the xproc
	// gate (same spawn-hook and shared-backend requirements). The
	// reclaim completeness (deaths over victims) is deterministic — a
	// run that misses a death fails RunCrash outright, so a recorded
	// value below 1 cannot happen without the gate tripping first — and
	// the latency figures are trajectory-only: they measure the
	// supervisor's detection epoch (death-watcher poll period), which is
	// configuration, not protocol speed. Schema 6.
	Crash struct {
		Supported    bool `json:"supported"`
		Children     int  `json:"children"`
		Victims      int  `json:"victims"`
		MsgsPerChild int  `json:"msgs_per_child"`
		PayloadBytes int  `json:"payload_bytes"`
		Deaths       int  `json:"deaths"`
		Respawns     int  `json:"respawns"`
		// ReclaimCompleteness is deaths/victims: 1.0 when every armed
		// victim's death was detected and its slot reclaimed.
		ReclaimCompleteness float64 `json:"reclaim_completeness"`
		SurvivorMsgsPerSec  float64 `json:"survivor_msgs_per_sec"`
		ReclaimMeanMicros   float64 `json:"reclaim_mean_micros"`
		ReclaimMaxMicros    float64 `json:"reclaim_max_micros"`
		ReclaimedViews      uint64  `json:"reclaimed_views"`
		ReclaimedCredits    uint64  `json:"reclaimed_credits"`
	} `json:"crash"`
}

// CopiesPoint is one copies-ablation measurement in BENCH.json.
type CopiesPoint struct {
	PayloadBytes     int     `json:"payload_bytes"`
	FanOut           int     `json:"fan_out"`
	CopyMsgsPerSec   float64 `json:"copy_msgs_per_sec"`     // paper plane
	ZeroMsgsPerSec   float64 `json:"zerocopy_msgs_per_sec"` // loan/view plane
	Advantage        float64 `json:"advantage"`
	ZeroRecvCopies   uint64  `json:"zerocopy_recv_copies"` // must be 0
	ZeroViewReceives uint64  `json:"zerocopy_view_receives"`
	// Per-plane arena lock acquisitions per message sent: the fixed
	// cost the batched plane (loan_batch below) amortises.
	CopyArenaLocksPerMsg float64 `json:"copy_arena_locks_per_msg"`
	ZeroArenaLocksPerMsg float64 `json:"zerocopy_arena_locks_per_msg"`
}

// Summary measures the trajectory. The perf-regression gate compares
// these numbers across runs under a 25% tolerance, so their run-to-run
// noise is the binding constraint, not their cost: the throughput
// sections are cheap (tens of milliseconds each) and always run at
// full sample size, taken best-of-3 — the maximum observed throughput
// (and minimum lock count) is a much tighter estimate of the machine's
// capability than one draw. quick only shrinks the one expensive
// section, the credit fairness run, whose uncredited leg deliberately
// holds a starvation monopoly open for seconds.
func Summary(quick bool) (*JSONSummary, error) {
	s := &JSONSummary{Schema: 6}
	const attempts = 3

	// Contention: the PR 1 headline configuration.
	workers := 8
	rounds := 300
	s.Contention.Workers = workers
	s.Contention.Batch = ContentionBatch
	for i := 0; i < attempts; i++ {
		base, err := NativeContention(1, workers, 1, rounds, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: summary contention: %w", err)
		}
		sharded, err := NativeContention(16, workers, ContentionBatch, rounds, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: summary contention: %w", err)
		}
		s.Contention.UnshardedMsgsPerSec = max(s.Contention.UnshardedMsgsPerSec, base.MsgsPerSec)
		s.Contention.ShardedBatchedMsgsPerSec = max(s.Contention.ShardedBatchedMsgsPerSec, sharded.MsgsPerSec)
	}
	if s.Contention.UnshardedMsgsPerSec > 0 {
		s.Contention.Advantage = s.Contention.ShardedBatchedMsgsPerSec / s.Contention.UnshardedMsgsPerSec
	}

	// Selector: the PR 2 headline configuration.
	waiters, circuits, msgs := 8, 8, 400
	s.Selector.Waiters = waiters
	s.Selector.CircuitsPerWaiter = circuits
	s.Selector.SelectorSpuriousPerMsg = -1
	for i := 0; i < attempts; i++ {
		sel, err := NativeSelectorHerd(MuxSelector, waiters, circuits, msgs)
		if err != nil {
			return nil, fmt.Errorf("bench: summary selector: %w", err)
		}
		if s.Selector.SelectorSpuriousPerMsg < 0 {
			s.Selector.SelectorSpuriousPerMsg = sel.SpuriousPerMsg
		} else {
			s.Selector.SelectorSpuriousPerMsg = min(s.Selector.SelectorSpuriousPerMsg, sel.SpuriousPerMsg)
		}
		s.Selector.SelectorMsgsPerSec = max(s.Selector.SelectorMsgsPerSec, sel.MsgsPerSec)
	}

	// Copies: the PR 3 ablation at the gate sizes plus the fan-out point.
	const copyMsgs = 3000
	points := []struct{ size, fan int }{
		{4096, 1}, {16384, 1}, {CopiesFanOutPayload, 8},
	}
	for _, pt := range points {
		cp := CopiesPoint{PayloadBytes: pt.size, FanOut: pt.fan}
		for i := 0; i < attempts; i++ {
			base, err := NativeCopies(PlaneClassicCopy, pt.size, pt.fan, copyMsgs)
			if err != nil {
				return nil, fmt.Errorf("bench: summary copies: %w", err)
			}
			zero, err := NativeCopies(PlaneZeroCopy, pt.size, pt.fan, copyMsgs)
			if err != nil {
				return nil, fmt.Errorf("bench: summary copies: %w", err)
			}
			cp.CopyMsgsPerSec = max(cp.CopyMsgsPerSec, base.MsgsPerSec)
			cp.ZeroMsgsPerSec = max(cp.ZeroMsgsPerSec, zero.MsgsPerSec)
			// Any attempt leaking a receive copy must show, so the worst
			// attempt is recorded.
			cp.ZeroRecvCopies = max(cp.ZeroRecvCopies, zero.Stats.PayloadCopiesOut)
			cp.ZeroViewReceives = zero.Stats.ViewReceives
			if i == 0 {
				cp.CopyArenaLocksPerMsg = base.ArenaLocksPerMsg
				cp.ZeroArenaLocksPerMsg = zero.ArenaLocksPerMsg
			} else {
				cp.CopyArenaLocksPerMsg = min(cp.CopyArenaLocksPerMsg, base.ArenaLocksPerMsg)
				cp.ZeroArenaLocksPerMsg = min(cp.ZeroArenaLocksPerMsg, zero.ArenaLocksPerMsg)
			}
		}
		if cp.CopyMsgsPerSec > 0 {
			cp.Advantage = cp.ZeroMsgsPerSec / cp.CopyMsgsPerSec
		}
		s.Copies = append(s.Copies, cp)
	}

	// LoanBatch: the PR 4 headline configuration.
	const lbMsgs = 3000
	s.LoanBatch.Batch = LoanBatchSize
	s.LoanBatch.PayloadBytes = LoanBatchPayload
	for i := 0; i < attempts; i++ {
		perMsg, err := NativeLoanBatch(false, LoanBatchPayload, LoanBatchSize, lbMsgs)
		if err != nil {
			return nil, fmt.Errorf("bench: summary loanbatch: %w", err)
		}
		bat, err := NativeLoanBatch(true, LoanBatchPayload, LoanBatchSize, lbMsgs)
		if err != nil {
			return nil, fmt.Errorf("bench: summary loanbatch: %w", err)
		}
		s.LoanBatch.PerMessageMsgsPerSec = max(s.LoanBatch.PerMessageMsgsPerSec, perMsg.MsgsPerSec)
		s.LoanBatch.BatchedMsgsPerSec = max(s.LoanBatch.BatchedMsgsPerSec, bat.MsgsPerSec)
		if i == 0 {
			s.LoanBatch.PerMessageArenaLocksPerMsg = perMsg.ArenaLocksPerMsg
			s.LoanBatch.BatchedArenaLocksPerMsg = bat.ArenaLocksPerMsg
		} else {
			s.LoanBatch.PerMessageArenaLocksPerMsg = min(s.LoanBatch.PerMessageArenaLocksPerMsg, perMsg.ArenaLocksPerMsg)
			s.LoanBatch.BatchedArenaLocksPerMsg = min(s.LoanBatch.BatchedArenaLocksPerMsg, bat.ArenaLocksPerMsg)
		}
	}
	if s.LoanBatch.PerMessageMsgsPerSec > 0 {
		s.LoanBatch.Advantage = s.LoanBatch.BatchedMsgsPerSec / s.LoanBatch.PerMessageMsgsPerSec
	}
	if s.LoanBatch.BatchedArenaLocksPerMsg > 0 {
		s.LoanBatch.LockAmortisation = s.LoanBatch.PerMessageArenaLocksPerMsg / s.LoanBatch.BatchedArenaLocksPerMsg
	}

	// Credit: the PR 5 fairness headline. The uncredited run is slow by
	// construction — the hot monopoly it measures starves cold sends
	// for seconds — so the sample counts stay modest.
	coldMsgs := 200
	if quick {
		coldMsgs = 40
	}
	uncredited, err := NativeCreditFairness(0, CreditFairnessCircuits, coldMsgs)
	if err != nil {
		return nil, fmt.Errorf("bench: summary credit: %w", err)
	}
	credited, err := NativeCreditFairness(CreditFairnessBudget, CreditFairnessCircuits, coldMsgs)
	if err != nil {
		return nil, fmt.Errorf("bench: summary credit: %w", err)
	}
	s.Credit.Circuits = CreditFairnessCircuits
	s.Credit.Budget = CreditFairnessBudget
	s.Credit.UncreditedColdP99Micros = float64(uncredited.ColdP99) / float64(time.Microsecond)
	s.Credit.CreditedColdP99Micros = float64(credited.ColdP99) / float64(time.Microsecond)
	if credited.ColdP99 > 0 {
		s.Credit.FairnessAdvantage = float64(uncredited.ColdP99) / float64(credited.ColdP99)
	}
	s.Credit.CreditedHotMsgsPerSec = credited.HotMsgsPerSec
	s.Credit.CreditStalls = credited.Stats.CreditStalls

	// XProc: the PR 6 cross-process headline. Needs a spawn hook (set
	// by mpfbench and the bench tests' TestMain) and a shared-segment
	// backend; absent either, the section records supported=false and
	// the summary still succeeds — BENCH.json must be producible on
	// every platform the build gate covers.
	xChildren, xMsgs, xSize := 2, 600, 1024
	if quick {
		xMsgs = 150
	}
	s.XProc.Children = xChildren
	s.XProc.MsgsPerChild = xMsgs
	s.XProc.PayloadBytes = xSize
	if XProcSpawnSelf != nil {
		bin, env := XProcSpawnSelf()
		for i := 0; i < attempts; i++ {
			r, err := RunXProc(bin, env, xChildren, xMsgs, xSize)
			if errors.Is(err, mpf.ErrNoSharedBackend) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("bench: summary xproc: %w", err)
			}
			s.XProc.Supported = true
			if r.MsgsPerSec > s.XProc.MsgsPerSec {
				s.XProc.MsgsPerSec = r.MsgsPerSec
				s.XProc.SpinPollsPerMsgPlus1 = r.SpinPollsPerMsg + 1
				s.XProc.FutexSleepsPerMsgPlus1 = r.FutexSleepsPerMsg + 1
				s.XProc.FutexWakesPerMsgPlus1 = r.FutexWakesPerMsg + 1
			}
		}
	}

	// Tuning: the PR 8 self-tuning ablation. The harvest drain is
	// deterministic, so its round counts land identically every
	// attempt; the throughputs are best-of-3 like every other section.
	tBursts, fsIters, pinMsgs, hugeMsgs := TuningBursts, 1_000_000, 4000, 1200
	if quick {
		tBursts, fsIters, pinMsgs, hugeMsgs = 8, 250_000, 1000, 400
	}
	s.Tuning.Circuits = TuningCircuits
	s.Tuning.BurstDepth = TuningBurstDepth
	s.Tuning.Bursts = tBursts
	s.Tuning.FixedBudget = TuningFixedBudget
	s.Tuning.FixedStarvationRounds = -1
	s.Tuning.AutoStarvationRounds = -1
	for i := 0; i < attempts; i++ {
		fixed, err := NativeTuningHarvest(false, TuningCircuits, tBursts, TuningBurstDepth)
		if err != nil {
			return nil, fmt.Errorf("bench: summary tuning fixed: %w", err)
		}
		auto, err := NativeTuningHarvest(true, TuningCircuits, tBursts, TuningBurstDepth)
		if err != nil {
			return nil, fmt.Errorf("bench: summary tuning auto: %w", err)
		}
		s.Tuning.FixedMsgsPerSec = max(s.Tuning.FixedMsgsPerSec, fixed.MsgsPerSec)
		s.Tuning.AutoMsgsPerSec = max(s.Tuning.AutoMsgsPerSec, auto.MsgsPerSec)
		s.Tuning.FixedRounds = fixed.Rounds
		s.Tuning.AutoRounds = auto.Rounds
		if s.Tuning.FixedStarvationRounds < 0 || fixed.MaxStarvationRounds < s.Tuning.FixedStarvationRounds {
			s.Tuning.FixedStarvationRounds = fixed.MaxStarvationRounds
		}
		if s.Tuning.AutoStarvationRounds < 0 || auto.MaxStarvationRounds < s.Tuning.AutoStarvationRounds {
			s.Tuning.AutoStarvationRounds = auto.MaxStarvationRounds
		}
		s.Tuning.AutoCapHits = max(s.Tuning.AutoCapHits, auto.CapHits)
		s.Tuning.AutoBudgetPeak = max(s.Tuning.AutoBudgetPeak, auto.BudgetPeak)
	}
	if s.Tuning.FixedMsgsPerSec > 0 {
		s.Tuning.AutoVsFixedAdvantage = s.Tuning.AutoMsgsPerSec / s.Tuning.FixedMsgsPerSec
	}
	if s.Tuning.AutoRounds > 0 {
		s.Tuning.RoundAmortisation = float64(s.Tuning.FixedRounds) / float64(s.Tuning.AutoRounds)
	}
	for i := 0; i < attempts; i++ {
		packed, padded := TuningFalseSharing(fsIters)
		if i == 0 {
			s.Tuning.PackedNsPerOp = packed
			s.Tuning.PaddedNsPerOp = padded
		} else {
			s.Tuning.PackedNsPerOp = min(s.Tuning.PackedNsPerOp, packed)
			s.Tuning.PaddedNsPerOp = min(s.Tuning.PaddedNsPerOp, padded)
		}
	}
	if s.Tuning.PaddedNsPerOp > 0 {
		s.Tuning.PaddedVsPackedAdvantage = s.Tuning.PackedNsPerOp / s.Tuning.PaddedNsPerOp
	}
	s.Tuning.AffinitySupported = TuningAffinityProbe()
	if s.Tuning.AffinitySupported {
		for i := 0; i < attempts; i++ {
			floating, err := NativeTuningPinned(false, pinMsgs)
			if err != nil {
				return nil, fmt.Errorf("bench: summary tuning floating: %w", err)
			}
			pinned, err := NativeTuningPinned(true, pinMsgs)
			if err != nil {
				return nil, fmt.Errorf("bench: summary tuning pinned: %w", err)
			}
			s.Tuning.FloatingMsgsPerSec = max(s.Tuning.FloatingMsgsPerSec, floating)
			s.Tuning.PinnedMsgsPerSec = max(s.Tuning.PinnedMsgsPerSec, pinned)
		}
		if s.Tuning.FloatingMsgsPerSec > 0 {
			s.Tuning.PinnedVsFloatingAdvantage = s.Tuning.PinnedMsgsPerSec / s.Tuning.FloatingMsgsPerSec
		}
	}
	for i := 0; i < attempts; i++ {
		base, _, err := NativeTuningHuge(false, hugeMsgs)
		if err != nil {
			return nil, fmt.Errorf("bench: summary tuning base pages: %w", err)
		}
		huge, hs, err := NativeTuningHuge(true, hugeMsgs)
		if err != nil {
			return nil, fmt.Errorf("bench: summary tuning huge pages: %w", err)
		}
		s.Tuning.BasePagesMsgsPerSec = max(s.Tuning.BasePagesMsgsPerSec, base)
		s.Tuning.HugePagesMsgsPerSec = max(s.Tuning.HugePagesMsgsPerSec, huge)
		s.Tuning.HugePagesAdvised = hs.AdvisedBytes > 0
		s.Tuning.HugeAdvisedBytes = hs.AdvisedBytes
	}
	if s.Tuning.BasePagesMsgsPerSec > 0 {
		s.Tuning.HugeVsBaseAdvantage = s.Tuning.HugePagesMsgsPerSec / s.Tuning.BasePagesMsgsPerSec
	}

	// Crash: the PR 9 robustness headline. Like xproc it needs the spawn
	// hook and a shared backend; unlike the others it spawns, kills and
	// respawns real processes per attempt, so it runs twice, best-of, at
	// a modest message count. The deterministic fields (deaths,
	// completeness) land identically every attempt by construction.
	cChildren, cVictims, cMsgs := 4, 2, 400
	if quick {
		cMsgs = 100
	}
	s.Crash.Children = cChildren
	s.Crash.Victims = cVictims
	s.Crash.MsgsPerChild = cMsgs
	s.Crash.PayloadBytes = 512
	if XProcSpawnSelf != nil {
		bin, env := XProcSpawnSelf()
		for i := 0; i < 2; i++ {
			r, err := RunCrash(bin, env, cChildren, cVictims, cMsgs, 512)
			if errors.Is(err, mpf.ErrNoSharedBackend) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("bench: summary crash: %w", err)
			}
			s.Crash.Supported = true
			s.Crash.Deaths = r.Deaths
			s.Crash.Respawns = r.Respawns
			s.Crash.ReclaimCompleteness = float64(r.Deaths) / float64(cVictims)
			if r.SurvivorMsgsPerSec > s.Crash.SurvivorMsgsPerSec {
				s.Crash.SurvivorMsgsPerSec = r.SurvivorMsgsPerSec
				s.Crash.ReclaimMeanMicros = r.ReclaimMeanMicros
				s.Crash.ReclaimMaxMicros = r.ReclaimMaxMicros
				s.Crash.ReclaimedViews = r.ReclaimedViews
				s.Crash.ReclaimedCredits = r.ReclaimedCredits
			}
		}
	}
	return s, nil
}

// Write serialises the summary to path, indented for human diffing.
func (s *JSONSummary) Write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSummary loads a BENCH.json previously produced by Write — the
// perf-regression job's input (the previous run's artifact, or the
// committed BENCH_BASELINE.json seed).
func ReadSummary(path string) (*JSONSummary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &JSONSummary{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return s, nil
}
