package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/affinity"
	"repro/internal/shm"
	"repro/mpf"
)

// Self-tuning ablation. PR 8 made four hot-path mechanisms adaptive or
// layout-aware — the harvest budget sizes itself from an EWMA of
// observed ready-set depth with a per-circuit fairness cap, Run workers
// pin to distinct cores under WithAffinity, the arena backing takes a
// transparent-huge-page hint under WithHugePages, and the contended
// protocol words moved onto private 64-byte lines — and each of those
// is a claim that can be turned off. This file measures every claim
// against its own ablation on identical workloads:
//
//   - auto versus fixed harvest budgets under a bursty on/off arrival
//     mix (the MMPP shape from PAPERS.md), with per-round starvation
//     tracking: how many rounds a circuit with queued traffic can go
//     unserved. The fixed budget keeps the historical greedy sweep, so
//     the contrast shows both throughput (adaptive gulps track burst
//     depth) and fairness (the cap splits rounds between hot siblings).
//   - padded versus packed counter pairs — the synthetic false-sharing
//     microbench behind the layout map DESIGN.md §16 freezes.
//   - pinned versus floating Run workers on a producer/consumer stream.
//   - huge-page versus base-page arena backing, recording whether the
//     madvise hint actually took (shm.HugeStats) alongside throughput.
//
// `mpfbench -tuning` renders the four legs; BENCH.json carries the
// headline numbers (schema 5) and TestTuningAdvantage gates the
// adaptive-budget claim itself.

// The tuning headline configuration: a 4-circuit bursty mix whose
// burst depth (32) far exceeds the fixed budget (2), so a greedy fixed
// sweep both pays a round trip per 2 messages and serves circuits in
// ready order until each drains — the two costs the adaptive budget
// and fairness cap remove.
const (
	TuningCircuits    = 4
	TuningBurstDepth  = 32
	TuningBursts      = 24
	TuningFixedBudget = 2
	// TuningAutoMin and TuningAutoMax are the WithAutoHarvest window
	// the auto leg runs under; the max comfortably exceeds one burst so
	// the EWMA, not the clamp, sets the working budget.
	TuningAutoMin = 1
	TuningAutoMax = 64
)

const (
	tuningPayload  = 32
	tuningBurstGap = 100 * time.Microsecond
	tuningParkTTL  = 2 * time.Millisecond
)

// TuningHarvestResult is one auto-versus-fixed harvest run's outcome.
type TuningHarvestResult struct {
	// MsgsPerSec is delivered messages per second across the drain —
	// pure consumer-side harvest efficiency, since the backlog is fully
	// queued before the clock starts.
	MsgsPerSec float64
	// Rounds is the number of harvest calls that returned views. The
	// drain is deterministic (no timing races: everything is already
	// queued), so fixed.Rounds/auto.Rounds is a machine-independent
	// round-amortisation ratio, like loan_batch's lock_amortisation.
	Rounds int
	// MaxStarvationRounds is the worst gap observed across the drain:
	// the number of consecutive harvest rounds a circuit that still had
	// queued messages went unserved. Every undelivered circuit is ready
	// by construction, so the count is exact — this is the fairness
	// number the cap bounds and the greedy fixed sweep lets grow to
	// most of the drain.
	MaxStarvationRounds int
	// CapHits and BudgetPeak come from the facility stats: fairness-cap
	// truncations counted, and the highest HarvestAutoBudget gauge
	// value sampled across rounds (0 in fixed mode).
	CapHits    uint64
	BudgetPeak uint64
}

// NativeTuningHarvest drives `circuits` producers, each sending
// `bursts` bursts of `depth` messages with a quiet gap between bursts,
// at one consumer event loop harvesting with either the adaptive
// budget (auto, WaitViews(0) under the TuningAutoMin..Max window) or
// the historical fixed greedy budget (WaitViews(TuningFixedBudget)).
// The consumer holds off until the whole burst train has queued, then
// drains: arrival pacing cancels out of the comparison (on a slow or
// single-CPU box a live consumer just tracks the arrival rate in both
// modes and measures nothing), and the starvation count is exact.
func NativeTuningHarvest(auto bool, circuits, bursts, depth int) (TuningHarvestResult, error) {
	if circuits < 1 || bursts < 1 || depth < 1 {
		return TuningHarvestResult{}, fmt.Errorf("bench: tuningharvest(circuits=%d, bursts=%d, depth=%d)",
			circuits, bursts, depth)
	}
	perProducer := bursts * depth
	opts := []mpf.Option{
		mpf.WithMaxProcesses(circuits + 1),
		mpf.WithMaxLNVCs(circuits + 4),
		// The fixed-budget consumer is deliberately slower than the
		// producers, so the whole load can be in flight at once.
		mpf.WithBlocksPerProcess(blocksFor(tuningPayload, perProducer+16)),
	}
	if auto {
		opts = append(opts, mpf.WithAutoHarvest(TuningAutoMin, TuningAutoMax))
	}
	fac, err := mpf.New(opts...)
	if err != nil {
		return TuningHarvestResult{}, err
	}
	defer fac.Shutdown()

	var (
		done        atomic.Bool
		allSent     atomic.Bool
		sendersDone atomic.Int32
		res         TuningHarvestResult
		elapsed     time.Duration
		delivered   int
	)
	// A stuck run (a bug, not a slow box) must not hang the bench
	// forever: the watchdog drains every worker out through `done`.
	watchdog := time.AfterFunc(30*time.Second, func() { done.Store(true) })
	defer watchdog.Stop()
	name := func(c int) string { return fmt.Sprintf("tune-%d", c) }
	total := circuits * perProducer

	err = fac.Run(circuits+1, func(p *mpf.Process) (err error) {
		defer func() {
			if err != nil {
				done.Store(true)
			}
		}()
		if pid := p.PID(); pid < circuits {
			// Producer: wait for the consumer's go token, then send the
			// on/off burst train.
			s, err := p.OpenSend(name(pid))
			if err != nil {
				return err
			}
			g, err := p.OpenReceive("tune-go", mpf.FCFS)
			if err != nil {
				return err
			}
			defer g.Close()
			one := make([]byte, 1)
			for {
				if done.Load() {
					return nil
				}
				if _, err := g.ReceiveDeadline(one, 50*time.Millisecond); err == nil {
					break
				} else if !errors.Is(err, mpf.ErrTimeout) {
					return err
				}
			}
			payload := make([]byte, tuningPayload)
			for b := 0; b < bursts; b++ {
				for k := 0; k < depth; k++ {
					if done.Load() {
						return nil
					}
					if err := s.Send(payload); err != nil {
						return err
					}
				}
				if b < bursts-1 {
					time.Sleep(tuningBurstGap) // the off phase
				}
			}
			if sendersDone.Add(1) == int32(circuits) {
				allSent.Store(true)
			}
			return nil
		}

		// Consumer: one selector over every circuit, released together.
		conns := make([]*mpf.RecvConn, circuits)
		byID := make(map[mpf.ID]int, circuits)
		for c := range conns {
			rc, err := p.OpenReceive(name(c), mpf.FCFS)
			if err != nil {
				return err
			}
			conns[c] = rc
			byID[rc.ID()] = c
		}
		sel, err := p.NewSelector()
		if err != nil {
			return err
		}
		defer sel.Close()
		for _, rc := range conns {
			if err := sel.Add(rc); err != nil {
				return err
			}
		}
		gs, err := p.OpenSend("tune-go")
		if err != nil {
			return err
		}
		for i := 0; i < circuits; i++ {
			if err := gs.Send([]byte{1}); err != nil {
				return err
			}
		}

		// Let the whole burst train queue before draining.
		for !allSent.Load() {
			if done.Load() {
				return nil
			}
			time.Sleep(100 * time.Microsecond)
		}

		budget := TuningFixedBudget
		if auto {
			budget = 0
		}
		perCircuit := make([]int, circuits)
		gapRounds := make([]int, circuits)
		served := make([]bool, circuits)
		start := time.Now()
		for delivered < total {
			if done.Load() {
				return nil
			}
			vs, err := sel.WaitViewsDeadline(budget, tuningParkTTL)
			if err != nil {
				if errors.Is(err, mpf.ErrTimeout) {
					continue
				}
				if errors.Is(err, mpf.ErrShutdown) {
					return nil
				}
				return err
			}
			for i := range served {
				served[i] = false
			}
			for _, v := range vs {
				c := byID[v.Circuit()]
				perCircuit[c]++
				served[c] = true
				delivered++
			}
			mpf.ReleaseViews(vs)
			res.Rounds++
			if auto {
				if g := fac.Stats().HarvestAutoBudget; g > res.BudgetPeak {
					res.BudgetPeak = g
				}
			}
			for c := 0; c < circuits; c++ {
				switch {
				case served[c]:
					gapRounds[c] = 0
				case perCircuit[c] < perProducer:
					gapRounds[c]++
					if gapRounds[c] > res.MaxStarvationRounds {
						res.MaxStarvationRounds = gapRounds[c]
					}
				}
			}
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return TuningHarvestResult{}, err
	}
	if delivered < total {
		return TuningHarvestResult{}, fmt.Errorf("bench: tuningharvest delivered %d of %d messages (watchdog?)",
			delivered, total)
	}
	res.MsgsPerSec = rate(total, elapsed)
	res.CapHits = fac.Stats().HarvestCapHits
	return res, nil
}

// TuningFalseSharing runs the padded-versus-packed counter microbench:
// two goroutines each hammering a private atomic word for iters
// increments, once with the words on the same 64-byte line (packed —
// the layout every padded struct in TestHotWordLayout would otherwise
// collapse back to) and once a full line apart (padded). Returns
// nanoseconds per increment for each arrangement; packed/padded is the
// false-sharing cost the padding removes.
func TuningFalseSharing(iters int) (packedNs, paddedNs float64) {
	return falseSharingNs(iters, 1), falseSharingNs(iters, 8)
}

// falseSharingNs times two goroutines incrementing words gapWords
// apart, starting from a 64-byte-aligned base so 1 word of gap means
// provably the same cache line and 8 words provably distinct lines —
// a struct of two adjacent fields could legitimately straddle a line
// boundary and measure nothing. Each goroutine pins its thread to a CPU
// of its own where the platform allows, and the two rendezvous on their
// processors before either starts: left to float, the kernel can stack
// both threads on one CPU for longer than the millisecond a run lasts,
// and two runs that never overlapped share no line whatever the layout.
// The figure is the slower goroutine's time per increment.
func falseSharingNs(iters, gapWords int) float64 {
	buf := make([]uint64, 16+gapWords)
	base := 0
	for uintptr(unsafe.Pointer(&buf[base]))%64 != 0 {
		base++
	}
	words := [2]*uint64{&buf[base], &buf[base+gapWords]}
	rendezvous := runtime.GOMAXPROCS(0) >= len(words)
	var onCPU atomic.Int32
	var elapsed [len(words)]time.Duration
	var wg sync.WaitGroup
	wg.Add(len(words))
	for g, w := range words {
		go func(g int, w *uint64) {
			defer wg.Done()
			if restore, err := affinity.PinThread(g); err == nil {
				defer restore()
			}
			onCPU.Add(1)
			for rendezvous && onCPU.Load() < int32(len(words)) {
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				atomic.AddUint64(w, 1)
			}
			elapsed[g] = time.Since(start)
		}(g, w)
	}
	wg.Wait()
	return float64(max(elapsed[0], elapsed[1]).Nanoseconds()) / float64(iters)
}

// TuningAffinityProbe reports whether the pinned leg can run here:
// the platform implements thread affinity, a trial pin actually
// succeeds (restricted cpusets and sandboxes refuse it at runtime),
// and there are at least two CPUs to pin producer and consumer apart.
func TuningAffinityProbe() bool {
	if !affinity.Supported() || runtime.NumCPU() < 2 {
		return false
	}
	restore, err := affinity.PinThread(0)
	if err != nil {
		return false
	}
	restore()
	return true
}

const tuningPinPayload = 64

// NativeTuningPinned streams msgs 64-byte messages through one
// producer/consumer circuit, with the two Run workers either pinned to
// distinct cores (WithAffinity) or left to float. The contrast is the
// cache-line commute: floated workers migrate between cores and drag
// the ring's protocol words with them.
func NativeTuningPinned(pinned bool, msgs int) (float64, error) {
	tput, _, err := tuningStream(msgs, tuningPinPayload, nil, pinned, false)
	return tput, err
}

// NativeTuningHuge streams msgs 4000-byte messages through an arena
// large enough (8 MiB of blocks) that the 2 MiB-aligned interior of
// its backing is meaningful, with and without the huge-page hint, and
// reports the arena's HugeStats alongside throughput so the caller can
// tell whether the hint actually took on this kernel.
func NativeTuningHuge(huge bool, msgs int) (float64, shm.HugeStats, error) {
	return tuningStream(msgs, 4000, []mpf.Option{
		mpf.WithBlockSize(4096),
		mpf.WithBlocksPerProcess(1024), // 2 procs x 1024 x 4 KiB = 8 MiB
	}, false, huge)
}

// tuningStream is the shared two-process stream: pid 0 sends msgs
// payloads plus a poison byte, pid 1 receives them, and the reported
// throughput spans first send to poison. extra/pinned/huge select the
// leg; the arena's huge-page outcome rides along for the huge leg.
func tuningStream(msgs, payload int, extra []mpf.Option, pinned, huge bool) (float64, shm.HugeStats, error) {
	if msgs < 1 || payload < 2 {
		return 0, shm.HugeStats{}, fmt.Errorf("bench: tuningstream(msgs=%d, payload=%d)", msgs, payload)
	}
	opts := []mpf.Option{
		mpf.WithMaxProcesses(2),
		mpf.WithMaxLNVCs(4),
	}
	if extra == nil {
		opts = append(opts, mpf.WithBlocksPerProcess(blocksFor(payload, 512)))
	}
	opts = append(opts, extra...)
	if pinned {
		opts = append(opts, mpf.WithAffinity())
	}
	if huge {
		opts = append(opts, mpf.WithHugePages())
	}
	fac, err := mpf.New(opts...)
	if err != nil {
		return 0, shm.HugeStats{}, err
	}
	defer fac.Shutdown()

	var (
		startNs atomic.Int64
		elapsed time.Duration
	)
	recvReady := make(chan struct{})
	err = fac.Run(2, func(p *mpf.Process) error {
		if p.PID() == 0 {
			s, err := p.OpenSend("stream")
			if err != nil {
				return err
			}
			<-recvReady
			startNs.Store(time.Now().UnixNano())
			buf := make([]byte, payload)
			for k := 0; k < msgs; k++ {
				if err := s.Send(buf); err != nil {
					return err
				}
			}
			return s.Send([]byte{0xFF})
		}
		r, err := p.OpenReceive("stream", mpf.FCFS)
		if err != nil {
			close(recvReady)
			return err
		}
		defer r.Close()
		close(recvReady)
		buf := make([]byte, payload)
		for {
			n, err := r.Receive(buf)
			if err != nil {
				return err
			}
			if n == 1 && buf[0] == 0xFF {
				elapsed = time.Duration(time.Now().UnixNano() - startNs.Load())
				return nil
			}
		}
	})
	if err != nil {
		return 0, shm.HugeStats{}, err
	}
	return rate(msgs, elapsed), fac.Core().Arena().HugeStats(), nil
}

// TuningReport runs the four ablation legs once and renders them as
// the text table `mpfbench -tuning` prints. The affinity leg reports
// itself skipped (rather than failing the run) on restricted runners,
// which is what lets CI smoke the flag everywhere.
func TuningReport(quick bool) (string, error) {
	bursts, fsIters, pinMsgs, hugeMsgs := TuningBursts, 1_000_000, 4000, 1200
	if quick {
		bursts, fsIters, pinMsgs, hugeMsgs = 8, 250_000, 1000, 400
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Self-Tuning Ablation (native, %d circuits, bursts of %d, fixed budget %d)\n\n",
		TuningCircuits, TuningBurstDepth, TuningFixedBudget)

	fixed, err := NativeTuningHarvest(false, TuningCircuits, bursts, TuningBurstDepth)
	if err != nil {
		return "", fmt.Errorf("tuning fixed harvest: %w", err)
	}
	auto, err := NativeTuningHarvest(true, TuningCircuits, bursts, TuningBurstDepth)
	if err != nil {
		return "", fmt.Errorf("tuning auto harvest: %w", err)
	}
	fmt.Fprintf(&b, "harvest budget   fixed(%d): %9.0f msgs/s in %5d rounds, worst starvation %3d rounds\n",
		TuningFixedBudget, fixed.MsgsPerSec, fixed.Rounds, fixed.MaxStarvationRounds)
	fmt.Fprintf(&b, "                 auto:      %9.0f msgs/s in %5d rounds, worst starvation %3d rounds (budget peak %d, cap hits %d)\n",
		auto.MsgsPerSec, auto.Rounds, auto.MaxStarvationRounds, auto.BudgetPeak, auto.CapHits)
	if fixed.MsgsPerSec > 0 {
		fmt.Fprintf(&b, "                 advantage: %.2fx\n", auto.MsgsPerSec/fixed.MsgsPerSec)
	}

	packed, padded := TuningFalseSharing(fsIters)
	fmt.Fprintf(&b, "\nfalse sharing    packed: %5.1f ns/op   padded: %5.1f ns/op   advantage: %.2fx\n",
		packed, padded, packed/padded)

	if TuningAffinityProbe() {
		floating, err := NativeTuningPinned(false, pinMsgs)
		if err != nil {
			return "", fmt.Errorf("tuning floating stream: %w", err)
		}
		pinnedT, err := NativeTuningPinned(true, pinMsgs)
		if err != nil {
			return "", fmt.Errorf("tuning pinned stream: %w", err)
		}
		fmt.Fprintf(&b, "\ncore affinity    floating: %9.0f msgs/s   pinned: %9.0f msgs/s   advantage: %.2fx\n",
			floating, pinnedT, pinnedT/floating)
	} else {
		fmt.Fprintf(&b, "\ncore affinity    skipped: thread pinning unsupported or refused on this runner\n")
	}

	base, _, err := NativeTuningHuge(false, hugeMsgs)
	if err != nil {
		return "", fmt.Errorf("tuning base-page stream: %w", err)
	}
	hugeT, hs, err := NativeTuningHuge(true, hugeMsgs)
	if err != nil {
		return "", fmt.Errorf("tuning huge-page stream: %w", err)
	}
	fmt.Fprintf(&b, "\nhuge pages       base: %9.0f msgs/s   hinted: %9.0f msgs/s   advantage: %.2fx\n",
		base, hugeT, hugeT/base)
	switch {
	case hs.Err != nil:
		fmt.Fprintf(&b, "                 hint refused by the kernel: %v\n", hs.Err)
	case hs.AdvisedBytes > 0:
		fmt.Fprintf(&b, "                 hint took: %d bytes advised MADV_HUGEPAGE\n", hs.AdvisedBytes)
	default:
		fmt.Fprintf(&b, "                 hint unavailable on this platform\n")
	}
	return b.String(), nil
}
