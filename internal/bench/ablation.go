package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/gauss"
	"repro/internal/apps/sor"
	"repro/internal/stats"
	"repro/mpf"
)

// Ablation figures: sensitivity studies on the simulated machine that
// the paper motivates but does not plot.

// ablationLengths is the message-length sweep shared by the ablation
// figures (Figure 3's axis).
var ablationLengths = []int{16, 64, 128, 256, 512, 1024, 2048}

// AblationSchemes projects the paper's §5 restricted schemes on the
// Balance model: loop-back style throughput (one transfer = one send +
// one receive by a single process) for the general LNVC path, the
// lock-free one-to-one circuit, and the synchronous single-copy
// transfer. This is the comparison the conclusion says was "currently
// underway".
func AblationSchemes(cfg Config) *stats.Figure {
	m := cfg.machine()
	fig := stats.NewFigure("Ablation (paper §5): restricted schemes vs general MPF (simulated)",
		"msglen", "bytes/sec")
	general := fig.AddSeries("general LNVC")
	one2one := fig.AddSeries("one-to-one")
	syncS := fig.AddSeries("synchronous")
	for _, l := range ablationLengths {
		general.Add(l, float64(l)/m.GeneralTransferTime(l))
		one2one.Add(l, float64(l)/m.One2OneTransferTime(l))
		syncS.Add(l, float64(l)/m.SyncTransferTime(l))
	}
	return fig
}

// AblationBlockSize reruns the simulated base benchmark under different
// message block sizes. The paper ran everything with 10-byte blocks
// (footnote 4); this shows how much of Figure 3's ceiling is that
// choice rather than the protocol.
func AblationBlockSize(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Ablation: base benchmark throughput vs block size (simulated)",
		"msglen", "bytes/sec")
	rounds := cfg.scale(100, 20)
	for _, blockPayload := range []int{10, 64, 256} {
		s := fig.AddSeries(fmt.Sprintf("%d-byte blocks", blockPayload))
		m := cfg.machine()
		mm := *m // copy: the sweep must not mutate the shared model
		mm.BlockPayload = blockPayload
		for _, l := range ablationLengths {
			thr, err := Config{Machine: &mm}.base(l, rounds)
			if err != nil {
				return nil, fmt.Errorf("block ablation len=%d: %w", l, err)
			}
			s.Add(l, thr)
		}
	}
	return fig, nil
}

// AblationParadigm answers the paper's closing research question — "the
// effect of the parallel programming paradigm (message passing or
// shared memory) on application performance" — on the Balance model:
// both applications, both paradigms, each solved to the end.
// Gauss-Jordan speedups are against the sequential solver, SOR's
// per-iteration ones against the one-process MPF solve.
func AblationParadigm(cfg Config) (*stats.Figure, error) {
	sim := Config{Machine: cfg.Machine} // simulated, whatever cfg.Mode
	fig := stats.NewFigure("Ablation (paper §5): message passing vs shared memory (simulated)",
		"processes", "speedup")

	gaussN := 96
	if cfg.Quick {
		gaussN = 48
	}
	procs := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		procs = []int{1, 4, 16}
	}
	mpfS := fig.AddSeries(fmt.Sprintf("gauss %d MPF", gaussN))
	shmS := fig.AddSeries(fmt.Sprintf("gauss %d shared", gaussN))
	a, b := gauss.NewSystem(gaussN, rand.New(rand.NewSource(int64(gaussN))))
	seq, err := sim.gaussSequential(a, b)
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		tm, err := sim.gaussParallel(gauss.RunMPF, p, a, b)
		if err != nil {
			return nil, err
		}
		ts, err := sim.gaussParallel(gauss.RunShared, p, a, b)
		if err != nil {
			return nil, err
		}
		mpfS.Add(p, seq/tm)
		shmS.Add(p, seq/ts)
	}

	// SOR at a fixed grid, swept over mesh dimension (1/4/9/16 procs).
	// The MPF leg's solve carries its start-up and the gather of the
	// result blocks, which the shared leg has not.
	sorP := 33
	mpfSor := fig.AddSeries(fmt.Sprintf("sor %d MPF", sorP))
	shmSor := fig.AddSeries(fmt.Sprintf("sor %d shared", sorP))
	var base float64
	for _, n := range []int{1, 2, 3, 4} {
		tm, err := sim.sorIter(sor.RunMPF, sorP, n)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			base = tm
		}
		ts, err := sim.sorIter(sor.RunShared, sorP, n)
		if err != nil {
			return nil, err
		}
		mpfSor.Add(n*n, base/tm)
		shmSor.Add(n*n, base/ts)
	}
	return fig, nil
}

// AblationLockCost reruns the simulated fcfs benchmark at 16 bytes with
// scaled lock/wakeup costs, showing that Figure 4's small-message
// decline is a locking artifact, as the paper asserts.
func AblationLockCost(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Ablation: 16-byte fcfs throughput vs lock cost (simulated)",
		"receivers", "bytes/sec")
	msgs := cfg.scale(48, 16)
	receivers := []int{1, 4, 8, 16}
	if cfg.Quick {
		receivers = []int{1, 8}
	}
	for _, scale := range []float64{0, 1, 4} {
		s := fig.AddSeries(fmt.Sprintf("lock cost x%g", scale))
		m := cfg.machine()
		mm := *m
		mm.LockOverhead = m.LockOverhead * scale
		for _, n := range receivers {
			thr, err := Config{Machine: &mm}.fanout(mpf.FCFS, 16, n, msgs*n)
			if err != nil {
				return nil, fmt.Errorf("lock ablation n=%d: %w", n, err)
			}
			s.Add(n, thr)
		}
	}
	return fig, nil
}
