package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/gauss"
	"repro/internal/apps/sor"
	"repro/internal/balance"
	"repro/internal/simmpf"
	"repro/internal/stats"
	"repro/mpf"
)

// Mode selects the execution substrate for a figure.
type Mode uint8

const (
	// Simulated runs the programs on the Balance 21000 model; values
	// land at the paper's absolute scale.
	Simulated Mode = iota
	// Native runs them on the real implementation, on goroutines; shapes
	// should match the paper, absolute values reflect the host machine.
	Native
)

// String names the mode.
func (m Mode) String() string {
	if m == Native {
		return "native"
	}
	return "simulated"
}

// Config tunes figure generation.
type Config struct {
	Mode Mode
	// Quick shrinks sweeps and message counts for tests (roughly 10×
	// cheaper, same shapes).
	Quick bool
	// Machine overrides the simulated machine model (default
	// Balance21000).
	Machine *balance.Machine
}

func (c Config) machine() *balance.Machine {
	if c.Machine != nil {
		return c.Machine
	}
	return balance.Balance21000()
}

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// nativeReps is how many times a native cell runs; it reports the
// median, since one run on a shared host can land anywhere.
const nativeReps = 3

// seconds runs program on c's substrate and returns the seconds it
// took: of simulated time in one run on c's machine, whose memory
// picture workload, if not nil, sets before the run
// (simmpf.Facility.SetWorkload); natively, the median wall time around
// the program over nativeReps runs, each on a fresh facility built with
// opts before the clock starts and shut down after it stops.
func (c Config) seconds(opts []mpf.Option, workload func(*simmpf.Facility),
	program func(apps.Runner) error) (float64, error) {
	if c.Mode == Simulated {
		s := apps.Simulated(c.machine())
		if workload != nil {
			workload(s.Facility())
		}
		err := program(s)
		return s.Seconds(), err
	}
	times := make([]float64, nativeReps)
	for i := range times {
		fac, err := mpf.New(opts...)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = program(apps.Native(fac))
		times[i] = time.Since(start).Seconds()
		fac.Shutdown()
		if err != nil {
			return 0, err
		}
	}
	return stats.Median(times), nil
}

// throughput runs program as seconds does and returns the bytes it
// delivered per second.
func (c Config) throughput(opts []mpf.Option, workload func(*simmpf.Facility),
	program func(apps.Runner) (int, error)) (float64, error) {
	var n int
	secs, err := c.seconds(opts, workload, func(r apps.Runner) (err error) {
		n, err = program(r)
		return err
	})
	if err != nil {
		return 0, err
	}
	return float64(n) / secs, nil
}

// base, fanout and random are one cell of Figures 3, 4–5 and 6: the
// program's throughput on c's substrate, natively on a facility sized
// for it.
func (c Config) base(msgLen, rounds int) (float64, error) {
	opts := []mpf.Option{mpf.WithMaxProcesses(1), mpf.WithMaxLNVCs(2),
		mpf.WithBlocksPerProcess(blocksFor(msgLen, 8))}
	return c.throughput(opts, nil, func(r apps.Runner) (int, error) { return Base(r, msgLen, rounds) })
}

func (c Config) fanout(proto mpf.Protocol, msgLen, nRecv, msgs int) (float64, error) {
	opts := []mpf.Option{mpf.WithMaxProcesses(nRecv + 1), mpf.WithMaxLNVCs(4),
		mpf.WithBlocksPerProcess(blocksFor(msgLen, 64))}
	return c.throughput(opts, nil, func(r apps.Runner) (int, error) { return Fanout(r, proto, msgLen, nRecv, msgs) })
}

// randomRegionMsgsPerProc is the region sizing the simulated random
// benchmark assumes: the paper's init() pre-allocates for the worst
// case, so the mapped region grows with both process count and message
// size — the memory pressure behind Figure 6's paging knee. Natively
// the region holds 96 messages per process, and a send that finds it
// full fails, to be retried, rather than block.
const randomRegionMsgsPerProc = 600

func (c Config) random(msgLen, nProcs, msgsPerProc int) (float64, error) {
	opts := []mpf.Option{mpf.WithMaxProcesses(nProcs), mpf.WithMaxLNVCs(nProcs + 2),
		mpf.WithBlocksPerProcess(blocksFor(msgLen, 96)), mpf.WithFailFastSend()}
	workload := func(f *simmpf.Facility) {
		f.SetWorkload(nProcs, float64(nProcs*randomRegionMsgsPerProc*msgLen))
	}
	return c.throughput(opts, workload, func(r apps.Runner) (int, error) { return Random(r, msgLen, nProcs, msgsPerProc) })
}

// blocksFor sizes WithBlocksPerProcess so that `inflight` messages of
// msgLen bytes fit per process under the default 64-byte blocks.
func blocksFor(msgLen, inflight int) int {
	perMsg := (msgLen + 59) / 60 // 64-byte blocks, 60 payload
	return max(perMsg*inflight, 256)
}

// Fig3 regenerates "Figure 3: Base Benchmark — Throughput vs. Message
// Length".
func Fig3(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Figure 3: Base Benchmark — Throughput vs. Message Length ("+cfg.Mode.String()+")",
		"msglen", "bytes/sec")
	s := fig.AddSeries("throughput")
	lengths := []int{16, 64, 128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048}
	if cfg.Quick {
		lengths = []int{16, 128, 512, 1024, 2048}
	}
	rounds := cfg.scale(200, 30)
	for _, l := range lengths {
		thr, err := cfg.base(l, rounds)
		if err != nil {
			return nil, fmt.Errorf("fig3 len=%d: %w", l, err)
		}
		s.Add(l, thr)
	}
	return fig, nil
}

// fanoutFigure drives Fig4 and Fig5 (same axes, different protocol).
func fanoutFigure(cfg Config, title string, proto mpf.Protocol) (*stats.Figure, error) {
	fig := stats.NewFigure(title+" ("+cfg.Mode.String()+")", "receivers", "bytes/sec")
	receivers := []int{1, 2, 4, 8, 12, 16}
	if cfg.Quick {
		receivers = []int{1, 4, 8}
	}
	for _, msgLen := range []int{16, 128, 1024} {
		s := fig.AddSeries(fmt.Sprintf("%d byte", msgLen))
		for _, n := range receivers {
			msgs := cfg.scale(48, 16) * n // a fixed share per FCFS receiver; BROADCAST ones take all
			thr, err := cfg.fanout(proto, msgLen, n, msgs)
			if err != nil {
				return nil, fmt.Errorf("%s len=%d n=%d: %w", title, msgLen, n, err)
			}
			s.Add(n, thr)
		}
	}
	return fig, nil
}

// Fig4 regenerates "Figure 4: Fcfs Benchmark — Throughput vs Receiving
// Processes".
func Fig4(cfg Config) (*stats.Figure, error) {
	return fanoutFigure(cfg, "Figure 4: Fcfs Benchmark — Throughput vs Receiving Processes", mpf.FCFS)
}

// Fig5 regenerates "Figure 5: Broadcast Benchmark — Throughput vs
// Receiving Processes".
func Fig5(cfg Config) (*stats.Figure, error) {
	return fanoutFigure(cfg, "Figure 5: Broadcast Benchmark — Throughput vs Receiving Processes", mpf.Broadcast)
}

// Fig6 regenerates "Figure 6: Random Benchmark — Throughput vs
// Processes".
func Fig6(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Figure 6: Random Benchmark — Throughput vs Processes ("+cfg.Mode.String()+")",
		"processes", "bytes/sec")
	procs := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	lengths := []int{1, 8, 64, 256, 1024}
	if cfg.Quick {
		procs = []int{2, 6, 12, 20}
		lengths = []int{8, 256, 1024}
	}
	msgsPerProc := cfg.scale(40, 10)
	for _, msgLen := range lengths {
		s := fig.AddSeries(fmt.Sprintf("%d byte", msgLen))
		for _, n := range procs {
			thr, err := cfg.random(msgLen, n, msgsPerProc)
			if err != nil {
				return nil, fmt.Errorf("fig6 len=%d n=%d: %w", msgLen, n, err)
			}
			s.Add(n, thr)
		}
	}
	return fig, nil
}

// Fig7 regenerates "Figure 7: Gauss Jordan — Speedup vs. Processes".
func Fig7(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Figure 7: Gauss-Jordan — Speedup vs. Processes ("+cfg.Mode.String()+")",
		"processes", "speedup")
	sizes := []int{32, 48, 64, 96}
	procs := []int{1, 2, 4, 8, 12, 16}
	if cfg.Quick {
		sizes = []int{32, 64}
		procs = []int{1, 4, 8}
	}
	for _, n := range sizes {
		s := fig.AddSeries(fmt.Sprintf("%dx%d matrix", n, n))
		a, b := gauss.NewSystem(n, rand.New(rand.NewSource(int64(n))))
		seq, err := cfg.gaussSequential(a, b)
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			pt, err := cfg.gaussParallel(gauss.RunMPF, p, a, b)
			if err != nil {
				return nil, fmt.Errorf("fig7 n=%d p=%d: %w", n, p, err)
			}
			s.Add(p, seq/pt)
		}
	}
	return fig, nil
}

// gaussSequential, gaussParallel and sorIter are one cell of Figures 7
// and 8 and of the paradigm ablation: the seconds a solver takes on c's
// substrate — the one-process Gauss-Jordan baseline, a parallel one
// (gauss.RunMPF or gauss.RunShared) with workers processes, or an SOR
// solver (sor.RunMPF or sor.RunShared) on an n×n mesh, per iteration —
// natively on a facility sized for it.
func (c Config) gaussSequential(a [][]float64, b []float64) (float64, error) {
	return c.seconds([]mpf.Option{mpf.WithMaxProcesses(1)}, nil, func(r apps.Runner) error {
		_, err := gauss.RunSequential(r, a, b)
		return err
	})
}

func (c Config) gaussParallel(solver func(apps.Runner, int, [][]float64, []float64) ([]float64, error),
	workers int, a [][]float64, b []float64) (float64, error) {
	opts := []mpf.Option{mpf.WithMaxProcesses(workers + 1), mpf.WithMaxLNVCs(16), mpf.WithBlocksPerProcess(2048)}
	return c.seconds(opts, nil, func(r apps.Runner) error {
		_, err := solver(r, workers, a, b)
		return err
	})
}

func (c Config) sorIter(solver func(apps.Runner, int, sor.Problem) ([][]float64, int, error), p, n int) (float64, error) {
	opts := []mpf.Option{mpf.WithMaxProcesses(n*n + 1), mpf.WithMaxLNVCs(256), mpf.WithBlocksPerProcess(4096)}
	var iters int
	secs, err := c.seconds(opts, nil, func(r apps.Runner) (err error) {
		_, iters, err = solver(r, n, sor.DefaultProblem(p))
		return err
	})
	if err != nil {
		return 0, err
	}
	return secs / float64(iters), nil
}

// Fig8 regenerates "Figure 8: Poisson Elliptic PDE Solver with SOR
// Iterations — Per Iteration Speedup vs. Dimension (N)". Speedups are
// relative to the 4-process (N=2) solver, as in the paper.
func Fig8(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure("Figure 8: SOR Poisson Solver — Per-Iteration Speedup vs. Dimension ("+cfg.Mode.String()+")",
		"N", "per-iter speedup (vs N=2)")
	grids := []int{9, 17, 33, 65}
	dims := []int{2, 3, 4}
	if cfg.Quick {
		grids = []int{9, 33}
	}
	for _, p := range grids {
		times := &stats.Series{Label: fmt.Sprintf("%dx%d problem", p, p)}
		for _, n := range dims {
			t, err := cfg.sorIter(sor.RunMPF, p, n)
			if err != nil {
				return nil, fmt.Errorf("fig8 p=%d n=%d: %w", p, n, err)
			}
			times.Add(n, t)
		}
		sp, err := stats.Speedup(times, 2, 1)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, sp)
	}
	return fig, nil
}
