package repro

// One testing.B benchmark per table/figure of the paper's evaluation
// (§4, Figures 3-8), running the *native* implementation, plus the
// ablation benchmarks for the restricted schemes the conclusion (§5)
// proposes. Absolute values reflect the host; the paper-scale numbers
// come from the simulated substrate (`mpfbench -mode simulated`).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/gauss"
	"repro/internal/apps/sor"
	"repro/internal/bench"
	"repro/mpf"
)

// BenchmarkFig3Base measures loop-back throughput versus message length
// (paper Figure 3): the base program, b.N rounds. The per-op bytes/sec
// appears as the B/s metric.
func BenchmarkFig3Base(b *testing.B) {
	for _, msgLen := range []int{16, 128, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("len=%d", msgLen), func(b *testing.B) {
			fac, err := mpf.New(mpf.WithMaxProcesses(1), mpf.WithBlocksPerProcess(1024))
			if err != nil {
				b.Fatal(err)
			}
			defer fac.Shutdown()
			b.SetBytes(int64(msgLen))
			if _, err := bench.Base(apps.Native(fac), msgLen, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// fanout runs the fan-out program with proto: one sender, nRecv
// receivers, b.N messages per receiver as Figures 4 and 5 size it. The
// B/s metric counts delivered bytes, which under BROADCAST are nRecv
// copies of each message.
func fanout(b *testing.B, proto mpf.Protocol) {
	for _, msgLen := range []int{16, 128, 1024} {
		for _, nRecv := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("len=%d/recv=%d", msgLen, nRecv), func(b *testing.B) {
				fac, err := mpf.New(mpf.WithMaxProcesses(nRecv+1), mpf.WithBlocksPerProcess(2048))
				if err != nil {
					b.Fatal(err)
				}
				defer fac.Shutdown()
				n, err := bench.Fanout(apps.Native(fac), proto, msgLen, nRecv, b.N*nRecv)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n / b.N))
			})
		}
	}
}

// BenchmarkFig4FCFS measures throughput with N FCFS receivers (paper
// Figure 4).
func BenchmarkFig4FCFS(b *testing.B) { fanout(b, mpf.FCFS) }

// BenchmarkFig5Broadcast measures delivered throughput with N BROADCAST
// receivers (paper Figure 5).
func BenchmarkFig5Broadcast(b *testing.B) { fanout(b, mpf.Broadcast) }

// BenchmarkFig6Random runs the fully-connected random benchmark (paper
// Figure 6); each iteration is one complete exchange of
// 20 messages/process on a fresh facility.
func BenchmarkFig6Random(b *testing.B) {
	for _, msgLen := range []int{8, 256, 1024} {
		for _, nProcs := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("len=%d/procs=%d", msgLen, nProcs), func(b *testing.B) {
				b.SetBytes(int64(msgLen * nProcs * 20))
				for i := 0; i < b.N; i++ {
					fac, err := mpf.New(mpf.WithMaxProcesses(nProcs), mpf.WithMaxLNVCs(nProcs+2),
						mpf.WithBlocksPerProcess(2048), mpf.WithFailFastSend())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := bench.Random(apps.Native(fac), msgLen, nProcs, 20); err != nil {
						b.Fatal(err)
					}
					fac.Shutdown()
				}
			})
		}
	}
}

// BenchmarkFig7Gauss times the message-passing Gauss-Jordan solver
// (paper Figure 7); compare against BenchmarkFig7GaussSequential for
// host-local speedup.
func BenchmarkFig7Gauss(b *testing.B) {
	for _, n := range []int{32, 96} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				a, rhs := gauss.NewSystem(n, rng)
				for i := 0; i < b.N; i++ {
					fac, err := mpf.New(mpf.WithMaxProcesses(workers+1), mpf.WithBlocksPerProcess(2048))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := gauss.SolveMPF(fac, workers, a, rhs); err != nil {
						b.Fatal(err)
					}
					fac.Shutdown()
				}
			})
		}
	}
}

// BenchmarkFig7GaussSequential is Figure 7's baseline.
func BenchmarkFig7GaussSequential(b *testing.B) {
	for _, n := range []int{32, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			a, rhs := gauss.NewSystem(n, rng)
			for i := 0; i < b.N; i++ {
				if _, err := gauss.SolveSequential(a, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8SOR times one full message-passing SOR solve (paper
// Figure 8 divides by the iteration count for per-iteration speedup).
func BenchmarkFig8SOR(b *testing.B) {
	for _, p := range []int{17, 33} {
		for _, n := range []int{1, 2, 3} {
			b.Run(fmt.Sprintf("p=%d/N=%d", p, n), func(b *testing.B) {
				pr := sor.DefaultProblem(p)
				for i := 0; i < b.N; i++ {
					fac, err := mpf.New(mpf.WithMaxProcesses(n*n+1),
						mpf.WithMaxLNVCs(256), mpf.WithBlocksPerProcess(4096))
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := sor.SolveMPF(fac, n, pr); err != nil {
						b.Fatal(err)
					}
					fac.Shutdown()
				}
			})
		}
	}
}

// Ablations. The restricted schemes of the paper's §5 are modelled on
// the simulated machine (mpfbench -ablate schemes); their baseline, the
// one-to-one transfer through the general facility, is
// BenchmarkFig3Base.

// BenchmarkAblationBlockSize sweeps the message block size — the knob
// behind Figure 3's shape. The paper ran with 10-byte blocks, which is
// why its absolute throughput is so low: per-block handling dominates.
// Larger blocks amortise it away.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, blockSize := range []int{10, 64, 256, 1024} {
		b.Run(fmt.Sprintf("block=%d", blockSize), func(b *testing.B) {
			fac, err := mpf.New(
				mpf.WithMaxProcesses(1),
				mpf.WithBlockSize(blockSize),
				mpf.WithBlocksPerProcess(8192/blockSize*64),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer fac.Shutdown()
			p, _ := fac.Process(0)
			s, _ := p.OpenSend("blk")
			r, _ := p.OpenReceive("blk", mpf.FCFS)
			const msgLen = 1024
			payload := make([]byte, msgLen)
			buf := make([]byte, msgLen)
			b.SetBytes(msgLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Send(payload); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Receive(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
