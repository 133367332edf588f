// Linsolve: the paper's first application study as a runnable example.
//
// Solves a random dense linear system with the message-passing
// Gauss-Jordan solver (partial pivoting, row partitioning, an arbiter
// process for pivot selection, broadcast distribution of pivot rows) and
// compares it against the sequential and shared-memory baselines —
// the cross-paradigm comparison the paper's introduction motivates.
//
//	go run ./examples/linsolve [-n 96] [-workers 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/apps/gauss"
	"repro/mpf"
)

func main() {
	n := flag.Int("n", 96, "matrix dimension")
	workers := flag.Int("workers", 4, "worker processes for the parallel solvers")
	seed := flag.Int64("seed", 1, "random system seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	a, b := gauss.NewSystem(*n, rng)
	fmt.Printf("solving a %d×%d system, %d workers\n\n", *n, *n, *workers)

	start := time.Now()
	xSeq, err := gauss.SolveSequential(a, b)
	if err != nil {
		log.Fatal(err)
	}
	tSeq := time.Since(start)
	fmt.Printf("%-24s %10v   residual %.2e\n", "sequential:", tSeq, gauss.Residual(a, b, xSeq))

	fac, err := mpf.New(
		mpf.WithMaxProcesses(*workers+1),
		mpf.WithBlocksPerProcess(2048),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Shutdown()
	start = time.Now()
	xMPF, err := gauss.SolveMPF(fac, *workers, a, b)
	if err != nil {
		log.Fatal(err)
	}
	tMPF := time.Since(start)
	fmt.Printf("%-24s %10v   residual %.2e   speedup %.2f\n",
		"MPF message passing:", tMPF, gauss.Residual(a, b, xMPF), tSeq.Seconds()/tMPF.Seconds())

	start = time.Now()
	xShared, err := gauss.SolveShared(fac, *workers, a, b)
	if err != nil {
		log.Fatal(err)
	}
	tShared := time.Since(start)
	fmt.Printf("%-24s %10v   residual %.2e   speedup %.2f\n",
		"shared memory:", tShared, gauss.Residual(a, b, xShared), tSeq.Seconds()/tShared.Seconds())

	st := fac.Stats()
	fmt.Printf("\nMPF traffic: %d messages, %d bytes sent, %d receive waits\n",
		st.Sends, st.BytesSent, st.ReceiveWaits)
}
