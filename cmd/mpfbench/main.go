// Command mpfbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	mpfbench [-fig N] [-mode simulated|native|both] [-quick]
//	mpfbench -ablate schemes|blocksize|lockcost|paradigm [-quick]
//
// With no -fig it regenerates all six result figures (3-8). Simulated
// mode replays the MPF protocol on the Balance 21000 machine model and
// reports throughput and speedup at the paper's absolute scale; native
// mode runs the real implementation on the host.
//
// -ablate runs one of the simulated ablations instead: the restricted
// schemes the paper's §5 proposes, the block-size sweep behind Figure 3,
// the lock-cost explanation of Figure 4, and shared memory against
// message passing.
//
// This command reproduces the paper. How fast the facility is on this
// host is measured by the repository benchmark, bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/stats"
)

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate: 3..8 or 'all'")
	modeFlag := flag.String("mode", "simulated", "substrate: simulated, native or both")
	quick := flag.Bool("quick", false, "smaller sweeps (≈10× faster, same shapes)")
	ablate := flag.String("ablate", "", "ablation study instead of figures: schemes, blocksize, lockcost or paradigm")
	flag.Parse()

	if *ablate != "" {
		cfg := bench.Config{Mode: bench.Simulated, Quick: *quick}
		var (
			fig *stats.Figure
			err error
		)
		switch strings.ToLower(*ablate) {
		case "schemes":
			fig = bench.AblationSchemes(cfg)
		case "blocksize":
			fig, err = bench.AblationBlockSize(cfg)
		case "lockcost":
			fig, err = bench.AblationLockCost(cfg)
		case "paradigm":
			fig, err = bench.AblationParadigm(cfg)
		default:
			fmt.Fprintf(os.Stderr, "mpfbench: unknown ablation %q\n", *ablate)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: ablation %s: %v\n", *ablate, err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		return
	}

	var modes []bench.Mode
	switch strings.ToLower(*modeFlag) {
	case "simulated", "sim":
		modes = []bench.Mode{bench.Simulated}
	case "native":
		modes = []bench.Mode{bench.Native}
	case "both":
		modes = []bench.Mode{bench.Simulated, bench.Native}
	default:
		fmt.Fprintf(os.Stderr, "mpfbench: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	var figs []int
	if *figFlag == "all" {
		figs = []int{3, 4, 5, 6, 7, 8}
	} else {
		n, err := strconv.Atoi(*figFlag)
		if err != nil || n < 3 || n > 8 {
			fmt.Fprintf(os.Stderr, "mpfbench: -fig must be 3..8 or 'all', got %q\n", *figFlag)
			os.Exit(2)
		}
		figs = []int{n}
	}

	generators := map[int]func(bench.Config) (*stats.Figure, error){
		3: bench.Fig3, 4: bench.Fig4, 5: bench.Fig5,
		6: bench.Fig6, 7: bench.Fig7, 8: bench.Fig8,
	}

	for _, mode := range modes {
		for _, n := range figs {
			cfg := bench.Config{Mode: mode, Quick: *quick}
			fig, err := generators[n](cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpfbench: figure %d (%s): %v\n", n, mode, err)
				os.Exit(1)
			}
			fmt.Println(fig.Render())
		}
	}
}
