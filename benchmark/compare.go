package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Same-code agreement and regression check between two result files.
// For each (end-to-end metric, workload) the second file's median is
// held against the first's: "regressed" when it is worse by more than
// the metric's bound, "unresolved" when either median's own spread is
// wider than the bound, so that the comparison cannot tell, "ok"
// otherwise. A workload
// or metric of the first file that the second lacks is "missing", which
// fails the comparison as a regression does; a workload either file
// declares skipped is left out.

type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
	missing    verdict = "missing"
)

// worse is how much worse b is than a as a share of a; negative when b
// is better.
func worse(better string, a, b float64) float64 {
	if better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// medianSpread is the distance between the quartiles a metric's median
// would show over runs like this one, as a share of the median: the
// samples' own inter-quartile range times 1.25/sqrt(n), which is what
// the median of n independent samples keeps of it. The samples' range
// itself says how much single repetitions differ, not how far the
// reported median can be trusted, and grows as repetitions get shorter.
func medianSpread(m metricResult) float64 {
	return ratio(1.25*(m.Q3-m.Q1), math.Sqrt(float64(m.N))*m.Median)
}

func judge(a, b metricResult) verdict {
	spread := max(medianSpread(a), medianSpread(b))
	if spread > a.Bound {
		// Too noisy to tell — unless every reading of b is better than
		// every reading of a.
		if a.Better == higher && slices.Min(b.Samples) > slices.Max(a.Samples) ||
			a.Better == lower && slices.Max(b.Samples) < slices.Min(a.Samples) {
			return ok
		}
		return unresolved
	}
	if worse(a.Better, a.Median, b.Median) > a.Bound {
		return regressed
	}
	return ok
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n\n", pathA, a.Env.Commit, a.Seed, pathB, b.Env.Commit, b.Seed)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s %9s %8s %9s %7s  %s\n",
		"workload", "metric", "median a", "median b", "iqr a", "iqr b", "spread", "worse by", "bound", "verdict")
	counts := map[verdict]int{}
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(wb workloadResult) bool { return wb.Workload == wa.Workload })
		if i < 0 {
			counts[missing]++
			fmt.Fprintf(w, "%-16s %89s  %s\n", wa.Workload, "", missing)
			continue
		}
		wb := b.Workloads[i]
		if wa.Skipped != "" || wb.Skipped != "" {
			continue
		}
		for _, ma := range wa.Metrics {
			if ma.Kind != "end_to_end" {
				continue
			}
			j := slices.IndexFunc(wb.Metrics, func(mb metricResult) bool { return mb.Name == ma.Name })
			if j < 0 {
				counts[missing]++
				fmt.Fprintf(w, "%-16s %-16s %12.6g %59s  %s\n", wa.Workload, ma.Name, ma.Median, "", missing)
				continue
			}
			mb := wb.Metrics[j]
			v := judge(ma, mb)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %9.3g %9.3g %7.1f%% %8.1f%% %6.0f%%  %s\n",
				wa.Workload, ma.Name, ma.Median, mb.Median, ma.Q3-ma.Q1, mb.Q3-mb.Q1,
				100*max(medianSpread(ma), medianSpread(mb)), 100*worse(ma.Better, ma.Median, mb.Median), 100*ma.Bound, v)
		}
		// failed_ratio has no bound: any increase is a regression.
		v := ok
		if wb.FailedRatio > wa.FailedRatio {
			v = regressed
		}
		counts[v]++
		fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %9s %9s %8s %9s %7s  %s\n",
			wa.Workload, "failed_ratio", wa.FailedRatio, wb.FailedRatio, "", "", "", "", "any", v)
	}
	fmt.Fprintf(w, "\n%d ok, %d regressed, %d unresolved, %d missing\n", counts[ok], counts[regressed], counts[unresolved], counts[missing])
	if counts[regressed] > 0 || counts[missing] > 0 {
		return fmt.Errorf("%d metrics regressed, %d missing from %s", counts[regressed], counts[missing], pathB)
	}
	return nil
}
