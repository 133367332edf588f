package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runConfig is how one workload is to be run.
type runConfig struct {
	seed  int64
	scale float64 // -seconds over refSeconds: multiplies the fixed counts
	reps  int     // 0: the workload's own number; the smoke test runs one
	trace bool
	// Traced run only: the probe table, and where the spans go.
	probes   []metricResult
	traceDir string
}

// spansPerUnit is the most spans a goroutine records per round trip,
// send, batch or bridge call pair; it sizes the trace's sampling.
const spansPerUnit = 4

// metricResult is one metric of one workload: the median of its
// samples — one per repetition, set-up or probe loop — with quartiles.
type metricResult struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"` // "end_to_end" or "per_layer"
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newMetric(spec metricSpec, kind string, samples []float64) metricResult {
	m := metricResult{Name: spec.name, Unit: spec.unit, Kind: kind, Better: spec.better, Bound: spec.bound,
		N: len(samples), Samples: samples}
	m.Q1, m.Median, m.Q3 = quartiles(samples)
	return m
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Workload    string         `json:"workload"`
	Skipped     string         `json:"skipped,omitempty"`
	Attempted   int64          `json:"attempted"`
	Failed      int64          `json:"failed"`
	FailedRatio float64        `json:"failed_ratio"`
	Disturbed   int            `json:"disturbed_repetitions"`
	TraceFile   string         `json:"trace_file,omitempty"`
	Metrics     []metricResult `json:"metrics"`
}

// sampleSet collects samples by metric name.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

// addEndToEnd records one repetition's end-to-end readings.
func (s sampleSet) addEndToEnd(r repResult) {
	slices.Sort(r.lat)
	s.add("msgs_per_s", ratio(float64(r.deliveries), r.wall.Seconds()))
	s.add("lat_p50_us", percentile(r.lat, 0.50)/1e3)
	s.add("cpu_s_per_mmsg", ratio(r.cpu.Seconds()*1e6, float64(r.deliveries)))
	s.add("peak_rss_mb", r.peakRSS)
}

// addCounters records one repetition's structural counts per message
// sent, the readings the workload took itself, and the latency tails,
// which are too unsteady to be end-to-end metrics. r.lat is sorted.
func (s sampleSet) addCounters(r repResult) {
	sends := float64(r.sends)
	s.add("shm.arena_locks_per_msg", ratio(float64(r.c.arenaLocks), sends))
	s.add("shm.arena_contended_ratio", ratio(float64(r.c.arenaContended), float64(r.c.arenaLocks)))
	s.add("shm.arena_waits_per_msg", ratio(float64(r.c.arenaWaits), sends))
	s.add("shm.ring_polls_per_msg", ratio(float64(r.c.ringPolls), sends))
	s.add("shm.futex_sleeps_per_msg", ratio(float64(r.c.futexSleeps), sends))
	s.add("shm.futex_wakes_per_msg", ratio(float64(r.c.futexWakes), sends))
	s.add("core.receive_waits_per_msg", ratio(float64(r.c.receiveWaits), sends))
	s.add("core.mux_wakeups_per_msg", ratio(float64(r.c.muxWakeups), sends))
	s.add("core.mux_spurious_ratio", ratio(float64(r.c.muxSpurious), float64(r.c.muxWakeups)))
	s.add("core.copies_per_msg", ratio(float64(r.c.copies), sends))
	s.add("core.registry_contended_ratio", ratio(float64(r.c.regContended), float64(r.c.regLocks)))
	for name, v := range r.layer {
		s.add(name, v)
	}
	s.add("tail.lat_p90_us", percentile(r.lat, 0.90)/1e3)
	s.add("tail.lat_p99_us", percentile(r.lat, 0.99)/1e3)
	s.add("tail.lat_p999_us", percentile(r.lat, 0.999)/1e3)
}

// runWorkload runs one workload: a discarded quarter-length warm-up,
// then the repetitions, each on a set-up of its own and each preceded
// by a few timed set-ups. An untraced run yields the end-to-end
// metrics, a traced run the per-layer ones.
//
// A repetition gets its own facility because a facility has a speed of
// its own: on fanout_1k repetitions on one facility agreed within 3 %
// while the facilities of successive processes differed by 25 %, so
// the median over repetitions on one of them told nothing about the
// next run. Set-ups are timed between repetitions, not all at the start,
// for the same reason: how long the scheduler takes to wake the second
// thread changes from one tenth of a second to the next.
func runWorkload(w *workload, cfg runConfig) (workloadResult, error) {
	res := workloadResult{Workload: w.name}
	samples := sampleSet{}
	var total tally
	finish := func(err error) (workloadResult, error) {
		res.Attempted, res.Failed, res.FailedRatio = total.attempted, total.failed, total.failedRatio()
		if err == nil {
			err = total.err
		}
		if err == nil && total.failed > 0 {
			err = fmt.Errorf("%d of %d messages failed", total.failed, total.attempted)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", w.name, err)
		}
		return res, err
	}

	// Each set-up draws its seed from the run's, so that the repetitions
	// of eventloop_mmpp do not all offer one schedule.
	seeds := rand.New(rand.NewSource(cfg.seed))
	// rep runs one repetition of k on a fresh set-up and tears it down.
	rep := func(k counts, tr *tracer) (repResult, error) {
		in, err := w.open(seeds.Int63())
		if err != nil {
			return repResult{}, err
		}
		runtime.GC() // the last repetition's facility, outside this one's time and peak
		resetPeakRSS()
		r, err := in.rep(k, tr)
		r.peakRSS = peakRSSMiB()
		total.add(r.tally)
		if cerr := in.close(); err == nil {
			err = cerr
		}
		return r, err
	}
	// setUps times fresh set-ups, each through its first verified
	// delivery. Half as many again come first and are not counted: the
	// first set-ups after a repetition are slower than the ones after
	// them.
	setUps := func() error {
		for i := -w.setups / 2; i < w.setups; i++ {
			runtime.GC() // no set-up pays for collecting the one before it
			t0 := time.Now()
			in, err := w.open(seeds.Int63())
			if err != nil {
				return err
			}
			r, err := in.rep(w.first, nil)
			if i >= 0 {
				samples.add("setup_s", time.Since(t0).Seconds())
			}
			total.add(r.tally)
			if cerr := in.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		return nil
	}
	k := w.ref.scale(cfg.scale)
	reps := w.reps
	if cfg.reps > 0 {
		reps = cfg.reps
	}

	run := func() error {
		if _, err := rep(k.scale(0.25), nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if !cfg.trace {
			for i := 0; i < reps; i++ {
				if err := setUps(); err != nil {
					return err
				}
				r, err := rep(k, nil)
				if err != nil {
					return fmt.Errorf("repetition %d: %w", i, err)
				}
				samples.addEndToEnd(r)
				if r.disturbed {
					res.Disturbed++
				}
			}
			return nil
		}
		// A traced run alternates untraced and traced repetitions, a
		// quarter as many of each as an untraced run has: with the probes
		// it then takes about as long.
		reps = (reps + 3) / 4
		tr := newTracer((k.thr + k.lat) * spansPerUnit * reps)
		traced := sampleSet{}
		for i := 0; i < reps; i++ {
			r, err := rep(k, nil)
			if err != nil {
				return fmt.Errorf("untraced repetition %d: %w", i, err)
			}
			samples.addEndToEnd(r)
			samples.addCounters(r)
			if r, err = rep(k, tr); err != nil {
				return fmt.Errorf("traced repetition %d: %w", i, err)
			}
			traced.addEndToEnd(r)
		}
		probes := map[string]float64{}
		for _, m := range cfg.probes {
			probes[m.Name] = m.Median
		}
		perDelivery := ratio(1e9, median(samples["msgs_per_s"]))
		path := w.pathNs(probes)
		samples.add("trace.residual_ratio", ratio(perDelivery-path, perDelivery))
		samples.add("trace.overhead_ratio", ratio(median(traced["msgs_per_s"]), median(samples["msgs_per_s"])))
		samples.add("core.wake_handoff_us", median(samples["lat_p50_us"])/w.latPaths-path/1e3)
		for i, ns := range tr.selfTimes() {
			samples.add("trace."+spanNames[i]+"_ns", ns)
		}
		var err error
		res.TraceFile, err = tr.write(cfg.traceDir, w.name)
		return err
	}
	if err := run(); err != nil {
		// A platform without shared segments skips xproc_1k; it does not
		// fail it.
		if noSharedBackend(err) {
			res.Skipped = err.Error()
			return res, nil
		}
		return finish(err)
	}

	if !cfg.trace {
		for _, spec := range endToEnd {
			res.Metrics = append(res.Metrics, newMetric(spec, "end_to_end", samples[spec.name]))
		}
		return finish(nil)
	}
	res.Metrics = append(res.Metrics, cfg.probes...)
	for _, spec := range perLayer()[len(cfg.probes):] {
		s := samples[spec.name]
		if s == nil {
			s = []float64{0} // does not apply to this workload
		}
		res.Metrics = append(res.Metrics, newMetric(spec, "per_layer", s))
	}
	return finish(nil)
}

// A probe is timed as probeReps loops of at least probeLoop each; the
// median is reported. The loops are a quarter of the 200 ms the issue
// asked for, so that the probes of a traced run of one workload — the
// driver's unit — fit the time such a run may take; the full run uses the
// same, so that the two give the same numbers.
const (
	probeLoop = 50 * time.Millisecond
	probeReps = 5
)

// runProbes times every probe: reps loops of about loop each, and
// appends the metrics derived from them.
func runProbes(self string, loop time.Duration, reps int) ([]metricResult, error) {
	var out []metricResult
	med := map[string]float64{}
	for _, p := range layerProbes(self) {
		var samples []float64
		for i := 0; i < reps; i++ {
			v, err := p.run(loop)
			if noSharedBackend(err) {
				v, err = 0, nil // no cross-process layer here to time
			}
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			samples = append(samples, v)
		}
		m := newMetric(metricSpec{name: p.name, unit: probeUnit(p.name), better: lower}, "per_layer", samples)
		med[p.name] = m.Median
		out = append(out, m)
	}
	derived := map[string]float64{
		"msg.copy_in_ns_per_kib":  (med["msg.build_release_16k_ns"] - med["msg.buildloan_release_16k_ns"]) / 16,
		"msg.copy_out_ns_per_kib": med["msg.extract_16k_ns"] / 16,
	}
	for _, spec := range probeDerived {
		out = append(out, newMetric(spec, "per_layer", []float64{derived[spec.name]}))
	}
	return out, nil
}

// printResult writes one workload's metrics as a table. Trace span
// rows carry the workload in their name, as later issues cite them.
func printResult(w io.Writer, r workloadResult) {
	if r.Skipped != "" {
		fmt.Fprintf(w, "\n%s: skipped (%s)\n", r.Workload, r.Skipped)
		return
	}
	fmt.Fprintf(w, "\n%s\n  %-34s %-8s %14s %14s %14s %4s\n", r.Workload, "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range r.Metrics {
		name := m.Name
		if rest, ok := strings.CutPrefix(name, "trace."); ok {
			name = "trace." + r.Workload + "." + rest
		}
		fmt.Fprintf(w, "  %-34s %-8s %14.6g %14.6g %14.6g %4d\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	fmt.Fprintf(w, "  %-34s %-8s %14.6g   (%d failed of %d attempted)\n", "failed_ratio", "ratio", r.FailedRatio, r.Failed, r.Attempted)
	if r.Disturbed > 0 {
		fmt.Fprintf(w, "  disturbed: the generator ran late (gen.lag_p99_us > %g) in %d repetitions\n", elDisturbedLagNs/1e3, r.Disturbed)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
}

// defaultTraceDir keeps spans out of the repository.
func defaultTraceDir() string { return os.TempDir() + "/mpf-benchmark-trace" }
