package main

// The benchmark's tables: workloads, end-to-end metrics, per-layer
// metrics. BENCHMARK.json at the root of the repository declares the
// same names; the smoke test holds the two together.

// refSeconds is the -seconds value the workloads' counts are fixed for.
const refSeconds = 10

// Message counts are fixed for the 2-core reference box, where a
// repetition lasts half a second to a second: a quarter of the issue's
// counts, four times its repetitions. What varies on this box varies
// between repetitions and between facilities, not within a repetition,
// so twenty short repetitions give a steadier median than five long ones
// in the same time.
var workloads = []workload{
	{
		name:     "pingpong_64",
		why:      "closed loop, one 64 B message in flight over two circuits: the receiver is always waiting, so wake-up and lock hand-off are most of the time",
		ref:      counts{thr: 500_000},
		first:    counts{thr: 1},
		reps:     20,
		setups:   10,
		latPaths: 2,
		pathNs: func(p map[string]float64) float64 {
			return p["mpf.send_tryrecv_64_ns"]
		},
		open: func(seed int64) (instance, error) { return openClosed(pingpong, 64, seed) },
	},
	{
		name:     "stream_64",
		why:      "1 sender to 1 FCFS receiver, 64 B, under the facility's own back-pressure: per-message fixed cost (circuit lock, two arena transactions, message build and release)",
		ref:      counts{thr: 500_000, lat: 12_500},
		first:    counts{lat: 1},
		reps:     20,
		setups:   10,
		latPaths: 1,
		pathNs: func(p map[string]float64) float64 {
			return p["mpf.send_tryrecv_64_ns"]
		},
		open: func(seed int64) (instance, error) { return openClosed(stream, 64, seed) },
	},
	{
		name:     "stream_16k",
		why:      "the same with 16 KiB payloads: per-byte cost, the paper's two structural copies plus a 257-block span allocation; fixed cost is under a tenth",
		ref:      counts{thr: 125_000, lat: 12_500},
		first:    counts{lat: 1},
		reps:     20,
		setups:   10,
		latPaths: 1,
		pathNs: func(p map[string]float64) float64 {
			return p["core.send_tryrecv_16k_ns"] + p["mpf.facade_overhead_64_ns"]
		},
		open: func(seed int64) (instance, error) { return openClosed(stream, 16<<10, seed) },
	},
	{
		name:     "fanout_1k",
		why:      "1 sender to one FCFS and one BROADCAST receiver on the same circuit, 1 KiB: private-head claims, Pending references, reclamation only after both heads have passed",
		ref:      counts{thr: 250_000, lat: 12_500},
		first:    counts{lat: 1},
		reps:     20,
		setups:   10,
		latPaths: 1,
		pathNs: func(p map[string]float64) float64 {
			return (p["core.fanout_send_recv2_1k_ns"] + p["mpf.facade_overhead_64_ns"]) / 2
		},
		open: func(seed int64) (instance, error) { return openClosed(fanout, 1<<10, seed) },
	},
	{
		name: "eventloop_mmpp",
		why:  "open loop: LoanBatch of 16 x 1 KiB over 8 circuits on a seeded MMPP schedule, drained by Selector.WaitViews(64): the batched zero-copy plane, parked-consumer wake latency and queueing behind bursts",
		// 750 k messages offered at the overload level and half a second
		// of the reference level, in batches.
		ref:      counts{thr: 750_000 / elBatch, lat: elReferenceRate / 2},
		first:    counts{lat: 1},
		reps:     16, // about a second each: sixteen fit the time a run may take
		setups:   10,
		latPaths: 1,
		pathNs: func(p map[string]float64) float64 {
			return p["core.loanbatch16_harvest_1k_ns"]
		},
		open: openEventloop,
	},
	{
		name:     "xproc_1k",
		why:      "parent and one forked child through a memfd segment, 1 KiB: loan and view on a segment-backed arena, two ring hops, futex post and wait; calls of 64 for throughput, calls of 1 for latency",
		ref:      counts{thr: 100, lat: 5_000},
		first:    counts{lat: 1},
		reps:     20,
		setups:   2, // each forks a child
		latPaths: 1,
		pathNs: func(p map[string]float64) float64 {
			return p["core.loan_view_1k_ns"] + 2*p["shm.xring_push_pop_ns"] + 2*p["shm.notify_post_idle_ns"]
		},
		open: openXProc,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec declares one metric. Bounds apply to end-to-end metrics:
// the share of the baseline's median by which the metric may worsen
// before -compare calls it a regression.
type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a program using the facility sees. failed_ratio, the
// eighth, is always 0 on an accepted run, so it is reported beside
// these (and as "failed"/"attempted" in the result line) rather than
// declared in BENCHMARK.json, whose metrics must never read 0.
var endToEnd = []metricSpec{
	{"msgs_per_s", "1/s", higher, 0.25},
	{"lat_p50_us", "us", lower, 0.25},
	{"cpu_s_per_mmsg", "s/Mmsg", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// probeDerived are the per-layer metrics computed from probes.
var probeDerived = []metricSpec{
	{name: "msg.copy_in_ns_per_kib", unit: "ns/KiB", better: lower},
	{name: "msg.copy_out_ns_per_kib", unit: "ns/KiB", better: lower},
}

// perWorkload are the per-layer metrics read off a workload's
// repetitions: counter deltas, the workload's own readings and the
// trace. A metric that does not apply to a workload reads 0 there.
var perWorkload = []metricSpec{
	{name: "shm.arena_locks_per_msg", unit: "count", better: lower},
	{name: "shm.arena_contended_ratio", unit: "ratio", better: lower},
	{name: "shm.arena_waits_per_msg", unit: "count", better: lower},
	{name: "shm.ring_polls_per_msg", unit: "count", better: lower},
	{name: "shm.futex_sleeps_per_msg", unit: "count", better: lower},
	{name: "shm.futex_wakes_per_msg", unit: "count", better: lower},
	{name: "core.receive_waits_per_msg", unit: "count", better: lower},
	{name: "core.mux_wakeups_per_msg", unit: "count", better: lower},
	{name: "core.mux_spurious_ratio", unit: "ratio", better: lower},
	{name: "core.views_per_harvest", unit: "count", better: higher},
	{name: "core.copies_per_msg", unit: "count", better: lower},
	{name: "core.registry_contended_ratio", unit: "ratio", better: lower},
	{name: "core.wake_handoff_us", unit: "us", better: lower},
	{name: "mpf.bridge_down_us", unit: "us", better: lower},
	{name: "mpf.bridge_up_us", unit: "us", better: lower},
	{name: "gen.lag_p50_us", unit: "us", better: lower},
	{name: "gen.lag_p99_us", unit: "us", better: lower},
	{name: "tail.lat_p90_us", unit: "us", better: lower},
	{name: "tail.lat_p99_us", unit: "us", better: lower},
	{name: "tail.lat_p999_us", unit: "us", better: lower},
	{name: "eventloop.backlog_max", unit: "count", better: lower},
	{name: "trace.residual_ratio", unit: "ratio", better: lower},
	{name: "trace.overhead_ratio", unit: "ratio", better: higher},
}

// probeUnit is the unit a probe's name ends in.
func probeUnit(name string) string {
	for _, u := range []string{"ns", "us", "ms"} {
		if len(name) > len(u) && name[len(name)-len(u)-1:] == "_"+u {
			return u
		}
	}
	return "count"
}

// perLayer lists every per-layer metric in the order it is printed:
// timed probes, the metrics derived from them, the per-workload
// readings and one self time per span name.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, p := range layerProbes("") {
		out = append(out, metricSpec{name: p.name, unit: probeUnit(p.name), better: lower})
	}
	out = append(out, probeDerived...)
	out = append(out, perWorkload...)
	for _, n := range spanNames {
		out = append(out, metricSpec{name: "trace." + n + "_ns", unit: "ns", better: lower})
	}
	return out
}
