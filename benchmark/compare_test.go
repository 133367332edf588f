package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	m := func(better string, samples ...float64) metricResult {
		return newMetric(metricSpec{name: "m", better: better, bound: 0.10}, "end_to_end", samples)
	}
	for _, c := range []struct {
		name string
		a, b metricResult
		want verdict
	}{
		{"same", m(higher, 100, 101, 102), m(higher, 100, 101, 102), ok},
		{"better", m(higher, 100, 101, 102), m(higher, 150, 151, 152), ok},
		{"slightly worse", m(higher, 100, 101, 102), m(higher, 95, 96, 97), ok},
		{"throughput down by a fifth", m(higher, 100, 101, 102), m(higher, 80, 81, 82), regressed},
		{"latency up by a fifth", m(lower, 100, 101, 102), m(lower, 120, 121, 122), regressed},
		{"latency down", m(lower, 100, 101, 102), m(lower, 80, 81, 82), ok},
		{"too noisy to tell", m(higher, 80, 100, 120), m(higher, 70, 90, 110), unresolved},
		{"noisy but every reading better", m(higher, 80, 100, 120), m(higher, 130, 160, 190), ok},
	} {
		if got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A second file that lost a workload or a metric fails the comparison;
// a workload declared skipped does not.
func TestCompareReportsMissing(t *testing.T) {
	m := newMetric(metricSpec{name: "msgs_per_s", better: higher, bound: 0.25}, "end_to_end", []float64{100, 101, 102})
	full := resultFile{Workloads: []workloadResult{
		{Workload: "stream_64", Metrics: []metricResult{m}},
		{Workload: "xproc_1k", Skipped: "no shared-segment backend"},
	}}
	for _, c := range []struct {
		name    string
		b       resultFile
		missing bool
	}{
		{"same", full, false},
		{"workload lost", resultFile{Workloads: full.Workloads[1:]}, true},
		{"metric lost", resultFile{Workloads: []workloadResult{{Workload: "stream_64"}, full.Workloads[1]}}, true},
	} {
		dir := t.TempDir()
		pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
		if err := writeJSON(pa, full); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(pb, c.b); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := compareFiles(&out, pa, pb)
		if (err != nil) != c.missing || strings.Contains(out.String(), ", 1 missing\n") != c.missing {
			t.Errorf("%s: err %v, output\n%s", c.name, err, out.String())
		}
	}
}
