package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as xproc_1k's forked child.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	return out
}

// BENCHMARK.json and the tables in spec.go declare the same workloads
// and metrics, with the same units, directions and bounds.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the counts are fixed for %d", d.RunSeconds, refSeconds)
	}
	for i, w := range workloads {
		if i >= len(d.Workloads) || d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json and spec.go differ on %s", i, w.name)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in spec.go", len(d.Workloads), len(workloads))
	}
	check := func(kind string, got []declaredMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: declared %+v, spec.go has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer())

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range slices.Concat(d.EndToEnd, d.PerLayer) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// Every workload, at a thousandth of its counts and one repetition,
// emits exactly the metric names BENCHMARK.json declares — untraced the
// end-to-end ones, traced the per-layer ones — with nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	d := readDeclared(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(self, time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	metricName := func(m metricResult) string { return m.Name }
	declaredName := func(m declaredMetric) string { return m.Name }
	for _, dw := range d.Workloads {
		w := findWorkload(dw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the binary does not have", dw.Name)
			continue
		}
		if w.name == "xproc_1k" && testing.Short() {
			continue // forks a child
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, scale: 0.001, reps: 1, trace: traced, probes: probes, traceDir: t.TempDir()}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Errorf("%s (trace %v): %v", w.name, traced, err)
				continue
			}
			if res.Skipped != "" {
				t.Logf("%s: skipped: %s", w.name, res.Skipped)
				continue
			}
			want := names(d.EndToEnd, declaredName)
			if traced {
				want = names(d.PerLayer, declaredName)
			}
			if got := names(res.Metrics, metricName); !slices.Equal(got, want) {
				t.Errorf("%s (trace %v) emitted\n%v\nBENCHMARK.json declares\n%v", w.name, traced, got, want)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d failed of %d attempted", w.name, traced, res.Failed, res.Attempted)
			}
			var line bytes.Buffer
			if err := printResultLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct           *bool
				Attempted, Failed *int64
				Metrics           map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || parsed.Correct == nil || !*parsed.Correct ||
				parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(want) {
				t.Errorf("%s (trace %v): result line %s: %v", w.name, traced, line.String(), err)
			}
		}
	}
}

// api.go is the only file that reaches into the repository.
func TestOnlyAPIImportsTheRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "api.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"repro/`) {
				t.Errorf("%s imports %s; only api.go may import a repository package", f, imp.Path.Value)
			}
		}
	}
}

func TestTraceFlagTakesASeparateValue(t *testing.T) {
	got := normalise([]string{"--workload", "stream_64", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "stream_64", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("normalise = %v, want %v", got, want)
	}
	if got := normalise([]string{"-trace", "-out", "x"}); !slices.Equal(got, []string{"-trace", "-out", "x"}) {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}
