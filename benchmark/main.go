// Command benchmark is the repository's benchmark: six workloads,
// end-to-end metrics with bounds, a per-layer cost table and a traced
// run. See README.md.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace               every workload, per-layer metrics
//	go run ./benchmark -workload stream_64  one workload
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// watchdog is how long one workload's process may live: a lost message
// would otherwise leave a receiver parked for ever.
const watchdog = 170 * time.Second

func main() {
	if os.Getenv(idlerEnv) != "" {
		idlerMain()
	}
	if os.Getenv(workerEnv) != "" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	compare  bool
	probes   string // file of probe results, handed from the full run to its children
	child    bool   // run by the full run: no result line
}

// normalise lets -trace take its value as a separate argument
// ("--trace 1", as the driver passes it) as well as none or "=1".
func normalise(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a, i = a+"="+args[i+1], i+1
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, each in its own subprocess)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the payload pattern and the MMPP schedule")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "measuring time the fixed counts are scaled to (they are set for 10)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "directory for the span files (default: under the temporary directory)")
	fs.StringVar(&o.out, "out", "", "write the results to this JSON file")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: benchmark -compare a.json b.json")
	fs.StringVar(&o.probes, "probes", "", "read probe results from this file instead of timing them (set by the full run)")
	fs.BoolVar(&o.child, "child", false, "run by the full run: print no result line")
	if err := fs.Parse(normalise(args)); err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.traceOut == "" {
		o.traceOut = defaultTraceDir()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: readEnv(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	if !o.child { // a child of the full run measures under its parent's spinners
		file.Env.IdleSpin = "on"
		if err := startIdler(self); err != nil {
			file.Env.IdleSpin = "off: " + err.Error()
		}
		defer stopIdler()
		fmt.Fprintf(stdout, "mpf benchmark: seed %d, -seconds %g, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, idle spinners %s\n",
			o.seed, o.seconds, file.Env.NProc, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.Kernel, file.Env.Commit, file.Env.IdleSpin)
	}

	if o.workload == "" {
		err = runAll(&o, self, &file, stdout)
	} else {
		err = runOne(&o, self, &file, stdout)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		return writeJSON(o.out, file)
	}
	return nil
}

// runOne runs one workload in this process.
func runOne(o *options, self string, file *resultFile, stdout io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("no workload %q", o.workload)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v\n", w.name, watchdog)
		stopWorker()
		stopIdler()
		os.Exit(3)
	})
	cfg := runConfig{seed: o.seed, scale: o.seconds / refSeconds, trace: o.trace, traceDir: o.traceOut}
	if o.trace {
		var err error
		if cfg.probes, err = loadProbes(o, self); err != nil {
			return err
		}
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	file.Workloads = append(file.Workloads, res)
	printResult(stdout, res)
	if o.child || res.Skipped != "" {
		return nil
	}
	return printResultLine(stdout, res)
}

// runAll runs every workload, each in a subprocess of its own so that
// peak_rss_mb is the workload's. Probes are timed once, here.
func runAll(o *options, self string, file *resultFile, stdout io.Writer) error {
	tmp, err := os.MkdirTemp("", "mpf-benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	args := []string{"-child", "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace=" + strconv.FormatBool(o.trace), "-trace-out", o.traceOut}
	if o.trace {
		probes, err := runProbes(self, probeLoop, probeReps)
		if err != nil {
			return err
		}
		o.probes = filepath.Join(tmp, "probes.json")
		if err := writeJSON(o.probes, probes); err != nil {
			return err
		}
		args = append(args, "-probes", o.probes)
	}
	for _, w := range workloads {
		out := filepath.Join(tmp, w.name+".json")
		cmd := exec.Command(self, append(args, "-workload", w.name, "-out", out)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var one resultFile
		if err := readJSON(out, &one); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, one.Workloads...)
	}
	return nil
}

// loadProbes reads the probe table the full run timed, or times it.
func loadProbes(o *options, self string) ([]metricResult, error) {
	if o.probes == "" {
		return runProbes(self, probeLoop, probeReps)
	}
	var probes []metricResult
	return probes, readJSON(o.probes, &probes)
}

// printResultLine prints the line the driver reads: one JSON object,
// last on standard output.
func printResultLine(w io.Writer, r workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
