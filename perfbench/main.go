// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the entry points users call — core.Optimize
// (what aedb-mls runs), nsga2.Optimize and tuneserver.Server.Create —
// checks the outputs, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured without
// tracing); with -trace 1 they are the per-layer ones, measured by
// timing calls into each layer's public functions from outside, and the
// spans are written to <out>/trace-<workload>-<seed>.json. A failed
// correctness check prints no metrics and exits 1.
//
// Usage (from the repository root, building first):
//
//	bash perfbench/run.sh --workload mls-d300 --seed 1 --seconds 35 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is what a workload runs with.
type bench struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	out     string    // directory for traces and temporary checkpoints
	rec     *recorder // nil for the untraced (end-to-end) run
	exp     *expected
}

// outcome is what a workload hands back: its metrics, its operation
// count and lines of detail (tail percentiles, sample counts) for the
// human-readable table.
type outcome struct {
	metrics metricSet
	ops     opCount
	notes   []string
}

type workload struct {
	name string
	run  func(*bench) (*outcome, error)
}

var workloads = []workload{
	{"mls-d300", runMLS},
	{"moea-d100", runMOEA},
	{"service-sweep", runService},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mls-d300, moea-d100 or service-sweep")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 35, "measuring time of the repeated workloads, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for traces and temporary files")
	child := fs.Bool("sweep-child", false, "run one untraced service sweep and print it as JSON (service-sweep runs its sweeps this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*child && (w.name != "service-sweep" || *trace != 0)) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b, err := newBench(*seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err == nil {
		if *child {
			err = sweepChild(b, stdout)
		} else {
			err = runWorkload(w, b, stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func newBench(seed uint64, seconds time.Duration, traced bool, out string) (*bench, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("output directory: %w", err)
	}
	b := &bench{seed: seed, seconds: seconds, nproc: limitProcs(), out: out, exp: exp}
	if traced {
		b.rec = newRecorder()
	}
	return b, nil
}

func runWorkload(w *workload, b *bench, stdout io.Writer) error {
	o, err := w.run(b)
	if err != nil {
		return err
	}
	if o.ops.Failed != 0 {
		return fmt.Errorf("%d of %d operations failed", o.ops.Failed, o.ops.Attempted)
	}
	want := endToEnd
	if b.rec != nil {
		want = perLayer
	}
	if err := checkMetrics(o.metrics, want); err != nil {
		return err
	}
	prov := provenanceOf(b.nproc)
	if b.rec != nil {
		path := filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.json", w.name, b.seed))
		if err := b.rec.write(path, prov, w.name, b.seed); err != nil {
			return err
		}
		o.notes = append(o.notes, "spans written to "+path)
	}
	return printReport(stdout, w.name, prov, o)
}

// limitProcs caps GOMAXPROCS at the CPUs this process may run on (the
// count nproc prints) and returns that count. Every worker pool the
// workloads size — MLS Populations x Workers, eval batch workers and the
// tuning service's trial workers — is sized from it, so the load never
// oversubscribes the machine: oversubscribed MLS goroutines show
// scheduling delays, not evaluation cost, in every latency figure.
func limitProcs() int {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	return n
}

// checkLoad refuses a worker count above the CPU count.
func checkLoad(what string, workers, nproc int) error {
	if workers < 1 || workers > nproc {
		return fmt.Errorf("load discipline: %s = %d, want 1..%d (nproc)", what, workers, nproc)
	}
	return nil
}

// checkMetrics verifies that exactly the declared metrics were produced,
// each with its declared unit.
func checkMetrics(got metricSet, want []metricDecl) error {
	if len(got) != len(want) {
		return fmt.Errorf("produced %d metrics, declared %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
	return nil
}

// provenance identifies the machine and toolchain a result came from.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func provenanceOf(nproc int) provenance {
	return provenance{
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable table, the provenance line and,
// last, the JSON result line.
func printReport(w io.Writer, name string, prov provenance, o *outcome) error {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s\n", name)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g (%d of %d operations failed)\n", "failed_frac", o.ops.frac(), o.ops.Failed, o.ops.Attempted)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	if o.ops.Attempted < 1 {
		return errors.New("no operations attempted")
	}
	rj, err := json.Marshal(report{Correct: true, Attempted: o.ops.Attempted, Failed: o.ops.Failed, Metrics: o.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rj)
	return err
}
