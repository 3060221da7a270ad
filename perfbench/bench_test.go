package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/study"
)

// TestTracedMOEAMatchesUntraced is the tracing transparency check: the
// traced wrapper must forward EvaluateBatch (or moo.EvaluateAll falls
// back to serial Evaluate calls) and Fingerprint (or study fingerprints
// change), so a traced moea-d100 run gives the same front, the same
// evaluation count and the same fingerprint as an untraced one — and
// both match the recorded golden.
func TestTracedMOEAMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs moea-d100 twice")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exp.hvRef(100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := moeaConfig()

	plain := eval.NewProblem(100, moeaProblemSeed, eval.WithBatchWorkers(2))
	pres, err := nsga2.Optimize(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec := newRecorder()
	bare := eval.NewProblem(100, moeaProblemSeed, eval.WithBatchWorkers(2))
	traced := &tracedProblem{Problem: bare, rec: rec, parent: rec.begin(0, "moea-d100.optimize")}
	tres, err := nsga2.Optimize(traced, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if pd, td := frontDigest(pres.Front), frontDigest(tres.Front); pd != td {
		t.Fatalf("traced front digest %s, untraced %s", td, pd)
	}
	if pres.Evaluations != tres.Evaluations || plain.Health().FullEvals != bare.Health().FullEvals {
		t.Fatalf("evaluations: untraced %d (eval %d), traced %d (eval %d)",
			pres.Evaluations, plain.Health().FullEvals, tres.Evaluations, bare.Health().FullEvals)
	}
	if study.ProblemFingerprint(traced) != study.ProblemFingerprint(plain) {
		t.Fatalf("tracing changed the problem fingerprint")
	}
	if err := checkGolden("moea-d100", exp.MOEA, frontDigest(tres.Front), frontHV(tres.Front, ref)); err != nil {
		t.Fatal(err)
	}
	// Every evaluation went through batches: one span per generation
	// wave, none through the serial fallback.
	if n := len(rec.children(1, "eval.batch")); n != tres.Generations+1 {
		t.Fatalf("%d eval.batch spans for %d generations", n, tres.Generations)
	}
	if n := len(rec.children(1, "eval.evaluate")); n != 0 {
		t.Fatalf("%d serial eval.evaluate spans: EvaluateBatch was not forwarded", n)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metric lists in step
// with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []metricDecl, got []struct{ Name, Unit string }) {
		if len(decl) != len(got) {
			t.Fatalf("%s: %d declared in code, %d in BENCHMARK.json", kind, len(decl), len(got))
		}
		for i := range decl {
			if decl[i].name != got[i].Name || decl[i].unit != got[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", kind, i, decl[i].name, decl[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestLoadDiscipline(t *testing.T) {
	n := limitProcs()
	if err := checkLoad("workers", n, n); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, n + 1} {
		if err := checkLoad("workers", w, n); err == nil {
			t.Errorf("%d workers on %d CPUs accepted", w, n)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mls-d300", "--trace", "2"},
		{"--workload", "mls-d300", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestFailedCheckPrintsNoResult corrupts the recorded moea-d100 digest:
// the run must exit non-zero without printing a result line.
func TestFailedCheckPrintsNoResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the moea-d100 setup phase")
	}
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	expectedJSON = bytes.Replace(saved, []byte(`"digest": "d`), []byte(`"digest": "0`), 1)
	if bytes.Equal(saved, expectedJSON) {
		t.Fatal("corruption did not apply")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "moea-d100", "--seconds", "1", "--out", t.TempDir()}, &out, &errb)
	if code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("exit %d with output %q", code, out.String())
	}
	if !strings.Contains(errb.String(), "front digest") {
		t.Fatalf("stderr %q does not name the failed check", errb.String())
	}
}

// TestTraceRecorder checks span bookkeeping: parents, ends, lookup.
func TestTraceRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin(0, "x"); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	none.end(0)
	r := newRecorder()
	root := r.begin(0, "run")
	child := r.add(root, "eval.batch", 10, 10+int64(time.Millisecond))
	r.end(root)
	if got := r.children(root, "eval.batch"); len(got) != 1 || got[0].ID != child || got[0].dur() != time.Millisecond {
		t.Fatalf("children %+v", got)
	}
	if s := r.spans[root-1]; s.End < s.Start || s.Parent != 0 {
		t.Fatalf("root span %+v", s)
	}
}

// TestTracedMLSConcurrent drives the wrappers from threaded MLS, whose
// workers call Evaluate and reach the archive concurrently: every
// evaluation gets exactly one span and every archive offer is counted.
func TestTracedMLSConcurrent(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Criteria = core.DefaultAEDBCriteria()
	rec := newRecorder()
	p := eval.NewProblem(100, 3, eval.WithCommittee(2))
	tp := &tracedProblem{Problem: p, rec: rec, parent: rec.begin(0, "mls.optimize")}
	ta := &tracedArchive{Interface: archive.NewAGA(cfg.ArchiveCapacity, cfg.GridDivisions)}
	res, err := core.Optimize(tp, cfg, ta)
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(rec.children(1, "eval.evaluate"))); n != res.Evaluations {
		t.Fatalf("%d eval spans for %d evaluations", n, res.Evaluations)
	}
	if ta.adds.Load() == 0 || ta.accepted.Load() > ta.adds.Load() {
		t.Fatalf("archive counters: %d adds, %d accepted", ta.adds.Load(), ta.accepted.Load())
	}
	if got := len(tp.evaluated(probeVectors)); got != probeVectors {
		t.Fatalf("%d sampled vectors, want %d", got, probeVectors)
	}
}
