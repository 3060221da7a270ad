package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// metricDecl names one reported metric and its unit. The two lists below
// are the benchmark's vocabulary: BENCHMARK.json declares the same names
// (TestMetricsMatchBenchmarkJSON keeps them in step), and later changes
// cite them.
type metricDecl struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run. Every workload reports
// every one; README.md gives each one's meaning per workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"evals_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"study_p50_s", "s"},
	{"study_tail_s", "s"},
	{"max_rss_mb", "MB"},
	{"front_hv", "hv"},
}

// perLayer are the metrics of the traced run. A layer the workload never
// enters reports 0 (core and archive on moea-d100, for instance).
var perLayer = []metricDecl{
	{"core.eval_busy_frac", "frac"},
	{"core.calls", "count"},
	{"core.evals_per_call", "count"},
	{"archive.adds", "count"},
	{"archive.accept_ratio", "frac"},
	{"archive.busy_ms", "ms"},
	{"nsga2.self_ms_per_gen", "ms"},
	{"eval.call_p50_ms", "ms"},
	{"eval.call_tail_ms", "ms"},
	{"eval.failures", "count"},
	{"eval.retries", "count"},
	{"eval.serial_fallbacks", "count"},
	{"manet.warmup_ms", "ms"},
	{"manet.tape_record_ms", "ms"},
	{"manet.tape_upserts", "count"},
	{"manet.mask_ms", "ms"},
	{"manet.instantiate_us", "us"},
	{"manet.cascade_us", "us"},
	{"manet.instantiate_share", "frac"},
	{"manet.forwards_per_cand", "count"},
	{"sim.events_per_cand", "count"},
	{"sim.events_per_s", "1/s"},
	{"tuneserver.create_ms", "ms"},
	{"study.save_ms", "ms"},
	{"study.load_ms", "ms"},
	{"study.ckpt_bytes", "bytes"},
	{"study.manifest_bytes", "bytes"},
	{"setup.share_of_study", "frac"},
	{"trace.overhead_frac", "frac"},
}

// metricSet collects a workload's figures, filling units from the
// declarations.
type metricSet map[string]metric

var declaredUnits = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

func (m metricSet) set(name string, v float64) {
	unit, ok := declaredUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// expected holds the recorded values the correctness gate compares
// against: the hypervolume reference point of each density and the
// golden front digests of the deterministic workloads.
type expected struct {
	// HVReference maps a density to the reference point front_hv is
	// measured against: (nodes x default TX power in dBm, 0, nodes) —
	// no feasible AEDB outcome can reach it, since at most every node
	// transmits once at full power, coverage is non-negative and at most
	// every node forwards.
	HVReference map[string][]float64 `json:"hv_reference"`
	MOEA        golden               `json:"moea-d100"`
	Service     golden               `json:"service-sweep"`
}

// golden is one deterministic workload's recorded outcome.
type golden struct {
	Digest  string  `json:"digest"`
	FrontHV float64 `json:"front_hv"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// hvRef returns the reference point of a density.
func (e *expected) hvRef(density int) ([]float64, error) {
	ref, ok := e.HVReference[fmt.Sprint(density)]
	if !ok || len(ref) != 3 {
		return nil, fmt.Errorf("expected.json: no 3-objective hv_reference for density %d", density)
	}
	return ref, nil
}

// checkGolden compares a deterministic outcome with its recording.
func checkGolden(what string, g golden, digest string, hv float64) error {
	if digest != g.Digest || hv != g.FrontHV {
		return fmt.Errorf("%s: front digest %s hv %v, recorded %s hv %v", what, digest, hv, g.Digest, g.FrontHV)
	}
	return nil
}
