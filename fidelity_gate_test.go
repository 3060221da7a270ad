// Regret gate for the multi-fidelity evaluation ladder (ISSUE 9
// acceptance): for AEDB-MLS and NSGA-II at densities 100 and 300,
// ladder-enabled runs must land within the run-to-run noise band of the
// full-fidelity baseline on hypervolume and spread (paired over five
// seeds), report fronts holding ONLY full-fidelity metrics, and spend at
// least 2x fewer full-committee evaluations. Fidelity-off bit-identity
// to the golden corpus is enforced separately by the eval package's
// TestGoldenMetricsEngineMatrix.
package aedbmls_test

import (
	"math"
	"testing"

	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/indicators"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
)

// gateFidelity is the screening rung the gate runs: a one-scenario
// committee prefix at half the broadcast horizon.
var gateFidelity = eval.Fidelity{Committee: 1, Horizon: 0.5}

// gateProblemSeed freezes the committee; optimizer seeds vary per run.
const gateProblemSeed = 42

// gateRun executes one optimizer run and returns its front and the
// problem's full-fidelity evaluation count.
func gateRun(t *testing.T, alg string, density int, seed uint64, ladder bool) ([]*moo.Solution, int64) {
	t.Helper()
	opts := []eval.Option{eval.WithCommittee(3)}
	if ladder {
		opts = append(opts, eval.WithFidelity(gateFidelity))
	}
	p := eval.NewProblem(density, gateProblemSeed, opts...)
	var front []*moo.Solution
	switch alg {
	case "mls":
		cfg := core.DefaultConfig()
		cfg.Populations, cfg.Workers, cfg.EvalsPerWorker = 2, 2, 30
		cfg.ResetPeriod, cfg.NeighborhoodSize = 6, 4
		cfg.Criteria = core.DefaultAEDBCriteria()
		cfg.Seed = seed
		res, err := core.OptimizeSequential(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		front = res.Front
	case "nsga2":
		cfg := nsga2.DefaultConfig()
		cfg.PopSize, cfg.Evaluations, cfg.Seed = 8, 96, seed
		res, err := nsga2.Optimize(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		front = res.Front
	default:
		t.Fatalf("unknown algorithm %q", alg)
	}
	return front, p.Health().FullEvals
}

func points(front []*moo.Solution) []indicators.Point {
	pts := make([]indicators.Point, 0, len(front))
	for _, s := range front {
		pts = append(pts, append([]float64(nil), s.F...))
	}
	return pts
}

func minMaxMean(v []float64) (lo, hi, mean float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
		mean += x
	}
	return lo, hi, mean / float64(len(v))
}

// assertFullFidelityFront checks every reported solution is admissible
// and that a fresh ladder-free serial evaluation of its gene vector
// reproduces its objectives and violation bit for bit — the "final
// archive contains only full-fidelity metrics" invariant.
func assertFullFidelityFront(t *testing.T, name string, density int, front []*moo.Solution) {
	t.Helper()
	p := eval.NewProblem(density, gateProblemSeed, eval.WithCommittee(3))
	for i, s := range front {
		if !s.Admissible() {
			t.Fatalf("%s: front[%d] inadmissible (Stopped=%v Screened=%v)", name, i, s.Stopped, s.Screened)
		}
		f, viol, _ := p.Evaluate(s.X)
		for k := range f {
			if f[k] != s.F[k] {
				t.Fatalf("%s: front[%d].F[%d] = %x, full-fidelity re-evaluation %x — a screening estimate leaked into the front",
					name, i, k, s.F[k], f[k])
			}
		}
		if viol != s.Violation {
			t.Fatalf("%s: front[%d] violation %x, full-fidelity re-evaluation %x", name, i, s.Violation, viol)
		}
	}
}

// TestFidelityLadderRegretGate is the committed acceptance gate; see the
// file comment. The noise band is the baseline's observed cross-seed
// [min, max] widened by half its range plus a 0.05 floor — a ladder mean
// outside that band is a real regression, not seed noise.
func TestFidelityLadderRegretGate(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	densities := []int{100, 300}
	algs := []string{"mls", "nsga2"}
	if testing.Short() {
		densities = []int{100}
		algs = []string{"mls"}
	}
	for _, alg := range algs {
		for _, density := range densities {
			var fullBase, fullLadder int64
			var baseFronts, ladderFronts [][]indicators.Point
			var all []indicators.Point
			for _, seed := range seeds {
				bf, bn := gateRun(t, alg, density, seed, false)
				lf, ln := gateRun(t, alg, density, seed, true)
				name := alg
				assertFullFidelityFront(t, name+"-ladder", density, lf)
				fullBase += bn
				fullLadder += ln
				baseFronts = append(baseFronts, points(bf))
				ladderFronts = append(ladderFronts, points(lf))
				all = append(all, points(bf)...)
				all = append(all, points(lf)...)
			}

			// Throughput: >= 2x fewer full-committee evaluations.
			if fullLadder*2 > fullBase {
				t.Errorf("%s d%d: full-committee evaluations %d -> %d (%.2fx), want >= 2x",
					alg, density, fullBase, fullLadder, float64(fullBase)/float64(fullLadder))
			}

			// Quality: paired indicator means inside the baseline band.
			var hvB, hvL, spB, spL []float64
			for i := range baseFronts {
				hvB = append(hvB, indicators.HypervolumeNormalized(baseFronts[i], all))
				hvL = append(hvL, indicators.HypervolumeNormalized(ladderFronts[i], all))
				spB = append(spB, indicators.Spread(baseFronts[i], all))
				spL = append(spL, indicators.Spread(ladderFronts[i], all))
			}
			check := func(kind string, base, ladder []float64) {
				lo, hi, _ := minMaxMean(base)
				_, _, got := minMaxMean(ladder)
				w := (hi-lo)/2 + 0.05
				if got < lo-w || got > hi+w {
					t.Errorf("%s d%d: ladder mean %s %.4f outside baseline noise band [%.4f, %.4f] (runs %v vs %v)",
						alg, density, kind, got, lo-w, hi+w, base, ladder)
				}
			}
			check("hypervolume", hvB, hvL)
			check("spread", spB, spL)
			t.Logf("%s d%d: full evals %d -> %d (%.2fx)", alg, density, fullBase, fullLadder,
				float64(fullBase)/float64(fullLadder))
		}
	}
}

// TestFidelityLadderSmoke is the quick single-seed d300 MLS arm
// scripts/bench.sh --smoke runs: it reports the full-committee
// evaluation ratio in a greppable line and gates only on "measurably
// fewer" (>= 1.3x), leaving the aggregate >= 2x bound to
// TestFidelityLadderRegretGate.
func TestFidelityLadderSmoke(t *testing.T) {
	_, base := gateRun(t, "mls", 300, 1, false)
	front, ladder := gateRun(t, "mls", 300, 1, true)
	assertFullFidelityFront(t, "smoke-ladder", 300, front)
	ratio := float64(base) / float64(ladder)
	t.Logf("fidelity-ladder-ratio: %.2f (full-committee evaluations %d -> %d, d300 MLS)", ratio, base, ladder)
	if ratio < 1.3 {
		t.Errorf("ladder saved too little: ratio %.2f < 1.3", ratio)
	}
}
