package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

const (
	// setupBuilds is how many cold committee builds a run times for
	// setup_s. One build varies by tens of percent between runs; the
	// median of this many is steady.
	setupBuilds = 15
	// minRuns is the fewest optimizer runs a measuring window holds, so
	// the study tail (ten samples beyond it) always exists.
	minRuns = 12
	// mlsCommittees is the size of mls-d300's committee pool.
	mlsCommittees = 8
	// probeVectors is how many evaluated vectors the traced run replays
	// through the manet probe, each on every committee scenario.
	probeVectors = 24
)

// seedStream derives a workload's inputs from the -seed argument, one
// stream per purpose so that adding draws to one never shifts another.
type seedStream struct{ r *rng.Rand }

func newSeeds(seed uint64, purpose string) *seedStream {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return &seedStream{r: rng.New(seed ^ h.Sum64())}
}

func (s *seedStream) next() uint64 { return s.r.Uint64() }

// probeVector is the fixed gene vector of a cold build's first Evaluate:
// the middle of the decision box.
func probeVector(p *eval.Problem) []float64 {
	lo, hi := p.Bounds()
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	return x
}

// coldBuild builds a problem and evaluates the probe vector once — the
// committee build a CLI run pays before its first search step (warm-up
// snapshots and beacon tapes are built lazily on first use).
func coldBuild(density int, seed uint64, opts ...eval.Option) (*eval.Problem, time.Duration, error) {
	start := time.Now()
	p := eval.NewProblem(density, seed, opts...)
	p.Evaluate(probeVector(p))
	d := time.Since(start)
	if err := p.WarmStartError(); err != nil {
		return nil, 0, err
	}
	if err := healthy(p.Health()); err != nil {
		return nil, 0, fmt.Errorf("probe evaluation: %w", err)
	}
	return p, d, nil
}

// coldBuilds times the setupBuilds cold committee builds behind
// setup_s, on seeds the process has not seen, cycling through densities.
// The builds are spread over the measuring phase rather than bunched at
// its start, so a slow patch of the machine lands on a few of them, not
// on all.
type coldBuilds struct {
	seeds     *seedStream
	densities []int
	durs      []float64
}

func newColdBuilds(b *bench, densities ...int) *coldBuilds {
	return &coldBuilds{seeds: newSeeds(b.seed, "setup"), densities: densities}
}

// upTo runs builds until n (at most setupBuilds) are done.
func (c *coldBuilds) upTo(n int) error {
	for len(c.durs) < min(n, setupBuilds) {
		_, d, err := coldBuild(c.densities[len(c.durs)%len(c.densities)], c.seeds.next())
		if err != nil {
			return fmt.Errorf("cold build: %w", err)
		}
		c.durs = append(c.durs, d.Seconds())
	}
	return nil
}

// healthy is the zero-failure gate on a problem's supervision counters.
func healthy(h eval.Health) error {
	if h.Failures != 0 || h.Panics != 0 || h.Errors != 0 || h.Timeouts != 0 {
		return fmt.Errorf("evaluation failures: %+v", h)
	}
	return nil
}

// checkFront is the per-front gate: study.AuditFront finds no dominated
// or otherwise anomalous survivor.
func checkFront(front []*moo.Solution) error {
	if an := study.AuditFront(front); len(an) != 0 {
		return fmt.Errorf("front audit: %d anomalies, first: %v", len(an), an[0])
	}
	return nil
}

// optRun is one finished optimizer run.
type optRun struct {
	front, population []*moo.Solution
	evals             int64
	gens              int
	arch              archive.Interface // the final stock archive of a traced MLS run
}

// optWorkload is a workload that repeats one fixed-budget optimizer run,
// each on a fresh Problem, for the measuring window.
type optWorkload struct {
	name      string
	algorithm string // checkpoint algorithm name for the study probe
	density   int
	threads   int   // goroutines calling into eval at once
	budget    int64 // full-committee evaluations per run
	callSpan  string
	opts      []eval.Option
	// seeds returns the problem and optimizer seed of the next run.
	seeds func() (problem, optimizer uint64)
	// optimize runs the optimizer; arch is nil untraced and a traced AGA
	// otherwise (optimizers that keep no archive ignore it).
	optimize func(p moo.Problem, seed uint64, arch archive.Interface) (optRun, error)
	// check is the workload's extra correctness gate on each run.
	check func(r optRun, hv float64) error
	// spec is the tuning-service spec the create probe registers.
	spec string
}

func runMLS(b *bench) (*outcome, error) {
	cfg := core.DefaultConfig()
	cfg.Populations = 1
	cfg.Workers = b.nproc
	cfg.EvalsPerWorker = 250 // the paper's per-thread budget
	cfg.Criteria = core.DefaultAEDBCriteria()
	cfg.NeighborhoodSize = 1
	if err := checkLoad("MLS Populations x Workers", cfg.Populations*cfg.Workers, b.nproc); err != nil {
		return nil, err
	}
	// Runs cycle through a fixed pool of committees (problem seeds
	// 1..mlsCommittees) and draw their optimizer seeds from -seed. Fixed
	// committees keep front_hv a measure of the search, not of which
	// networks were drawn, and keep the shared warm-up cache, and with it
	// the heap, the same size however many runs fit in the window.
	seeds := newSeeds(b.seed, "mls-d300")
	runs := 0
	w := &optWorkload{
		name:      "mls-d300",
		algorithm: core.AlgorithmName,
		density:   300,
		threads:   cfg.Populations * cfg.Workers,
		budget:    int64(cfg.Populations * cfg.Workers * cfg.EvalsPerWorker),
		callSpan:  "eval.evaluate",
		seeds: func() (uint64, uint64) {
			runs++
			return uint64(1 + (runs-1)%mlsCommittees), seeds.next()
		},
		optimize: func(p moo.Problem, seed uint64, arch archive.Interface) (optRun, error) {
			c := cfg
			c.Seed = seed
			res, err := core.Optimize(p, c, arch)
			if err != nil {
				return optRun{}, err
			}
			return optRun{front: res.Front, evals: res.Evaluations}, nil
		},
		check: func(optRun, float64) error { return nil },
		spec: fmt.Sprintf(`"algorithm":"mls","density":300,"populations":%d,"pop_workers":%d,"evals_per_worker":%d`,
			cfg.Populations, cfg.Workers, cfg.EvalsPerWorker),
	}
	return w.run(b)
}

// MOEA canonical inputs: moea-d100 is deterministic, so every run
// optimizes the same committee from the same seed and the gate compares
// each front with the recorded digest. The -seed argument drives the cold
// setup builds.
const (
	moeaProblemSeed   = 1
	moeaOptimizerSeed = 1
)

// moeaConfig is moea-d100's NSGA-II run: population 100 (the paper's
// MOEA setting) for 20 generations.
func moeaConfig() nsga2.Config {
	cfg := nsga2.DefaultConfig()
	cfg.PopSize = 100
	cfg.Evaluations = 2000
	cfg.Seed = moeaOptimizerSeed
	return cfg
}

func runMOEA(b *bench) (*outcome, error) {
	cfg := moeaConfig()
	w := &optWorkload{
		name:      "moea-d100",
		algorithm: nsga2.AlgorithmName,
		density:   100,
		threads:   1,
		budget:    int64(cfg.Evaluations),
		callSpan:  "eval.batch",
		opts:      []eval.Option{eval.WithBatchWorkers(b.nproc)},
		seeds:     func() (uint64, uint64) { return moeaProblemSeed, moeaOptimizerSeed },
		optimize: func(p moo.Problem, seed uint64, _ archive.Interface) (optRun, error) {
			c := cfg
			c.Seed = seed
			res, err := nsga2.Optimize(p, c)
			if err != nil {
				return optRun{}, err
			}
			return optRun{front: res.Front, population: res.Population, evals: res.Evaluations, gens: res.Generations}, nil
		},
		check: func(r optRun, hv float64) error {
			return checkGolden("moea-d100", b.exp.MOEA, frontDigest(r.front), hv)
		},
		spec: fmt.Sprintf(`"algorithm":"nsga2","density":100,"pop_size":%d,"evaluations":%d`, cfg.PopSize, cfg.Evaluations),
	}
	return w.run(b)
}

// repSample is what one optimizer run contributes.
type repSample struct {
	wall   float64 // seconds inside the optimizer call
	hv     float64
	evals  int64
	traced bool
	gens   int
	calls  []span // eval spans of a traced run
	adds   int64
	accept int64
	busy   time.Duration
}

func (w *optWorkload) run(b *bench) (*outcome, error) {
	ref, err := b.exp.hvRef(w.density)
	if err != nil {
		return nil, err
	}
	setup := newColdBuilds(b, w.density)
	o := &outcome{}
	root := b.rec.begin(0, "run")
	var (
		reps   []repSample
		health eval.Health // summed deltas over all runs
		last   struct {    // the latest traced run, for the probes
			problem *eval.Problem
			traced  *tracedProblem
			run     optRun
		}
		pSeed   uint64
		optSeed uint64
		began   = time.Now()
	)
	for i := 0; i < minRuns || time.Since(began) < b.seconds; i++ {
		if err := setup.upTo(1 + int(setupBuilds*time.Since(began)/b.seconds)); err != nil {
			return nil, err
		}
		// A traced run repeats the previous untraced run's seeds, so the
		// pair differs only by the tracing (and, for threaded MLS, by the
		// schedule).
		traced := b.rec != nil && i%2 == 1
		if !traced {
			pSeed, optSeed = w.seeds()
		}
		p, _, err := coldBuild(w.density, pSeed, w.opts...)
		if err != nil {
			return nil, err
		}
		h0 := p.Health()
		var prob moo.Problem = p
		var arch archive.Interface
		var tp *tracedProblem
		var ta *tracedArchive
		opt := 0
		if traced {
			opt = b.rec.begin(root, w.name+".optimize")
			tp = &tracedProblem{Problem: p, rec: b.rec, parent: opt}
			prob = tp
			if w.algorithm == core.AlgorithmName {
				// The AGA(ArchiveCapacity, GridDivisions) core.Optimize
				// builds itself when handed nil.
				c := core.DefaultConfig()
				ta = &tracedArchive{Interface: archive.NewAGA(c.ArchiveCapacity, c.GridDivisions)}
				arch = ta
			}
		}
		start := time.Now()
		r, err := w.optimize(prob, optSeed, arch)
		wall := time.Since(start)
		b.rec.end(opt)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		h := p.Health()
		evals := h.FullEvals - h0.FullEvals
		o.ops.add(evals, h.Failures-h0.Failures)
		if err := healthy(h); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		if r.evals != w.budget || evals != w.budget {
			return nil, fmt.Errorf("run %d: %d evaluations reported, %d counted by eval, budget %d", i, r.evals, evals, w.budget)
		}
		if len(r.front) == 0 {
			return nil, fmt.Errorf("run %d: empty front", i)
		}
		if err := checkFront(r.front); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		hv := frontHV(r.front, ref)
		if err := w.check(r, hv); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		health.Retries += h.Retries - h0.Retries
		health.SerialFallbacks += h.SerialFallbacks - h0.SerialFallbacks
		health.Failures += h.Failures - h0.Failures
		s := repSample{wall: wall.Seconds(), hv: hv, evals: evals, traced: traced, gens: r.gens}
		if traced {
			s.calls = b.rec.children(opt, w.callSpan)
			if ta != nil {
				s.adds, s.accept, s.busy = ta.adds.Load(), ta.accepted.Load(), time.Duration(ta.busy.Load())
				r.arch = ta.Interface
			}
			last.problem, last.traced, last.run = p, tp, r
		}
		reps = append(reps, s)
	}
	b.rec.end(root)
	if err := setup.upTo(setupBuilds); err != nil {
		return nil, err
	}
	if b.rec == nil {
		return w.endToEnd(o, reps, setup.durs)
	}
	if err := w.layers(b, o, reps, setup.durs, health); err != nil {
		return nil, err
	}
	probe := b.rec.begin(0, "probe")
	defer b.rec.end(probe)
	if err := probeManet(b, probe, o.metrics, last.problem, last.traced.evaluated(probeVectors)); err != nil {
		return nil, err
	}
	cp, err := runCheckpoint(w.algorithm, last.problem, last.run)
	if err != nil {
		return nil, err
	}
	if err := probeCheckpoints(b, probe, o.metrics, []*study.Checkpoint{cp}); err != nil {
		return nil, err
	}
	if err := probeCreate(b, probe, o.metrics, w.spec, pSeed); err != nil {
		return nil, err
	}
	return o, nil
}

// endToEnd fills the untraced run's metrics.
func (w *optWorkload) endToEnd(o *outcome, reps []repSample, setups []float64) (*outcome, error) {
	var walls, hvs []float64
	var evals int64
	for _, s := range reps {
		walls = append(walls, s.wall)
		hvs = append(hvs, s.hv)
		evals += s.evals
	}
	t, err := tailOf(walls)
	if err != nil {
		return nil, err
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	total := sum(walls)
	m := metricSet{}
	m.set("setup_s", median(setups))
	m.set("wall_s", total/float64(len(walls)))
	m.set("evals_per_s", float64(evals)/total)
	m.set("trials_per_s", float64(len(walls))/total)
	m.set("study_p50_s", median(walls))
	m.set("study_tail_s", t.Value)
	m.set("max_rss_mb", rss)
	// The mean, not the median: one run's hypervolume is spread between a
	// few stalled searches and many near the best, and the median of such
	// a mix moves with every seed.
	m.set("front_hv", mean(hvs))
	o.metrics = m
	o.notes = append(o.notes,
		fmt.Sprintf("%d optimizer runs of %d evaluations, %d threads; study_tail_s is %s", len(walls), w.budget, w.threads, t),
		fmt.Sprintf("setup_s is the median of %d cold committee builds", len(setups)))
	return o, nil
}

// layers fills the traced run's wrapper-measured metrics; the probes add
// the rest.
func (w *optWorkload) layers(b *bench, o *outcome, reps []repSample, setups []float64, health eval.Health) error {
	var tracedWalls, plainWalls, callMS []float64
	var calls, tracedEvals, adds, accepted int64
	var busyCalls, archBusy time.Duration
	var gens int
	for _, s := range reps {
		if !s.traced {
			plainWalls = append(plainWalls, s.wall)
			continue
		}
		tracedWalls = append(tracedWalls, s.wall)
		tracedEvals += s.evals
		gens += s.gens
		adds += s.adds
		accepted += s.accept
		archBusy += s.busy
		for _, c := range s.calls {
			calls++
			busyCalls += c.dur()
			callMS = append(callMS, float64(c.dur())/1e6)
		}
	}
	ct, err := tailOf(callMS)
	if err != nil {
		return fmt.Errorf("eval call tail: %w", err)
	}
	runs := float64(len(tracedWalls))
	tracedTotal := sum(tracedWalls)
	m := metricSet{}
	m.set("trace.overhead_frac", mean(tracedWalls)/mean(plainWalls)-1)
	m.set("eval.call_p50_ms", median(callMS))
	m.set("eval.call_tail_ms", ct.Value)
	m.set("eval.failures", float64(health.Failures))
	m.set("eval.retries", float64(health.Retries))
	m.set("eval.serial_fallbacks", float64(health.SerialFallbacks))
	m.set("setup.share_of_study", median(setups)/(median(setups)+median(plainWalls)))
	// A layer the workload never enters reports 0: moea-d100 never calls
	// core or archive, mls-d300 never runs NSGA-II.
	var coreBusy, coreCalls, coreEPC, archAdds, archRatio, archMS, selfPerGen float64
	if w.algorithm == core.AlgorithmName {
		coreBusy = busyCalls.Seconds() / (tracedTotal * float64(w.threads))
		coreCalls = float64(calls) / runs
		coreEPC = float64(tracedEvals) / float64(calls)
		archAdds = float64(adds) / runs
		archRatio = float64(accepted) / float64(adds)
		archMS = float64(archBusy) / 1e6 / runs
	} else {
		selfPerGen = (tracedTotal - busyCalls.Seconds()) * 1000 / float64(gens)
	}
	m.set("core.eval_busy_frac", coreBusy)
	m.set("core.calls", coreCalls)
	m.set("core.evals_per_call", coreEPC)
	m.set("archive.adds", archAdds)
	m.set("archive.accept_ratio", archRatio)
	m.set("archive.busy_ms", archMS)
	m.set("nsga2.self_ms_per_gen", selfPerGen)
	o.metrics = m
	o.notes = append(o.notes,
		fmt.Sprintf("%d traced and %d untraced runs; eval.call_tail_ms is %s", len(tracedWalls), len(plainWalls), ct))
	return nil
}

// runCheckpoint encodes a finished run's final state the way the
// optimizer's own checkpoints do: the elite archive for MLS, the final
// population for NSGA-II.
func runCheckpoint(algorithm string, p *eval.Problem, r optRun) (*study.Checkpoint, error) {
	cp := &study.Checkpoint{
		Algorithm:   algorithm,
		Fingerprint: study.ProblemFingerprint(p),
		Final:       true,
		Evaluations: r.evals,
		Iteration:   int64(r.gens),
	}
	if r.arch != nil {
		st, err := study.EncodeArchive(r.arch)
		if err != nil {
			return nil, fmt.Errorf("encode archive: %w", err)
		}
		cp.Archive = st
	} else {
		cp.Population = study.EncodeSolutions(r.population)
	}
	return cp, nil
}
