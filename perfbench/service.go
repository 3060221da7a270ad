package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/study"
	"aedbmls/internal/tuneserver"
)

// The service sweep's fixed budget: one study per (seed, density) for
// serviceSeeds canonical seeds. With the setupBuilds cold builds
// interleaved with it, a sweep touches setupBuilds+serviceSeeds
// committees, more than the 51 the shared warm-up cache holds (512
// snapshots of 10 scenarios), so its last seeds take the over-cap path
// and build locally. Each such study keeps its own snapshots and tapes
// for the server's lifetime, which is why the list is not longer.
const (
	serviceSeeds    = 44
	serviceSeedBase = 1000
	serviceTrials   = 2
	// Per-trial budgets: small, so committee build and study bookkeeping
	// dominate each study, as they do for short interactive studies.
	serviceMLSEvalsPerWorker = 5
	serviceNSGA2Pop          = 10
	serviceNSGA2Evals        = 20
)

var serviceDensities = []int{100, 200, 300}

// serviceStudy is one study of the sweep: its spec is a function of its
// place in the canonical list only, so every study's front is fixed and
// -seed only permutes the creation order.
type serviceStudy struct {
	Name      string  `json:"name"`
	Density   int     `json:"density"`
	Seed      uint64  `json:"seed"`
	MLS       bool    `json:"mls"`
	Evals     int64   `json:"evals"` // full-committee evaluations the study must spend
	CreatedMS float64 `json:"created_ms"`
	Latency   float64 `json:"latency_s"` // from Create to Done
	Traced    bool    `json:"traced"`
}

func newServiceStudy(j, di int) serviceStudy {
	s := serviceStudy{
		Name:    fmt.Sprintf("s%03d-d%d", j, serviceDensities[di]),
		Density: serviceDensities[di],
		Seed:    uint64(serviceSeedBase + j),
		MLS:     (j+di)%2 == 0, // consecutive studies alternate mls and nsga2
	}
	if s.MLS {
		s.Evals = serviceTrials * 2 * serviceMLSEvalsPerWorker
	} else {
		s.Evals = serviceTrials * serviceNSGA2Evals
	}
	return s
}

func (s serviceStudy) spec() string {
	if s.MLS {
		return fmt.Sprintf(`{"name":%q,"algorithm":"mls","density":%d,"seed":%d,"trials":%d,"populations":1,"pop_workers":2,"evals_per_worker":%d}`,
			s.Name, s.Density, s.Seed, serviceTrials, serviceMLSEvalsPerWorker)
	}
	return fmt.Sprintf(`{"name":%q,"algorithm":"nsga2","density":%d,"seed":%d,"trials":%d,"pop_size":%d,"evaluations":%d}`,
		s.Name, s.Density, s.Seed, serviceTrials, serviceNSGA2Pop, serviceNSGA2Evals)
}

// sweepResult is one sweep's outcome; an untraced sweep runs in a child
// process and hands it back as JSON.
type sweepResult struct {
	Studies []serviceStudy `json:"studies"`
	Setups  []float64      `json:"setups"`
	FrontHV float64        `json:"front_hv"`
	Health  eval.Health    `json:"health"` // summed over studies
	RSSMB   float64        `json:"max_rss_mb"`

	fronts [][]*moo.Solution
	cps    []*study.Checkpoint // final checkpoints, kept when traced
	dir    string
}

// runService measures the service sweep. Untraced, it repeats the sweep
// in fresh child processes for the measuring window — the caches a sweep
// fills are process-wide, so a sweep is only repeatable in a new process
// — and reports medians over them. Traced, it runs one sweep in process
// and probes the layers.
func runService(b *bench) (*outcome, error) {
	if b.rec != nil {
		return serviceLayers(b)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	seeds := newSeeds(b.seed, "service-sweep-children")
	o := &outcome{}
	var sweeps []*sweepResult
	began := time.Now()
	var longest time.Duration
	// Start another sweep only if it should end inside the window, so the
	// run overshoots by at most the spread of sweep times.
	for len(sweeps) < 2 || time.Since(began)+longest < b.seconds {
		start := time.Now()
		r, err := childSweep(exe, b, seeds.next())
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(start))
		sweeps = append(sweeps, r)
	}
	var lat, setups, walls, rss []float64
	var evals, trials int64
	for _, r := range sweeps {
		var wall float64
		for _, s := range r.Studies {
			lat = append(lat, s.Latency)
			wall += s.Latency
			evals += s.Evals
			trials += serviceTrials
			o.ops.add(1, 0)
		}
		// A sweep's wall time is the time its client spent waiting on the
		// service; its own checks and the setup builds are left out.
		walls = append(walls, wall)
		setups = append(setups, r.Setups...)
		rss = append(rss, r.RSSMB)
	}
	t, err := tailOf(lat)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	m.set("setup_s", median(setups))
	m.set("wall_s", median(walls))
	m.set("evals_per_s", float64(evals)/sum(walls))
	m.set("trials_per_s", float64(trials)/sum(walls))
	m.set("study_p50_s", median(lat))
	m.set("study_tail_s", t.Value)
	m.set("max_rss_mb", median(rss))
	m.set("front_hv", sweeps[0].FrontHV)
	o.metrics = m
	o.notes = append(o.notes,
		fmt.Sprintf("%d sweeps of %d studies over %d seeds, one process each; study_tail_s is %s", len(sweeps), len(sweeps[0].Studies), serviceSeeds, t),
		fmt.Sprintf("setup_s is the median of %d cold committee builds", len(setups)))
	return o, nil
}

// childSweep runs one untraced sweep in a fresh process of this binary
// and waits for it.
func childSweep(exe string, b *bench, seed uint64) (*sweepResult, error) {
	cmd := exec.Command(exe, "--workload", "service-sweep", "--sweep-child",
		"--seed", fmt.Sprint(seed), "--out", b.out)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sweep process: %w", err)
	}
	var r sweepResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("sweep process output: %w", err)
	}
	return &r, nil
}

// sweepChild is the child-process side of childSweep: one sweep, its
// result as JSON on stdout.
func sweepChild(b *bench, stdout io.Writer) error {
	r, err := sweep(b)
	if err != nil {
		return err
	}
	if r.RSSMB, err = maxRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(r)
}

// sweep drives an in-process tuning service with one closed-loop client:
// create a study, wait for it to finish, create the next. The checkpoint
// directory is a scratch directory under the output directory, at the
// server's default save cadence; it is removed on return unless the sweep
// is traced, when the caller probes and removes it. Every study passes
// the correctness gate, and the fronts of all of them the golden check.
func sweep(b *bench) (*sweepResult, error) {
	dir, err := os.MkdirTemp(b.out, "service-")
	if err != nil {
		return nil, err
	}
	r := &sweepResult{dir: dir}
	if b.rec == nil {
		defer os.RemoveAll(dir)
	}
	srv, err := tuneserver.New(tuneserver.Options{Dir: dir, Workers: b.nproc})
	if err != nil {
		return r, err
	}
	defer srv.Close()

	setup := newColdBuilds(b, serviceDensities...)
	order := newSeeds(b.seed, "service-sweep").r.Perm(serviceSeeds)
	digests := map[string]string{}
	var hvs []float64
	root := b.rec.begin(0, "run")
	for g, j := range order {
		if err := setup.upTo(1 + g*setupBuilds/serviceSeeds); err != nil {
			return r, err
		}
		for di := range serviceDensities {
			s := newServiceStudy(j, di)
			// Traced runs trace every other pair of seed groups, so the
			// untraced groups give the overhead baseline under the same
			// cache history.
			s.Traced = b.rec != nil && g%4 >= 2
			rec := b.rec
			if !s.Traced {
				rec = nil
			}
			span := rec.begin(root, "tuneserver.study")
			start := time.Now()
			cspan := rec.begin(span, "tuneserver.create")
			st, err := srv.Create(strings.NewReader(s.spec()))
			rec.end(cspan)
			s.CreatedMS = float64(time.Since(start)) / 1e6
			if err != nil {
				return r, fmt.Errorf("create %s: %w", s.Name, err)
			}
			<-st.Done()
			s.Latency = time.Since(start).Seconds()
			rec.end(span)

			status := st.Status()
			if status.Status != tuneserver.StatusDone || status.Error != "" || healthy(status.Health) != nil {
				return r, fmt.Errorf("study %s ended %s (%s), health %+v", s.Name, status.Status, status.Error, status.Health)
			}
			if status.Evaluations != s.Evals || status.Health.FullEvals != s.Evals {
				return r, fmt.Errorf("study %s: %d evaluations merged, %d counted by eval, budget %d",
					s.Name, status.Evaluations, status.Health.FullEvals, s.Evals)
			}
			front := st.Front()
			if err := checkFront(front); err != nil {
				return r, fmt.Errorf("study %s: %w", s.Name, err)
			}
			ref, err := b.exp.hvRef(s.Density)
			if err != nil {
				return r, err
			}
			digests[s.Name] = frontDigest(front)
			hvs = append(hvs, frontHV(front, ref))
			r.Health.Retries += status.Health.Retries
			r.Health.SerialFallbacks += status.Health.SerialFallbacks
			r.Health.Failures += status.Health.Failures
			r.Studies = append(r.Studies, s)
			r.fronts = append(r.fronts, front)
		}
	}
	b.rec.end(root)
	if err := setup.upTo(setupBuilds); err != nil {
		return r, err
	}
	r.Setups = setup.durs
	r.FrontHV = median(hvs)
	if err := checkGolden("service-sweep", b.exp.Service, combineDigests(digests), r.FrontHV); err != nil {
		return r, err
	}
	if b.rec != nil {
		for _, s := range r.Studies {
			path, err := study.StudyPath(dir, s.Name)
			if err != nil {
				return r, err
			}
			cp, err := study.Load(path)
			if err != nil {
				return r, fmt.Errorf("final checkpoint of %s: %w", s.Name, err)
			}
			r.cps = append(r.cps, cp)
		}
	}
	return r, nil
}

// serviceLayers is the traced service run: one in-process sweep, then
// the probes on its real checkpoints, manifest and committees.
func serviceLayers(b *bench) (*outcome, error) {
	r, err := sweep(b)
	if r != nil {
		defer os.RemoveAll(r.dir)
	}
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var lat, plainLat, tracedLat, createMS []float64
	for _, s := range r.Studies {
		o.ops.add(1, 0)
		lat = append(lat, s.Latency)
		if s.Traced {
			tracedLat = append(tracedLat, s.Latency)
			createMS = append(createMS, s.CreatedMS)
		} else {
			plainLat = append(plainLat, s.Latency)
		}
	}
	m := metricSet{}
	m.set("eval.failures", float64(r.Health.Failures))
	m.set("eval.retries", float64(r.Health.Retries))
	m.set("eval.serial_fallbacks", float64(r.Health.SerialFallbacks))
	m.set("tuneserver.create_ms", median(createMS))
	m.set("setup.share_of_study", median(r.Setups)/(median(r.Setups)+median(lat)))
	m.set("trace.overhead_frac", mean(tracedLat)/mean(plainLat)-1)
	o.metrics = m

	probe := b.rec.begin(0, "probe")
	defer b.rec.end(probe)
	if err := probeTrials(b, probe, m, r); err != nil {
		return nil, err
	}
	first := r.Studies[len(serviceDensities)-1] // the d300 study of the first seed group
	p := eval.NewProblem(first.Density, first.Seed)
	if err := probeManet(b, probe, m, p, frontVectors(r.fronts, probeVectors)); err != nil {
		return nil, err
	}
	if err := probeCheckpoints(b, probe, m, r.cps); err != nil {
		return nil, err
	}
	size, err := fileSize(study.ManifestPath(r.dir))
	if err != nil {
		return nil, err
	}
	m.set("study.manifest_bytes", size)
	o.notes = append(o.notes, fmt.Sprintf("%d traced and %d untraced studies", len(tracedLat), len(plainLat)))
	return o, nil
}

// replayStudies is how many of the sweep's first studies the trial probe
// replays: four seed groups, enough eval calls for a latency tail.
const replayStudies = 4 * 3

// probeTrials times the layers the service's optimizers run inside it,
// out of reach of a wrapper there, by replaying the trials of the sweep's
// first studies outside the service: the library calls tuneserver makes
// for a trial (core.OptimizeSequential on a fresh AGA, or nsga2.Optimize,
// seeded by eval.TrialSeed), on the traced Problem wrapper and, for MLS,
// the traced archive. Folding each study's replayed trial fronts in trial
// order into an unbounded archive, as the service's merger does, must
// reproduce the study's front exactly.
func probeTrials(b *bench, parent int, m metricSet, r *sweepResult) error {
	var mlsWall, mlsBusy, nsgaWall, nsgaBusy, archBusy time.Duration
	var mlsTrials, mlsCalls, mlsEvals, adds, accepted int64
	var gens int
	var callMS []float64
	for i, s := range r.Studies[:replayStudies] {
		p := eval.NewProblem(s.Density, s.Seed, eval.WithCommittee(eval.DefaultCommittee))
		merged := archive.NewUnbounded()
		for t := 0; t < serviceTrials; t++ {
			span := b.rec.begin(parent, "tuneserver.trial")
			tp := &tracedProblem{Problem: p, rec: b.rec, parent: span}
			seed := eval.TrialSeed(s.Seed, int64(t))
			start := time.Now()
			var front []*moo.Solution
			if s.MLS {
				cfg := core.DefaultConfig()
				cfg.Populations, cfg.Workers, cfg.EvalsPerWorker = 1, 2, serviceMLSEvalsPerWorker
				cfg.Criteria = core.DefaultAEDBCriteria()
				cfg.Seed = seed
				ta := &tracedArchive{Interface: archive.NewAGA(cfg.ArchiveCapacity, cfg.GridDivisions)}
				res, err := core.OptimizeSequential(tp, cfg, ta)
				if err != nil {
					return fmt.Errorf("replay %s trial %d: %w", s.Name, t, err)
				}
				front = res.Front
				mlsTrials++
				mlsEvals += res.Evaluations
				adds += ta.adds.Load()
				accepted += ta.accepted.Load()
				archBusy += time.Duration(ta.busy.Load())
			} else {
				cfg := nsga2.DefaultConfig()
				cfg.PopSize, cfg.Evaluations = serviceNSGA2Pop, serviceNSGA2Evals
				cfg.Seed = seed
				res, err := nsga2.Optimize(tp, cfg)
				if err != nil {
					return fmt.Errorf("replay %s trial %d: %w", s.Name, t, err)
				}
				front = res.Front
				gens += res.Generations
			}
			wall := time.Since(start)
			b.rec.end(span)
			var busy time.Duration
			for _, name := range []string{"eval.evaluate", "eval.batch"} {
				for _, c := range b.rec.children(span, name) {
					busy += c.dur()
					callMS = append(callMS, float64(c.dur())/1e6)
					if s.MLS {
						mlsCalls++
					}
				}
			}
			if s.MLS {
				mlsWall += wall
				mlsBusy += busy
			} else {
				nsgaWall += wall
				nsgaBusy += busy
			}
			archive.AddAll(merged, front)
		}
		if got, want := frontDigest(merged.Contents()), frontDigest(r.fronts[i]); got != want {
			return fmt.Errorf("replayed trials of %s give front %s, the service merged %s", s.Name, got, want)
		}
	}
	ct, err := tailOf(callMS)
	if err != nil {
		return fmt.Errorf("eval call tail: %w", err)
	}
	m.set("core.eval_busy_frac", mlsBusy.Seconds()/mlsWall.Seconds()) // the sequential engine: one goroutine
	m.set("core.calls", float64(mlsCalls)/float64(mlsTrials))
	m.set("core.evals_per_call", float64(mlsEvals)/float64(mlsCalls))
	m.set("archive.adds", float64(adds)/float64(mlsTrials))
	m.set("archive.accept_ratio", float64(accepted)/float64(adds))
	m.set("archive.busy_ms", ms(archBusy)/float64(mlsTrials))
	m.set("nsga2.self_ms_per_gen", ms(nsgaWall-nsgaBusy)/float64(gens))
	m.set("eval.call_p50_ms", median(callMS))
	m.set("eval.call_tail_ms", ct.Value)
	return nil
}

// frontVectors returns up to n decision vectors spread evenly over the
// studies' final fronts.
func frontVectors(fronts [][]*moo.Solution, n int) [][]float64 {
	var all [][]float64
	for _, f := range fronts {
		for _, s := range f {
			all = append(all, s.X)
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}
