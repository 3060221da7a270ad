package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/eval"
	"aedbmls/internal/manet"
	"aedbmls/internal/study"
	"aedbmls/internal/tuneserver"
)

// The probes of the traced run time the layers an optimizer reaches only
// through eval — manet and its sim engine — and the persistence layers,
// by calling their public functions directly on the workload's own
// inputs.

// parentNodes is the node count of the shared warm-up parent every
// density is masked from (eval builds each scenario once at the largest
// committee size).
var parentNodes = eval.DensityNodes[300]

// probeManet replays the committee build and the broadcast cascade of
// problem p stage by stage: the warm-up snapshot, the beacon-tape
// recording and the mask to the workload's node count (to the d100 size
// when the workload runs at the parent size and masks nothing), then
// every sampled vector on every committee scenario through
// InstantiateReplayInto and RunToQuiescence. Scenario seeds and sources
// come from Problem.CounterfactualScenario, so the probe replays exactly
// the networks the workload evaluated on.
func probeManet(b *bench, parent int, m metricSet, p *eval.Problem, xs [][]float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("manet probe: no evaluated vectors")
	}
	nodes := p.Nodes()
	maskTo := nodes
	if nodes == parentNodes {
		maskTo = eval.DensityNodes[100]
	}
	pcfg := manet.DefaultScenario(parentNodes)
	arena := manet.NewArena()
	rec := b.rec
	stage := func(name string, f func() error) (time.Duration, error) {
		start := rec.now()
		err := f()
		end := rec.now()
		rec.add(parent, name, start, end)
		return time.Duration(end - start), err
	}
	var warm, record, mask, inst, casc time.Duration
	var upserts, events, forwards, cands float64
	for i := 0; i < p.Committee(); i++ {
		cf, err := p.CounterfactualScenario(i)
		if err != nil {
			return fmt.Errorf("manet probe: %w", err)
		}
		var snap, msnap *manet.Snapshot
		var tape, mtape *manet.BeaconTape
		d, err := stage("manet.warmup", func() (err error) {
			snap, err = manet.BuildSnapshot(pcfg, cf.Seed(), pcfg.WarmupTime)
			return err
		})
		if err != nil {
			return fmt.Errorf("manet probe: warm-up: %w", err)
		}
		warm += d
		d, err = stage("manet.tape_record", func() (err error) {
			tape, err = snap.RecordBeaconTape(pcfg.EndTime)
			return err
		})
		if err != nil {
			return fmt.Errorf("manet probe: tape: %w", err)
		}
		record += d
		upserts += float64(tape.Upserts())
		d, err = stage("manet.mask", func() (err error) {
			if msnap, err = snap.Mask(maskTo); err != nil {
				return err
			}
			mtape, err = tape.Mask(maskTo)
			return err
		})
		if err != nil {
			return fmt.Errorf("manet probe: mask: %w", err)
		}
		mask += d
		if nodes < parentNodes {
			snap, tape = msnap, mtape
		}
		for _, x := range xs {
			factory := aedb.New(aedb.FromVector(x))
			var net *manet.Network
			var st *manet.BroadcastStats
			d, _ := stage("manet.instantiate", func() error {
				net, st = snap.InstantiateReplayInto(arena, factory, cf.Source(), pcfg.WarmupTime, tape)
				return nil
			})
			inst += d
			fired := net.Sim.Fired()
			d, _ = stage("manet.cascade", func() error {
				net.RunToQuiescence()
				return nil
			})
			casc += d
			events += float64(net.Sim.Fired() - fired)
			forwards += float64(st.Forwards)
			cands++
		}
	}
	scen := float64(p.Committee())
	m.set("manet.warmup_ms", ms(warm)/scen)
	m.set("manet.tape_record_ms", ms(record)/scen)
	m.set("manet.tape_upserts", upserts/scen)
	m.set("manet.mask_ms", ms(mask)/scen)
	m.set("manet.instantiate_us", us(inst)/cands)
	m.set("manet.cascade_us", us(casc)/cands)
	m.set("manet.instantiate_share", inst.Seconds()/(inst+casc).Seconds())
	m.set("manet.forwards_per_cand", forwards/cands)
	m.set("sim.events_per_cand", events/cands)
	m.set("sim.events_per_s", events/casc.Seconds())
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeCheckpoints round-trips checkpoints through study.Save and
// study.Load in a scratch directory: at least five round trips (cycling
// through cps), at most one per checkpoint up to 32.
func probeCheckpoints(b *bench, parent int, m metricSet, cps []*study.Checkpoint) error {
	dir, err := os.MkdirTemp(b.out, "ckpt-")
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	defer os.RemoveAll(dir)
	n := min(max(len(cps), 5), 32)
	var saves, loads, sizes []float64
	for i := 0; i < n; i++ {
		cp := cps[i*len(cps)/n]
		path := filepath.Join(dir, fmt.Sprintf("%d.ckpt", i))
		start := b.rec.now()
		if err := study.Save(path, cp); err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		mid := b.rec.now()
		if _, err := study.Load(path); err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		end := b.rec.now()
		b.rec.add(parent, "study.save", start, mid)
		b.rec.add(parent, "study.load", mid, end)
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		saves = append(saves, float64(mid-start)/1e6)
		loads = append(loads, float64(end-mid)/1e6)
		sizes = append(sizes, float64(fi.Size()))
	}
	m.set("study.save_ms", median(saves))
	m.set("study.load_ms", median(loads))
	m.set("study.ckpt_bytes", median(sizes))
	return nil
}

// probeCreate times tuneserver.Server.Create — spec parsing, problem
// construction and the atomic manifest save — for five paused studies of
// the workload's own shape, and sizes the resulting manifest.
func probeCreate(b *bench, parent int, m metricSet, spec string, seed uint64) error {
	dir, err := os.MkdirTemp(b.out, "create-")
	if err != nil {
		return fmt.Errorf("create probe: %w", err)
	}
	defer os.RemoveAll(dir)
	srv, err := tuneserver.New(tuneserver.Options{Dir: dir, Workers: b.nproc})
	if err != nil {
		return fmt.Errorf("create probe: %w", err)
	}
	defer srv.Close()
	var lat []float64
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"name":"probe-%d","seed":%d,"start_paused":true,%s}`, i, seed, spec)
		start := b.rec.now()
		if _, err := srv.Create(strings.NewReader(body)); err != nil {
			return fmt.Errorf("create probe: %w", err)
		}
		end := b.rec.now()
		b.rec.add(parent, "tuneserver.create", start, end)
		lat = append(lat, float64(end-start)/1e6)
	}
	size, err := fileSize(study.ManifestPath(dir))
	if err != nil {
		return fmt.Errorf("create probe: %w", err)
	}
	m.set("tuneserver.create_ms", median(lat))
	m.set("study.manifest_bytes", size)
	return nil
}

func fileSize(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}
