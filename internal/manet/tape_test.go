package manet

import (
	"testing"

	"aedbmls/internal/radio"
)

// paperNodes are the node counts of the paper's densities 300, 200 and
// 100 devices/km^2 (see DefaultScenario); the largest is the recording
// every smaller committee masks down from.
var paperNodes = []int{75, 50, 25}

// scratchReceptions counts the fast-beacon receptions a from-scratch run
// of the scenario performs in (warm-up cut, EndTime] — the upserts its
// beacon tape must hold — from the receivers' own RxFrames accounting.
func scratchReceptions(t *testing.T, cfg Config, seed uint64) int {
	t.Helper()
	net, err := New(cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rxFrames := func() int {
		n := 0
		for _, node := range net.Nodes {
			n += node.RxFrames
		}
		return n
	}
	net.Sim.RunBefore(cfg.WarmupTime)
	before := rxFrames()
	net.Sim.RunUntil(cfg.EndTime)
	return rxFrames() - before
}

// TestTapeStorageCompact pins the tape layout on the paper's committees:
// a d300 recording and its d200/d100 masks keep every array at its exact
// size, spend 12 bytes per upsert beyond the beacon and offset tables,
// share the parent's beacon table, and hold exactly the in-range
// receptions a from-scratch run performs.
func TestTapeStorageCompact(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultScenario(paperNodes[0])
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatal(err)
		}
		if len(parent.from) > parent.Upserts() {
			t.Errorf("seed %d: %d beacons for %d upserts: a recorded beacon has no receiver",
				seed, len(parent.from), parent.Upserts())
		}
		for _, nodes := range paperNodes {
			tape, err := parent.Mask(nodes)
			if err != nil {
				t.Fatal(err)
			}
			if cap(tape.events) != len(tape.events) || cap(tape.from) != len(tape.from) ||
				cap(tape.at) != len(tape.at) || cap(tape.off) != len(tape.off) ||
				cap(tape.beacon) != len(tape.beacon) || cap(tape.rx) != len(tape.rx) {
				t.Errorf("seed %d, %d nodes: a tape array has spare capacity", seed, nodes)
			}
			if len(tape.from) != len(tape.at) || len(tape.beacon) != len(tape.rx) ||
				len(tape.off) != nodes+1 || int(tape.off[nodes]) != len(tape.beacon) {
				t.Errorf("seed %d, %d nodes: inconsistent table lengths", seed, nodes)
			}
			rowBytes := 4*cap(tape.beacon) + 8*cap(tape.rx)
			tableBytes := 4*cap(tape.from) + 8*cap(tape.at) + 4*cap(tape.off)
			if budget := 12*tape.Upserts() + 12*len(tape.from) + 4*(nodes+1); rowBytes+tableBytes > budget {
				t.Errorf("seed %d, %d nodes: %d bytes stored, budget %d", seed, nodes, rowBytes+tableBytes, budget)
			}
			if &tape.from[0] != &parent.from[0] || &tape.at[0] != &parent.at[0] {
				t.Errorf("seed %d, %d nodes: mask copied the beacon table", seed, nodes)
			}
			ncfg := DefaultScenario(nodes)
			if want := scratchReceptions(t, ncfg, seed); tape.Upserts() != want {
				t.Errorf("seed %d, %d nodes: %d upserts, from-scratch run received %d beacons",
					seed, nodes, tape.Upserts(), want)
			}
		}
	}
}

// TestSnapshotRowsPreconverted: every fast-beacon neighbor row of a fresh
// snapshot, and of its masks, carries its received power already
// converted through the scenario's own kernel, under both physics arms.
func TestSnapshotRowsPreconverted(t *testing.T) {
	for _, exact := range []bool{false, true} {
		cfg := DefaultScenario(paperNodes[0])
		cfg.ExactPhysics = exact
		kern := radio.NewKernel(cfg.PathLoss)
		if exact {
			kern = radio.NewExactKernel(cfg.PathLoss)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range paperNodes {
				m, err := snap.Mask(nodes)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for i, ns := range m.nodes {
					for _, e := range ns.neighbors {
						rows++
						if e.hasRx || !e.rxValid {
							t.Fatalf("exact=%v seed %d, %d nodes: node %d row %+v not pre-converted", exact, seed, nodes, i, e)
						}
						if want := kern.RxPower2(cfg.DefaultTxPowerDBm, e.d2); e.rx != want {
							t.Fatalf("exact=%v seed %d, %d nodes: node %d row power %v, kernel gives %v", exact, seed, nodes, i, e.rx, want)
						}
					}
				}
				if rows == 0 {
					t.Fatalf("exact=%v seed %d, %d nodes: snapshot holds no neighbor rows", exact, seed, nodes)
				}
			}
		}
	}
}

// TestTapeReplayTablesMatchLive replays the d300 recording and its
// d200/d100 masks without a protocol and, at beacon instants (where the
// beacon-before-read tie rule matters) and at the tape's end, holds every
// synced neighbor table row-for-row equal to the live table of a
// from-scratch run at the same instant: same neighbors in the same order,
// the same timestamps, and the power the live row converts to.
func TestTapeReplayTablesMatchLive(t *testing.T) {
	const seed = 5
	cfg := DefaultScenario(paperNodes[0])
	snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range paperNodes {
		msnap, err := snap.Mask(nodes)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := parent.Mask(nodes)
		if err != nil {
			t.Fatal(err)
		}
		live, err := New(DefaultScenario(nodes), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		live.Sim.RunBefore(cfg.WarmupTime)
		replay, _ := msnap.InstantiateReplay(nil, 0, cfg.WarmupTime, tape)
		var instants []float64
		for b := 0; b < len(tape.at); b += 40 {
			instants = append(instants, tape.at[b])
		}
		instants = append(instants, tape.Until())
		for _, at := range instants {
			live.Sim.RunUntil(at)
			replay.Sim.RunUntil(at)
			for i, ln := range live.Nodes {
				rn := replay.Nodes[i]
				replay.syncTape(rn)
				if len(rn.neighbors) != len(ln.neighbors) {
					t.Fatalf("%d nodes, t=%v: node %d has %d replayed rows, %d live", nodes, at, i, len(rn.neighbors), len(ln.neighbors))
				}
				for j, le := range ln.neighbors {
					re := rn.neighbors[j]
					rx := le.rx
					if !le.rxValid {
						rx = live.kern.RxPower2(live.Cfg.DefaultTxPowerDBm, le.d2)
					}
					if re.id != le.id || re.lastHeard != le.lastHeard || re.hasRx != le.hasRx || !re.rxValid || re.rx != rx {
						t.Fatalf("%d nodes, t=%v: node %d row %d replayed %+v, live %+v (power %v)", nodes, at, i, j, re, le, rx)
					}
				}
			}
		}
	}
}
