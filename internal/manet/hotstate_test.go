package manet

import (
	"math"
	"testing"

	"aedbmls/internal/geom"
)

// TestArenaReuseInvalidatesPositionMemo is the regression wall for the
// structure-of-arrays position memo: the posX/posY/posAt columns live on
// the Network object, and an Arena recycles that object across
// instantiations, so a snapshot instantiated into a reused arena starts
// with the PREVIOUS simulation's memoised positions in the columns. The
// memo key is the exact instant (posAt[id] == now), and every arena
// instantiation rewinds the clock to the same warm-up cut the previous
// candidate used — so without the NaN invalidation in initHotState, a
// position read at the cut would be served from the previous snapshot's
// world. This test fails if that invalidation is removed.
func TestArenaReuseInvalidatesPositionMemo(t *testing.T) {
	cfg := DefaultScenario(12)
	cfg.WarmupTime = 2
	cfg.EndTime = 6
	const cut = 2.0

	snapA, err := BuildSnapshot(cfg, 1, cut)
	if err != nil {
		t.Fatalf("BuildSnapshot(A): %v", err)
	}
	snapB, err := BuildSnapshot(cfg, 2, cut)
	if err != nil {
		t.Fatalf("BuildSnapshot(B): %v", err)
	}
	// A snapshot's clock is its last warm-up event time, which is
	// seed-specific — but instants shared across scenarios ARE reachable
	// by construction (every committee scenario originates its broadcast
	// at the same cut, for one). Arrange the collision deterministically:
	// world A is advanced to exactly world B's starting clock, so every
	// memo stamp A leaves behind aliases the instant B starts at.
	if snapA.now < snapB.now {
		snapA, snapB = snapB, snapA
	}
	shared := snapA.now

	a := NewArena()
	netB1, _ := snapB.InstantiateInto(a, newForwardOnce, 0, cut)
	netB1.Sim.RunUntil(shared) // fires any pending events <= shared, then pins the clock
	// Memoise every node position at the shared instant — the state a
	// finished candidate simulation leaves in the arena's columns — and
	// record the values before the arena reuse invalidates netB1 (its
	// Node structs are the same arena block the next network occupies).
	posB := make([]geom.Vec2, len(netB1.Nodes))
	for i, n := range netB1.Nodes {
		posB[i] = n.Position()
	}

	// Reuse the arena for a different world whose clock starts at the
	// very instant every stamp above carries, and compare position reads
	// against an arena-free instantiation of the same snapshot.
	netA2, _ := snapA.InstantiateInto(a, newForwardOnce, 0, cut)
	fresh, _ := snapA.Instantiate(newForwardOnce, 0, cut)
	if netA2.Sim.Now() != shared {
		t.Fatalf("arena network clock %v, want the shared instant %v", netA2.Sim.Now(), shared)
	}
	differs := false
	for i := range netA2.Nodes {
		got := netA2.Nodes[i].Position()
		want := fresh.Nodes[i].Position()
		if got != want {
			t.Fatalf("node %d position after arena reuse: got %v, want %v (stale memo from the previous snapshot)", i, got, want)
		}
		if posB[i] != want {
			differs = true
		}
	}
	// Sanity: the two worlds must actually disagree somewhere, or this
	// test could never catch a stale read.
	if !differs {
		t.Fatal("seeds 1 and 2 produced identical node placements; regression test has no teeth")
	}
}

// TestSnapshotRefusesArmedTimers pins the timer half of the snapshot
// precondition: an armed protocol timer is live protocol state that the
// tagged-event schedule cannot carry (its slot/generation addressing is
// meaningless in a fresh network), so Snapshot must refuse while one is
// armed, accept again once it is cancelled, and filter the cancelled
// timer's stale heap event out of the captured schedule.
func TestSnapshotRefusesArmedTimers(t *testing.T) {
	cfg := DefaultScenario(8)
	cfg.WarmupTime = 2
	cfg.EndTime = 6
	net, err := New(cfg, 3, newForwardOnce)
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunBefore(cfg.WarmupTime)
	if _, err := net.Snapshot(); err != nil {
		t.Fatalf("snapshot refused at a quiet warm-up cut: %v", err)
	}

	timer := net.Nodes[0].ScheduleTimer(0.5, 7)
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with an armed protocol timer")
	}

	timer.Cancel()
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatalf("snapshot refused after the timer was cancelled: %v", err)
	}
	// The cancelled timer's tagged event still sits in the simulator's
	// event list; the captured schedule must not carry it.
	for _, ev := range snap.events {
		if ev.Kind == evProtoTimer {
			t.Fatalf("captured schedule carries a stale protocol-timer event: %+v", ev)
		}
	}
}

// TestPositionMemoStampStartsInvalid pins the initial state the
// invalidation relies on: a fresh network's posAt column is NaN
// everywhere (NaN compares unequal to every instant, including itself),
// so the first read at any time must recompute.
func TestPositionMemoStampStartsInvalid(t *testing.T) {
	net, err := New(DefaultScenario(5), 1, newForwardOnce)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range net.posAt {
		if !math.IsNaN(at) {
			t.Fatalf("posAt[%d] = %v at init, want NaN", i, at)
		}
	}
}

// TestArenaReleaseDropsInputs: a released arena keeps no reference to its
// last network's beacon tape, configuration or non-recyclable protocol
// instances, and a network instantiated into it afterwards replays
// bit-identically to one from a fresh arena.
func TestArenaReleaseDropsInputs(t *testing.T) {
	cfg := DefaultScenario(12)
	cfg.WarmupTime = 2
	cfg.EndTime = 6
	snap, err := BuildSnapshot(cfg, 3, cfg.WarmupTime)
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	tape, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatalf("RecordBeaconTape: %v", err)
	}
	a := NewArena()
	net, _ := snap.InstantiateReplayInto(a, newForwardOnce, 0, cfg.WarmupTime, tape)
	net.RunToQuiescence()
	a.Release()
	if net.tape != nil {
		t.Error("released arena still references the beacon tape")
	}
	if net.Cfg.NumNodes != 0 {
		t.Errorf("released arena still holds the configuration (%d nodes)", net.Cfg.NumNodes)
	}
	for i := range a.nodeBlock {
		if a.nodeBlock[i].proto != nil {
			t.Fatalf("released arena still holds node %d's protocol instance", i)
		}
	}

	got, gotSt := snap.InstantiateReplayInto(a, newForwardOnce, 1, cfg.WarmupTime, tape)
	got.RunToQuiescence()
	want, wantSt := snap.InstantiateReplay(newForwardOnce, 1, cfg.WarmupTime, tape)
	want.RunToQuiescence()
	assertSameBroadcast(t, "released arena", wantSt, want, gotSt, got)
}
