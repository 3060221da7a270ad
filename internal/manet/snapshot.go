// Warm-start scenario snapshots.
//
// The warm-up phase of a scenario — mobility walks plus hello beaconing
// from t=0 until the broadcast starts — depends only on the frozen
// scenario seed, never on the protocol parameters being evaluated. A
// Snapshot captures the complete simulation state at the warm-up cut
// (node positions via cloned mobility models, RNG streams, neighbor
// tables, in-flight beacon receptions and the pending beacon/mobility
// event schedule) so that each evaluation clones the warmed state and
// simulates only the broadcast phase.
//
// Determinism contract: a network instantiated from a snapshot produces
// BIT-IDENTICAL results — every metric, every event, every RNG draw — to
// a from-scratch simulation of the same (config, seed, protocol, source),
// provided the protocol's constructor and Init neither schedule events
// nor draw randomness (see Protocol). This holds because:
//
//   - the warm-up is protocol-independent: no protocol callback runs
//     before the origination event, and beacons never touch protocols;
//   - every stochastic stream (per-node RNG, per-mobility-model RNG, the
//     network RNG) is captured exactly and cloned per instantiation;
//   - the pending event schedule is tagged data, restored in firing
//     order, and the origination event is inserted AHEAD of same-time
//     pending events — exactly where a from-scratch run puts it, since
//     there it is scheduled before the simulation loop starts.
package manet

import (
	"fmt"

	"aedbmls/internal/mobility"
	"aedbmls/internal/rng"
	"aedbmls/internal/sim"
)

// nodeState is the frozen per-node slice of a Snapshot.
type nodeState struct {
	mob        mobility.Model
	rng        *rng.Rand
	neighbors  []nbrRec
	active     []int32
	txUntil    float64
	txEnergyMJ float64
	txFrames   int
	rxFrames   int
	lostFrames int
}

// Snapshot is an immutable capture of a warmed-up Network. It is safe for
// concurrent Instantiate calls: instantiation only reads the snapshot.
type Snapshot struct {
	cfg       Config
	now       float64
	nextMsgID int
	collision int
	netRng    *rng.Rand
	events    []sim.TaggedEvent
	nodes     []nodeState
	recs      []reception
	freeRecs  []int32
}

// BuildSnapshot simulates cfg from t=0 under the given seed with no
// protocols attached, up to (but excluding) every event at or after
// cutTime, and captures the resulting state. cutTime is normally
// cfg.WarmupTime: the returned snapshot then stands exactly where a
// from-scratch run stands when its broadcast origination fires.
func BuildSnapshot(cfg Config, seed uint64, cutTime float64) (*Snapshot, error) {
	net, err := New(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	net.Sim.RunBefore(cutTime)
	return net.Snapshot()
}

// Snapshot captures the network's current state. It fails if the state is
// not serialisable: a pending closure event (broadcast origination), an
// armed protocol timer or an in-flight data frame cannot be captured,
// only the protocol-independent warm-up machinery (beacons, mobility,
// beacon receptions) can.
func (net *Network) Snapshot() (*Snapshot, error) {
	events, ok := net.Sim.SnapshotEvents()
	if !ok {
		return nil, fmt.Errorf("manet: cannot snapshot with pending closure events")
	}
	if net.liveTimers > 0 {
		return nil, fmt.Errorf("manet: cannot snapshot with armed protocol timers")
	}
	// Any timer events still in the schedule are stale (cancelled or
	// fired slots); they carry no state worth replaying, so drop them
	// rather than capturing references into a timer table that will not
	// exist on the other side.
	w := 0
	for _, ev := range events {
		if ev.Kind == evProtoTimer {
			continue
		}
		events[w] = ev
		w++
	}
	events = events[:w]
	free := make(map[int32]bool, len(net.freeRecs))
	for _, i := range net.freeRecs {
		free[i] = true
	}
	for i := range net.recs {
		if !free[int32(i)] && net.recs[i].msg != nil {
			return nil, fmt.Errorf("manet: cannot snapshot with data frames in flight")
		}
	}
	s := &Snapshot{
		cfg:       net.Cfg,
		now:       net.Sim.Now(),
		nextMsgID: net.nextMsgID,
		collision: net.Collisions,
		netRng:    net.Rng.Clone(),
		events:    events,
		nodes:     make([]nodeState, len(net.Nodes)),
		recs:      append([]reception(nil), net.recs...),
		freeRecs:  append([]int32(nil), net.freeRecs...),
	}
	for i, n := range net.Nodes {
		nbrs := append([]nbrRec(nil), n.neighbors...)
		for j := range nbrs {
			// Convert deferred fast-beacon rows once, through this
			// network's kernel — the same value a read would memoise — so
			// no instantiation of the snapshot (or of its masks) repeats
			// the log10 per read.
			if e := &nbrs[j]; !e.hasRx && !e.rxValid {
				e.rx, e.rxValid = net.kern.RxPower2(net.Cfg.DefaultTxPowerDBm, e.d2), true
			}
		}
		s.nodes[i] = nodeState{
			mob:        n.mob.Clone(),
			rng:        n.Rng.Clone(),
			neighbors:  nbrs,
			active:     append([]int32(nil), n.active...),
			txUntil:    net.txUntil[i],
			txEnergyMJ: n.TxEnergyMJ,
			txFrames:   n.TxFrames,
			rxFrames:   n.RxFrames,
			lostFrames: n.LostFrames,
		}
	}
	return s, nil
}

// Now returns the simulation time at which the snapshot was taken.
func (s *Snapshot) Now() float64 { return s.now }

// NumNodes returns the network size of the snapshot.
func (s *Snapshot) NumNodes() int { return len(s.nodes) }

// PendingEvents returns the number of captured future events.
func (s *Snapshot) PendingEvents() int { return len(s.events) }

// Instantiate builds a fresh Network from the snapshot, attaches protocol
// instances, and schedules the dissemination of a new message from the
// source node at absolute time startAt (ordered before any captured event
// at the same instant, matching the from-scratch event order). The caller
// runs the returned network (net.Run()) and reads the stats collector.
//
// Each call yields an independent simulation; concurrent calls on one
// snapshot are safe.
func (s *Snapshot) Instantiate(makeProto func(*Node) Protocol, source int, startAt float64) (*Network, *BroadcastStats) {
	return s.instantiate(makeProto, source, startAt, nil, nil)
}

// InstantiateInto is Instantiate drawing every instantiation buffer (the
// node and RNG blocks, the O(N^2) neighbor index, the event heap, the
// spatial grid, neighbor tables, the reception pool) from the arena
// instead of the heap. The previously returned Network and stats of the
// same arena are invalidated; see Arena for the ownership contract.
func (s *Snapshot) InstantiateInto(a *Arena, makeProto func(*Node) Protocol, source int, startAt float64) (*Network, *BroadcastStats) {
	return s.instantiate(makeProto, source, startAt, nil, a)
}

// Arena is a reusable set of instantiation buffers for the evaluation hot
// path: one warmed scenario streaming many candidate simulations
// re-instantiates the same network shape over and over, and without reuse
// the node/RNG blocks, the O(N^2) per-node neighbor index, the restored
// event heap, the spatial grid and every neighbor table are reallocated
// per candidate.
//
// Ownership contract: an Arena belongs to exactly one goroutine at a
// time, and each InstantiateInto/InstantiateReplayInto call on it
// invalidates the Network and BroadcastStats returned by the previous
// call — extract whatever outlives the simulation (the metrics) before
// reusing the arena. Buffers grow to the largest network instantiated
// through them and are re-sized automatically when the snapshot shape
// changes, so one arena may serve snapshots of different node counts,
// just not concurrently. Results are bit-identical to the allocating
// Instantiate paths: every buffer is fully overwritten or cleared before
// use.
type Arena struct {
	net       *Network
	nodes     []*Node
	nodeBlock []Node
	rngBlock  []rng.Rand
	mobBlock  []mobility.Model
	posBlock  []int32
	netRng    rng.Rand
}

// NewArena returns an empty arena; buffers are allocated lazily at first
// use and reused afterwards.
func NewArena() *Arena { return &Arena{} }

// Release drops the arena's references to the inputs of its last
// network: the beacon tape, the configuration (which may carry a
// mobility factory or trace hooks) and every protocol instance that is
// not a ProtoRecycler. An arena parked between simulations then keeps
// only its own buffers, plus the recyclable instances the next
// instantiation hands back to their pool. Like an instantiation, it
// invalidates the network the arena last returned.
func (a *Arena) Release() {
	if a.net == nil {
		return
	}
	a.net.tape = nil
	a.net.Cfg = Config{}
	for i := range a.nodeBlock {
		n := &a.nodeBlock[i]
		if _, ok := n.proto.(ProtoRecycler); !ok {
			n.proto = nil
		}
	}
}

// instantiate is the shared body of the Instantiate variants: with a
// tape, the restored schedule is the tape's beacon-stripped one and
// neighbor tables are served lazily from the tape (see tape.go); with an
// arena, all buffers come from (and return to) it. A nil arena acts as a
// fresh one-shot arena, which is exactly the allocating path.
func (s *Snapshot) instantiate(makeProto func(*Node) Protocol, source int, startAt float64, tape *BeaconTape, a *Arena) (*Network, *BroadcastStats) {
	if a == nil {
		a = &Arena{} // one-shot: freshly allocated buffers, owned by the returned network
	}
	events := s.events
	if tape != nil {
		if tape.NumNodes() != len(s.nodes) {
			panic(fmt.Sprintf("manet: tape recorded at %d nodes cannot replay into a %d-node snapshot (mask the tape to the snapshot size)",
				tape.NumNodes(), len(s.nodes)))
		}
		events = tape.events
	}
	nn := len(s.nodes)
	net := a.net
	if net == nil {
		net = &Network{Sim: sim.New(), stats: make(map[int]*BroadcastStats, 1)}
		a.net = net
	}
	net.Sim.Reset(s.now, events)
	net.Sim.SetHandler(net.dispatch)
	net.Cfg = s.cfg
	a.netRng = *s.netRng
	net.Rng = &a.netRng
	net.recycleStats()
	clear(net.stats)
	net.nextMsgID = s.nextMsgID
	net.Collisions = s.collision
	net.recs = append(net.recs[:0], s.recs...)
	net.freeRecs = append(net.freeRecs[:0], s.freeRecs...)
	net.dataInFlight = 0
	net.tapeRec = nil
	net.maxRange = s.cfg.PathLoss.RangeFor(s.cfg.DefaultTxPowerDBm, s.cfg.SensitivityDBm)
	net.initKernel()
	net.initGrid()
	// Re-sizes the position/deadline columns, invalidates every memoised
	// position (the arena recycles this Network object, and sim.Reset has
	// just rewound the clock to the same warm-up cut every scenario uses)
	// and clears the timer table.
	net.initHotState()
	if tape != nil {
		net.tape = tape
		net.tapeCur = append(net.tapeCur[:0], tape.off[:nn]...)
	} else {
		net.tape = nil
		net.tapeCur = nil
	}
	// Nodes, their RNG states and (when the network is small enough to
	// afford them, see nbrIndexMaxNodes) ID-index tables come from block
	// allocations instead of 3N small ones; mobility models and neighbor
	// tables (which grow independently) stay per-node, but the arena
	// recycles even those across instantiations (CloneInto and the
	// harvested buffers below).
	if len(a.nodeBlock) != nn {
		a.nodes = make([]*Node, nn)
		a.nodeBlock = make([]Node, nn)
		a.rngBlock = make([]rng.Rand, nn)
		a.mobBlock = make([]mobility.Model, nn)
		a.posBlock = nil
		if nn <= nbrIndexMaxNodes {
			a.posBlock = make([]int32, nn*nn)
		}
	} else if a.posBlock != nil {
		// The index block carries entries from the previous instantiation;
		// a single memclr beats per-row unindexing.
		clear(a.posBlock)
	}
	net.Nodes = a.nodes
	for i := range s.nodes {
		ns := &s.nodes[i]
		a.rngBlock[i] = *ns.rng
		n := &a.nodeBlock[i]
		// Harvest the buffers the previous simulation grew before the
		// struct is overwritten, and release its protocol instance for
		// reuse — this is the instant the arena contract invalidates the
		// previous network, so the instance is guaranteed idle.
		if r, ok := n.proto.(ProtoRecycler); ok {
			r.Recycle()
		}
		nbrBuf := n.neighbors[:0]
		if cap(nbrBuf) < len(ns.neighbors) {
			nbrBuf = make([]nbrRec, 0, len(ns.neighbors)+8)
		}
		outBuf := n.nbrOut[:0]
		activeBuf := n.active[:0]
		// Mobility state is copied into the arena's recycled model (a
		// fresh clone on the first instantiation, or on a model-type
		// change) instead of allocating a clone per candidate.
		mob := ns.mob.CloneInto(a.mobBlock[i])
		a.mobBlock[i] = mob
		*n = Node{
			ID:         i,
			net:        net,
			mob:        mob,
			Rng:        &a.rngBlock[i],
			neighbors:  append(nbrBuf, ns.neighbors...),
			nbrOut:     outBuf,
			active:     append(activeBuf, ns.active...),
			TxEnergyMJ: ns.txEnergyMJ,
			TxFrames:   ns.txFrames,
			RxFrames:   ns.rxFrames,
			LostFrames: ns.lostFrames,
		}
		net.txUntil[i] = ns.txUntil
		if a.posBlock != nil {
			n.nbrPos = a.posBlock[i*nn : (i+1)*nn : (i+1)*nn]
			for j, e := range n.neighbors {
				n.nbrPos[e.id] = int32(j + 1)
			}
		}
		net.Nodes[i] = n
	}
	net.computeMaxSpeed()
	if makeProto != nil {
		for _, n := range net.Nodes {
			n.proto = makeProto(n)
			n.proto.Init(n)
		}
	}
	st := net.startBroadcast(source, startAt, true)
	return net, st
}

// Mask derives the snapshot of the k-node sub-network consisting of nodes
// [0, k) — the cross-density warm-up sharing primitive. Because node
// construction draws every stream from the master RNG in index order,
// nodes [0, k) of a larger network are EXACTLY the nodes of the k-node
// network built from the same scenario seed; and because fast beacons
// neither contend with anything nor touch protocol state, dropping the
// masked senders' beacon rows from the neighbor tables (and their pending
// events from the schedule) leaves precisely the warm-up state the k-node
// network reaches on its own. A masked snapshot is therefore bit-identical
// to BuildSnapshot of the k-node scenario on every broadcast metric, every
// RNG stream and every event; the one thing it inherits from the parent is
// per-node receive accounting of the warm-up beacons (RxFrames), which no
// metric reads.
//
// Mask requires the fast-beacon medium: frame-level beacons contend on the
// shared medium, so a masked node's transmissions would have influenced
// the survivors' tables and collision counters. k must be in [1, NumNodes];
// masking to the full size returns the snapshot itself.
func (s *Snapshot) Mask(k int) (*Snapshot, error) {
	if k < 1 || k > len(s.nodes) {
		return nil, fmt.Errorf("manet: mask size %d outside [1, %d]", k, len(s.nodes))
	}
	if k == len(s.nodes) {
		return s, nil
	}
	if !s.cfg.FastBeacons {
		return nil, fmt.Errorf("manet: masking requires the fast-beacon medium")
	}
	if len(s.recs) != 0 {
		return nil, fmt.Errorf("manet: cannot mask with receptions in flight")
	}
	cfg := s.cfg
	cfg.NumNodes = k
	m := &Snapshot{
		cfg:       cfg,
		now:       s.now,
		nextMsgID: s.nextMsgID,
		collision: s.collision,
		netRng:    s.netRng.Clone(),
		nodes:     make([]nodeState, k),
	}
	for _, ev := range s.events {
		switch ev.Kind {
		case evBeacon, evMobility:
			if int(ev.A) < k {
				m.events = append(m.events, ev)
			}
		default:
			return nil, fmt.Errorf("manet: cannot mask pending event kind %d", ev.Kind)
		}
	}
	for i := 0; i < k; i++ {
		ns := &s.nodes[i]
		nbrs := make([]nbrRec, 0, len(ns.neighbors))
		for _, e := range ns.neighbors {
			if int(e.id) < k {
				nbrs = append(nbrs, e)
			}
		}
		m.nodes[i] = nodeState{
			mob:        ns.mob.Clone(),
			rng:        ns.rng.Clone(),
			neighbors:  nbrs,
			active:     append([]int32(nil), ns.active...),
			txUntil:    ns.txUntil,
			txEnergyMJ: ns.txEnergyMJ,
			txFrames:   ns.txFrames,
			rxFrames:   ns.rxFrames,
			lostFrames: ns.lostFrames,
		}
	}
	return m, nil
}
