// Beacon tapes: sharing the protocol-independent beacon evolution of a
// warmed scenario across many simulations.
//
// With fast beacons (the default medium), nothing a dissemination
// protocol does can influence beaconing: fast beacons never contend with
// data frames, draw no randomness, and read no protocol state. The
// complete neighbor-table evolution of a scenario after the warm-up cut —
// which beacon lands in which table, with what distance, at what time —
// is therefore a pure function of the scenario seed, exactly like the
// warm-up itself. A BeaconTape records that evolution once; every replay
// simulation of the same scenario then strips the beacon events from its
// schedule entirely and serves neighbor-table reads lazily from the tape.
//
// Equivalence argument. A node's neighbor table changes through exactly
// two operations: beacon upserts (at beacon instants) and read-time
// pruning (Node.Neighbors, the only read path). The tape replays the
// identical upsert sequence — same rows, same order, same timestamps —
// applied at read time instead of beacon time; since between a beacon
// instant and the next read nothing observes the table, applying the
// pending upserts immediately before the read yields bit-identical
// contents (values and row order) at every read instant. Protocol
// behaviour, and hence every broadcast metric, is unchanged. What replay
// mode does give up is per-node beacon accounting on the sender side
// (TxFrames/TxEnergyMJ no longer include beacon traffic), which no metric
// reads; receiver-side RxFrames accounting is applied with the upserts.
//
// The tie-break assumption: when a beacon and a table read share an exact
// instant, the beacon applies first. In the event loop the beacon wins
// the FIFO tie because it was scheduled a full interval earlier, and the
// tape's `beacon instant <= now` application rule reproduces that order.
//
// Layout. A tape row never needs a full neighbor-table row: it arrives
// pre-converted (so the squared distance is dead), and its neighbor ID and
// timestamp are those of the beacon that produced it. The tape therefore
// stores one beacon table — sender (int32) and instant (float64) of every
// recorded beacon with at least one receiver, in firing order — plus the
// per-receiver rows in CSR (compressed sparse row) form: receiver n owns
// rows off[n]..off[n+1], in firing order, and each row is a beacon index
// (int32) and a received power (float64), 12 bytes per upsert. Every
// array is allocated at its exact final size. A 75-node tape of the
// default scenario holds about 12,000 upserts from about 750 beacons,
// roughly 150 KB. Masks share the parent's immutable beacon table and
// copy only the surviving rows.
package manet

import (
	"fmt"

	"aedbmls/internal/sim"
)

// BeaconTape is the recorded fast-beacon evolution of one warmed scenario
// in (snapshot cut, until]. It is immutable after RecordBeaconTape
// returns and safe to share across concurrent replay simulations.
type BeaconTape struct {
	until  float64
	events []sim.TaggedEvent // snapshot schedule with beacon events stripped
	// Beacon table, in firing order (shared by masks).
	from []int32
	at   []float64
	// Per-receiver rows in CSR form: receiver n owns rows off[n]..off[n+1].
	off    []int32
	beacon []int32   // index into the beacon table
	rx     []float64 // received power in dBm
}

// Until returns the end of the recorded interval.
func (t *BeaconTape) Until() float64 { return t.until }

// NumNodes returns the network size the tape was recorded at. A tape can
// only replay into snapshots of exactly this size (see InstantiateReplay);
// smaller scenarios derive their tape with Mask.
func (t *BeaconTape) NumNodes() int { return len(t.off) - 1 }

// Upserts returns the total number of recorded neighbor-table updates.
func (t *BeaconTape) Upserts() int { return len(t.beacon) }

// tapeRecorder collects a tape while RecordBeaconTape runs: the beacon
// table plus flat (receiver, beacon, rx) rows in firing order.
type tapeRecorder struct {
	from   []int32
	at     []float64
	recv   []int32
	beacon []int32
	rx     []float64
}

// RecordBeaconTape replays the scenario's beacon schedule from the
// snapshot cut to until (normally cfg.EndTime) on a protocol-less clone
// and records every neighbor-table update. It requires the fast-beacon
// medium: frame-level beacons contend with data frames, so their
// evolution is not protocol-independent and cannot be shared.
func (s *Snapshot) RecordBeaconTape(until float64) (*BeaconTape, error) {
	if !s.cfg.FastBeacons {
		return nil, fmt.Errorf("manet: beacon tapes require the fast-beacon medium")
	}
	if until < s.now {
		until = s.now
	}
	nevents := 0
	for _, ev := range s.events {
		if ev.Kind != evBeacon {
			nevents++
		}
	}
	tape := &BeaconTape{until: until, events: make([]sim.TaggedEvent, 0, nevents)}
	for _, ev := range s.events {
		if ev.Kind != evBeacon {
			tape.events = append(tape.events, ev)
		}
	}
	net, _ := s.instantiate(nil, 0, s.now, nil, nil)
	rec := &tapeRecorder{}
	net.tapeRec = rec
	net.Sim.RunUntil(until)
	rec.layOut(tape, len(s.nodes))
	return tape, nil
}

// add records one beacon of sender from at instant at, received by recv
// with the pre-converted powers rx. A beacon nobody received is not
// recorded.
func (r *tapeRecorder) add(from int32, at float64, recv []int32, rx []float64) {
	if len(recv) == 0 {
		return
	}
	b := int32(len(r.from))
	r.from = append(r.from, from)
	r.at = append(r.at, at)
	r.recv = append(r.recv, recv...)
	r.rx = append(r.rx, rx...)
	for range recv {
		r.beacon = append(r.beacon, b)
	}
}

// layOut fills the tape's beacon table and CSR rows from the recording.
// A stable counting pass by receiver keeps each receiver's rows in firing
// order, and every array is allocated at its exact final size.
func (r *tapeRecorder) layOut(t *BeaconTape, nodes int) {
	t.from = append(make([]int32, 0, len(r.from)), r.from...)
	t.at = append(make([]float64, 0, len(r.at)), r.at...)
	t.off = make([]int32, nodes+1)
	for _, n := range r.recv {
		t.off[n+1]++
	}
	for n := 0; n < nodes; n++ {
		t.off[n+1] += t.off[n]
	}
	t.beacon = make([]int32, len(r.recv))
	t.rx = make([]float64, len(r.recv))
	next := append([]int32(nil), t.off[:nodes]...)
	for i, n := range r.recv {
		j := next[n]
		next[n]++
		t.beacon[j] = r.beacon[i]
		t.rx[j] = r.rx[i]
	}
}

// Mask derives the beacon tape of the k-node sub-network consisting of
// nodes [0, k) — the cross-density tape sharing primitive, mirroring
// Snapshot.Mask. By the same argument that makes a masked snapshot
// bit-identical to a direct small-network build (nodes [0, k) of the
// larger population ARE the k-node network of the same seed, and fast
// beacons neither contend nor read protocol state), dropping the masked
// senders' upserts from every surviving receiver's record (and the masked
// nodes' pending events from the stripped schedule) leaves exactly the
// tape RecordBeaconTape would produce from the k-node scenario: the same
// upserts, in the same order, with the same timestamps and pre-converted
// powers. The derived tape indexes into the parent's beacon table (which
// still lists the masked senders' beacons; no surviving row refers to
// them), so only its rows differ in representation from a direct
// recording: FuzzTapeMask holds the two row-for-row identical in sender,
// instant and power.
//
// k must be in [1, NumNodes]; masking to the full size returns the tape
// itself. The derived tape shares only the immutable beacon table with
// the parent and is equally safe for concurrent replays.
func (t *BeaconTape) Mask(k int) (*BeaconTape, error) {
	if k < 1 || k > t.NumNodes() {
		return nil, fmt.Errorf("manet: tape mask size %d outside [1, %d]", k, t.NumNodes())
	}
	if k == t.NumNodes() {
		return t, nil
	}
	nevents := 0
	for _, ev := range t.events {
		// A fast-beacon warm-up schedule holds only beacon (already
		// stripped) and mobility events; anything else means the tape
		// was recorded from a state this derivation cannot reason about.
		if ev.Kind != evMobility {
			return nil, fmt.Errorf("manet: cannot mask recorded event kind %d", ev.Kind)
		}
		if int(ev.A) < k {
			nevents++
		}
	}
	m := &BeaconTape{
		until:  t.until,
		events: make([]sim.TaggedEvent, 0, nevents),
		from:   t.from,
		at:     t.at,
		off:    make([]int32, k+1),
	}
	for _, ev := range t.events {
		if int(ev.A) < k {
			m.events = append(m.events, ev)
		}
	}
	// Receivers [0, k) own the contiguous parent rows off[0]..off[k]:
	// count the survivors per receiver, then copy them in one sweep.
	for n := 0; n < k; n++ {
		kept := int32(0)
		for r := t.off[n]; r < t.off[n+1]; r++ {
			if int(t.from[t.beacon[r]]) < k {
				kept++
			}
		}
		m.off[n+1] = m.off[n] + kept
	}
	m.beacon = make([]int32, m.off[k])
	m.rx = make([]float64, m.off[k])
	w := 0
	for r := t.off[0]; r < t.off[k]; r++ {
		if int(t.from[t.beacon[r]]) < k {
			m.beacon[w] = t.beacon[r]
			m.rx[w] = t.rx[r]
			w++
		}
	}
	return m, nil
}

// InstantiateReplay builds a network from the snapshot like Instantiate,
// but strips every beacon event from the restored schedule and serves
// neighbor tables from the tape (recorded from the same snapshot, or
// derived for the snapshot's size with Mask — the two are bit-identical).
// Broadcast metrics are bit-identical to an Instantiate+Run of the same
// (protocol, source); per-node frame and energy accounting excludes
// beacon transmissions. The simulation must not run past the tape's
// recorded interval. A tape whose NumNodes does not match the snapshot
// records a different scenario — replaying it would serve foreign
// neighbor tables — so mismatched instantiation panics.
func (s *Snapshot) InstantiateReplay(makeProto func(*Node) Protocol, source int, startAt float64, tape *BeaconTape) (*Network, *BroadcastStats) {
	if tape == nil {
		panic("manet: InstantiateReplay needs a tape")
	}
	return s.instantiate(makeProto, source, startAt, tape, nil)
}

// InstantiateReplayInto is InstantiateReplay drawing every instantiation
// buffer from the arena; see Arena for the ownership contract.
func (s *Snapshot) InstantiateReplayInto(a *Arena, makeProto func(*Node) Protocol, source int, startAt float64, tape *BeaconTape) (*Network, *BroadcastStats) {
	if tape == nil {
		panic("manet: InstantiateReplay needs a tape")
	}
	return s.instantiate(makeProto, source, startAt, tape, a)
}

// syncTape applies every tape upsert for node n that is due at the
// current instant, bringing the table to exactly the state the eager
// beacon path would have produced before this read. The cursor is an
// absolute row index into the tape's CSR rows.
func (net *Network) syncTape(n *Node) {
	t := net.tape
	cur, end := net.tapeCur[n.ID], t.off[n.ID+1]
	now := net.Sim.Now()
	for ; cur < end; cur++ {
		b := t.beacon[cur]
		at := t.at[b]
		if at > now {
			break
		}
		n.upsertNeighbor(nbrRec{id: t.from[b], rx: t.rx[cur], rxValid: true, lastHeard: at})
		n.RxFrames++
	}
	net.tapeCur[n.ID] = cur
}
