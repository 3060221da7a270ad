package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	time      float64
	seq       uint64
	id        int
	closure   bool
	cancelled bool
	handle    *Event
}

// refQueue is the obviously-correct model the simulator is checked
// against: one flat list, the earliest (time, seq) entry found by a linear
// scan, and the simulator's documented sequence-number and clock rules.
type refQueue struct {
	now     float64
	seq     uint64
	pending []*refEvent
}

// min returns the index of the earliest pending entry within the limit
// (inclusive at or before limit, any time when limit < 0; strictly before
// limit when strict), or -1.
func (q *refQueue) min(limit float64, strict bool) int {
	best := -1
	for i, e := range q.pending {
		if best < 0 || e.time < q.pending[best].time ||
			(e.time == q.pending[best].time && e.seq < q.pending[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	t := q.pending[best].time
	if (strict && t >= limit) || (!strict && limit >= 0 && t > limit) {
		return -1
	}
	return best
}

func (q *refQueue) remove(i int) *refEvent {
	e := q.pending[i]
	q.pending = slices.Delete(q.pending, i, i+1)
	return e
}

// diffHarness drives a Simulator and the reference queue in lockstep.
// Every scheduling operation is applied to both, and every event the
// simulator fires must be the reference queue's earliest live entry at
// that moment — including events scheduled from inside handlers.
type diffHarness struct {
	t      *testing.T
	r      *rand.Rand
	s      *Simulator
	q      refQueue
	nextID int
	fired  []int
	// limit and strict are the bound of the run call in progress, which
	// the model applies when it predicts the next event.
	limit  float64
	strict bool
}

func newDiffHarness(t *testing.T, seed uint64) *diffHarness {
	h := &diffHarness{t: t, r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	// A restored schedule: sorted, with same-time runs so sequence-number
	// tie-breaking is exercised across all three tiers.
	now := float64(h.r.IntN(4))
	n := h.r.IntN(40)
	events := make([]TaggedEvent, n)
	ids := make([]int, n)
	for i := range events {
		ids[i] = h.newID()
		events[i] = TaggedEvent{Time: now + h.tick(), A: int32(ids[i])}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case events[a].Time < events[b].Time:
			return -1
		case events[a].Time > events[b].Time:
			return 1
		}
		return 0
	})
	sorted := make([]TaggedEvent, n)
	for k, i := range order {
		sorted[k] = events[i]
		h.q.pending = append(h.q.pending, &refEvent{time: events[i].Time, seq: uint64(k) + 1, id: ids[i]})
	}
	h.s = Restore(now, sorted)
	h.s.SetHandler(func(_ uint16, a, _ int32) { h.onFire(int(a)) })
	h.q.now = now
	h.q.seq = uint64(n) + 1
	return h
}

func (h *diffHarness) newID() int { h.nextID++; return h.nextID }

// tick draws a firing offset on a coarse lattice, so ties are common.
func (h *diffHarness) tick() float64 { return float64(h.r.IntN(24)) * 0.125 }

// when draws an absolute firing time, sometimes in the past (clamped to
// the present by both the simulator and the model).
func (h *diffHarness) when() float64 {
	if h.r.IntN(8) == 0 {
		return h.q.now - 1
	}
	return h.q.now + h.tick()
}

// push records a scheduled event in the model, with the simulator's clamp.
func (h *diffHarness) push(t float64, seq uint64, id int, closure bool, handle *Event) {
	if t < h.q.now {
		t = h.q.now
	}
	h.q.pending = append(h.q.pending, &refEvent{time: t, seq: seq, id: id, closure: closure, handle: handle})
}

// schedule applies one random scheduling operation to both queues.
func (h *diffHarness) schedule() {
	id := h.newID()
	t := h.when()
	switch op := h.r.IntN(10); {
	case op < 4:
		// Mostly in order, so the FIFO lane takes them; the past and
		// lattice draws make some sort before the lane tail and spill
		// into the heap.
		h.s.AtTaggedMonotone(t, 0, int32(id), 0)
		h.push(t, h.q.seq, id, false, nil)
		h.q.seq++
	case op < 6:
		h.s.AtTagged(t, 0, int32(id), 0)
		h.push(t, h.q.seq, id, false, nil)
		h.q.seq++
	case op < 9:
		ev := h.s.At(t, func() { h.onFire(id) })
		h.push(t, h.q.seq, id, true, ev)
		h.q.seq++
	default:
		if h.s.frontUsed {
			h.cancelOne()
			return
		}
		ev := h.s.AtFront(t, func() { h.onFire(id) })
		h.push(t, 0, id, true, ev)
	}
}

// cancelOne cancels a random live closure in both queues.
func (h *diffHarness) cancelOne() {
	var live []*refEvent
	for _, e := range h.q.pending {
		if e.closure && !e.cancelled {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return
	}
	e := live[h.r.IntN(len(live))]
	e.handle.Cancel()
	e.cancelled = true
}

// onFire is every event's callback: the simulator must have picked the
// model's earliest entry within the current limit, after draining the
// cancelled closures ahead of it.
func (h *diffHarness) onFire(id int) {
	h.t.Helper()
	for {
		i := h.q.min(h.limit, h.strict)
		if i < 0 {
			h.t.Fatalf("fired event %d but the model has nothing pending within the limit", id)
		}
		e := h.q.remove(i)
		if e.cancelled {
			continue
		}
		if e.id != id {
			h.t.Fatalf("fired event %d, model expected %d (time %v seq %d)", id, e.id, e.time, e.seq)
		}
		if got := h.s.Now(); got != e.time {
			h.t.Fatalf("event %d fired at clock %v, model time %v", id, got, e.time)
		}
		h.q.now = e.time
		break
	}
	h.fired = append(h.fired, id)
	// Handlers schedule and cancel too, as protocol code does.
	for n := h.r.IntN(3); n > 0; n-- {
		if h.r.IntN(4) == 0 {
			h.cancelOne()
		} else {
			h.schedule()
		}
	}
}

// drained checks that a run call that returned left nothing live within
// its limit. The cancelled closures behind its last fired event drained
// with it (the simulator pops them without firing), so the model drops
// them first.
func (h *diffHarness) drained(call string) {
	h.t.Helper()
	for i := h.q.min(h.limit, h.strict); i >= 0; i = h.q.min(h.limit, h.strict) {
		e := h.q.remove(i)
		if !e.cancelled {
			h.t.Fatalf("%s(%v) returned with event %d (time %v seq %d) still pending within the limit",
				call, h.limit, e.id, e.time, e.seq)
		}
	}
	h.checkCounters(call)
}

func (h *diffHarness) checkCounters(call string) {
	h.t.Helper()
	closures := 0
	for _, e := range h.q.pending {
		if e.closure && !e.cancelled {
			closures++
		}
	}
	if got := h.s.PendingClosures(); got != closures {
		h.t.Fatalf("after %s: PendingClosures %d, model %d", call, got, closures)
	}
	if got := h.s.Pending(); got != len(h.q.pending) {
		h.t.Fatalf("after %s: Pending %d, model %d", call, got, len(h.q.pending))
	}
	if got := h.s.Now(); got != h.q.now {
		h.t.Fatalf("after %s: clock %v, model %v", call, got, h.q.now)
	}
}

// limitDraw returns a run limit: no limit, or a lattice point around the
// present (so limits land exactly on pending event times).
func (h *diffHarness) limitDraw() float64 {
	if h.r.IntN(5) == 0 {
		return -1
	}
	return h.q.now + float64(h.r.IntN(12))*0.125
}

// step issues one random event-loop call and checks it against the model.
func (h *diffHarness) step() {
	h.t.Helper()
	switch h.r.IntN(3) {
	case 0:
		h.limit, h.strict = h.limitDraw(), false
		// StepUntil consumes exactly one entry — a cancelled closure
		// drains without firing — so predict the return from the model.
		i := h.q.min(h.limit, false)
		var drainsCancelled bool
		if i >= 0 && h.q.pending[i].cancelled {
			drainsCancelled = true
			h.q.remove(i)
		}
		before := len(h.fired)
		got := h.s.StepUntil(h.limit)
		if got != (i >= 0) {
			h.t.Fatalf("StepUntil(%v) = %v, model has pending-within-limit = %v", h.limit, got, i >= 0)
		}
		fired := len(h.fired) - before
		if drainsCancelled && fired != 0 || !drainsCancelled && got && fired != 1 {
			h.t.Fatalf("StepUntil(%v) fired %d events (cancelled head: %v)", h.limit, fired, drainsCancelled)
		}
		h.checkCounters("StepUntil")
	case 1:
		h.limit, h.strict = h.limitDraw(), false
		h.s.RunUntil(h.limit)
		// RunUntil advances an idle clock to the limit.
		if h.limit >= 0 && h.q.now < h.limit {
			h.q.now = h.limit
		}
		h.drained("RunUntil")
	default:
		h.limit, h.strict = h.q.now+float64(h.r.IntN(12))*0.125, true
		h.s.RunBefore(h.limit)
		h.drained("RunBefore")
	}
}

// TestEventLoopsMatchReferenceOrder is the differential wall of the
// three-tier future event list: randomized schedules mixing a restored
// schedule, the monotone FIFO lane (with out-of-order entries spilling to
// the heap), plain tagged events, cancellable closures and the AtFront
// slot — scheduled up front and from inside handlers — must fire, under
// StepUntil, RunUntil and RunBefore with inclusive, strict and absent
// limits, exactly the (time, seq) sequence of a linear-scan reference
// queue.
func TestEventLoopsMatchReferenceOrder(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		h := newDiffHarness(t, seed)
		for n := h.r.IntN(30); n > 0; n-- {
			if h.r.IntN(5) == 0 {
				h.cancelOne()
			} else {
				h.schedule()
			}
		}
		h.checkCounters("setup")
		for calls := 0; calls < 60 && len(h.q.pending) > 0; calls++ {
			h.step()
			for n := h.r.IntN(3); n > 0; n-- {
				h.schedule()
			}
		}
		// Drain everything with no limit.
		h.limit, h.strict = -1, false
		h.s.Run()
		h.drained("Run")
		if len(h.q.pending) != 0 {
			t.Fatalf("seed %d: %d model events never fired", seed, len(h.q.pending))
		}
	}
}
