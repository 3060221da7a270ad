package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
)

// span is one timed interval at a layer boundary. Parent 0 is the root;
// ids start at 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced run's spans in memory; write dumps them once
// the run ends. Times are nanoseconds since the recorder was created.
// A nil *recorder records nothing, which is how untraced runs pay only a
// nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name string, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a span that end closes; children may name its id as their
// parent before it ends.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := r.now()
	return r.add(parent, name, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// children returns the spans directly under parent with the given name.
func (r *recorder) children(parent int, name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == parent && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span, with the run's provenance, as one JSON file.
func (r *recorder) write(path string, prov provenance, workload string, seed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := struct {
		Provenance provenance `json:"provenance"`
		Workload   string     `json:"workload"`
		Seed       uint64     `json:"seed"`
		Spans      []span     `json:"spans"`
	}{prov, workload, seed, r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tracedProblem times every call an optimizer makes into eval, as one
// "eval.evaluate" or "eval.batch" span under the optimizer's span, and
// keeps the evaluated vectors for the manet probe. Embedding forwards
// every other method unchanged — Fingerprint above all, so study
// fingerprints stay those of the bare problem — and EvaluateBatch is
// overridden, not dropped, so moo.EvaluateAll keeps batching.
type tracedProblem struct {
	*eval.Problem
	rec    *recorder
	parent int

	mu sync.Mutex
	xs [][]float64
}

func (t *tracedProblem) Evaluate(x []float64) ([]float64, float64, any) {
	start := t.rec.now()
	f, v, aux := t.Problem.Evaluate(x)
	t.rec.add(t.parent, "eval.evaluate", start, t.rec.now())
	t.keep(x)
	return f, v, aux
}

func (t *tracedProblem) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	start := t.rec.now()
	res := t.Problem.EvaluateBatch(xs)
	t.rec.add(t.parent, "eval.batch", start, t.rec.now())
	t.keep(xs...)
	return res
}

func (t *tracedProblem) keep(xs ...[]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, x := range xs {
		t.xs = append(t.xs, append([]float64(nil), x...))
	}
}

// evaluated returns up to n of the vectors the problem evaluated, evenly
// spaced over the run so early and late search phases are both sampled.
func (t *tracedProblem) evaluated(n int) [][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.xs) <= n {
		return t.xs
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = t.xs[i*len(t.xs)/n]
	}
	return out
}

// tracedArchive counts and times the Add calls core.Optimize's archive
// server makes; Contents and Len pass straight through.
type tracedArchive struct {
	archive.Interface
	adds, accepted atomic.Int64
	busy           atomic.Int64 // nanoseconds inside Add
}

func (a *tracedArchive) Add(s *moo.Solution) bool {
	start := time.Now()
	ok := a.Interface.Add(s)
	a.busy.Add(int64(time.Since(start)))
	a.adds.Add(1)
	if ok {
		a.accepted.Add(1)
	}
	return ok
}
