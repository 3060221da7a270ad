package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"syscall"

	"aedbmls/internal/indicators"
	"aedbmls/internal/moo"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), as Python's statistics.median does. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is the number of samples a reported tail percentile must
// have above it: with fewer, the "tail" is one or two unlucky samples and
// does not repeat from run to run.
const tailBeyond = 10

// tail is a latency tail reported with its provenance: the value at the
// highest percentile that still has tailBeyond samples beyond it, that
// percentile, and the sample count it was taken from.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

func (t tail) String() string {
	return fmt.Sprintf("p%.1f of %d samples", t.Pct, t.Samples)
}

// tailOf applies the tail rule: in ascending order the sample at rank k
// (0-based) has n-1-k samples beyond it, so the highest admissible rank
// is n-1-tailBeyond, which sits at percentile 100*(n-tailBeyond)/n. It
// fails when fewer than tailBeyond+1 samples exist, since then no
// percentile has ten samples beyond it.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, fmt.Errorf("%d samples: a tail needs at least %d", n, tailBeyond+1)
	}
	s := sortedCopy(xs)
	return tail{Value: s[n-1-tailBeyond], Pct: 100 * float64(n-tailBeyond) / float64(n), Samples: n}, nil
}

// opCount tallies the operations of a run for its failed fraction: one
// committee evaluation on the optimizer workloads, one study on the
// service sweep.
type opCount struct {
	Attempted, Failed int64
}

func (c *opCount) add(attempted, failed int64) {
	c.Attempted += attempted
	c.Failed += failed
}

// frac returns failed/attempted, or 0 when nothing was attempted.
func (c opCount) frac() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Failed) / float64(c.Attempted)
}

// frontDigest hashes a front's decision vectors, objectives and
// violations, exactly (hex floats), in a canonical order, so two fronts
// digest equal only when they hold bit-identical solutions.
func frontDigest(front []*moo.Solution) string {
	lines := make([]string, len(front))
	for i, s := range front {
		b := []byte{}
		for _, v := range s.X {
			b = strconv.AppendFloat(append(b, ' '), v, 'x', -1, 64)
		}
		b = append(b, '|')
		for _, v := range s.F {
			b = strconv.AppendFloat(append(b, ' '), v, 'x', -1, 64)
		}
		b = strconv.AppendFloat(append(b, " | "...), s.Violation, 'x', -1, 64)
		lines[i] = string(b)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// combineDigests folds named digests into one, in name order.
func combineDigests(byName map[string]string) string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, byName[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// frontHV is the hypervolume of the feasible part of a front against a
// fixed reference point.
func frontHV(front []*moo.Solution, ref []float64) float64 {
	var pts []indicators.Point
	for _, s := range front {
		if s.Feasible() {
			pts = append(pts, indicators.Point(s.F))
		}
	}
	return indicators.Hypervolume(pts, indicators.Point(ref))
}

// maxRSSMB returns the peak resident set size of this process in MB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}
