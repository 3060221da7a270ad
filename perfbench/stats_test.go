package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		samples int
	}{
		// Eleven samples: only the smallest has ten beyond it.
		{n: 11, value: 1, pct: 100 * 1.0 / 11, samples: 11},
		// 100 samples: the 90th has exactly ten beyond it.
		{n: 100, value: 90, pct: 90, samples: 100},
		{n: 132, value: 122, pct: 100 * 122.0 / 132, samples: 132},
		{n: 1000, value: 990, pct: 99, samples: 1000},
	} {
		got, err := tailOf(seq(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-12 || got.Samples != tc.samples {
			t.Errorf("n=%d: got %+v, want value %v pct %v samples %d", tc.n, got, tc.value, tc.pct, tc.samples)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, err := tailOf(seq(n)); err == nil {
			t.Errorf("n=%d: tail reported, but no percentile has ten samples beyond it", n)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	var c opCount
	if c.frac() != 0 {
		t.Fatalf("empty count: frac %v, want 0", c.frac())
	}
	// Three optimizer runs' worth of committee evaluations, one with
	// two degraded candidates.
	c.add(500, 0)
	c.add(500, 2)
	c.add(500, 0)
	if c.Attempted != 1500 || c.Failed != 2 {
		t.Fatalf("count %+v, want 1500 attempted, 2 failed", c)
	}
	if got, want := c.frac(), 2.0/1500; got != want {
		t.Fatalf("frac %v, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{0.07}, 0.07},
		{[]float64{0.09, 0.06, 0.07}, 0.07},
		{[]float64{0.10, 0.06, 0.08, 0.07}, 0.075},
		// One slow outlier among cold builds leaves the median alone.
		{[]float64{0.061, 0.059, 0.300, 0.060, 0.062}, 0.061},
	} {
		in := append([]float64(nil), tc.xs...)
		if got := median(tc.xs); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("median reordered its input")
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

// TestSetupPhase checks that setup_s is taken over setupBuilds distinct
// cold builds: each build's problem seed is new, so each one pays the
// warm-up and tape recording.
func TestSetupPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fifteen committees")
	}
	b := &bench{seed: 7}
	seeds := newSeeds(b.seed, "setup")
	seen := map[uint64]bool{}
	for i := 0; i < setupBuilds; i++ {
		seen[seeds.next()] = true
	}
	if len(seen) != setupBuilds {
		t.Fatalf("%d distinct setup seeds, want %d", len(seen), setupBuilds)
	}
	c := newColdBuilds(b, 100, 300)
	if err := c.upTo(3); err != nil {
		t.Fatal(err)
	}
	if len(c.durs) != 3 {
		t.Fatalf("%d builds after upTo(3)", len(c.durs))
	}
	if err := c.upTo(setupBuilds + 5); err != nil {
		t.Fatal(err)
	}
	durs := c.durs
	if len(durs) != setupBuilds {
		t.Fatalf("%d setup samples, want %d", len(durs), setupBuilds)
	}
	for _, d := range durs {
		if d <= 0 {
			t.Fatalf("non-positive build time %v", d)
		}
	}
}
