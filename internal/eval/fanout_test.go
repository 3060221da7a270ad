package eval

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// forceFanOut raises GOMAXPROCS for the test so the derived committee
// width is above 1 even on a single-core host; the default path then
// really runs helper goroutines.
func forceFanOut(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDefaultFanOutMatchesSerialOnGoldenCorpus: the default committee
// fan-out and an explicitly serial committee (WithScenarioWorkers(1))
// must both reproduce the committed golden corpus bit-for-bit at every
// paper density.
func TestDefaultFanOutMatchesSerialOnGoldenCorpus(t *testing.T) {
	forceFanOut(t)
	for _, e := range loadGoldenEntries(t) {
		name := fmt.Sprintf("d%d/seed%d", e.Density, e.Seed)
		want := e.want(false)
		assertGoldenMetrics(t, name+" [default fan-out]", want, simulateCase(e.goldenCase))
		assertGoldenMetrics(t, name+" [serial committee]", want, simulateCase(e.goldenCase, WithScenarioWorkers(1)))
	}
}

// TestColdFanOutConcurrentProblemsBitIdentical: first Evaluates on
// committee seeds no other test uses — so every warm-up parent, mask and
// beacon tape is built by the fanned-out committee itself — run
// concurrently from several Problems per density, racing each other on
// the process-wide caches, must match an isolated serial Problem (no
// shared caches, WithScenarioWorkers(1)) bit-for-bit. Run under -race
// this is the data-race detector of the fan-out's first-use builds.
func TestColdFanOutConcurrentProblemsBitIdentical(t *testing.T) {
	forceFanOut(t)
	const committee = 5
	seeds := []uint64{0xFA0_0001, 0xFA0_0002}
	rounds := 2 // concurrent Problems per (density, seed)
	if testing.Short() {
		seeds = seeds[:1]
	}
	xs := neighborhood(2, 29)
	densities := []int{100, 200, 300}

	type key struct {
		density int
		seed    uint64
	}
	want := map[key][]Metrics{}
	for _, d := range densities {
		for _, seed := range seeds {
			iso := NewProblem(d, seed, WithCommittee(committee), WithScenarioWorkers(1),
				WithSharedTapes(false), WithSharedWarmups(false))
			for _, x := range xs {
				_, _, aux := iso.Evaluate(x)
				want[key{d, seed}] = append(want[key{d, seed}], aux.(Metrics))
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(densities)*len(seeds))
	for r := 0; r < rounds; r++ {
		for _, d := range densities {
			for _, seed := range seeds {
				wg.Add(1)
				go func(k key) {
					defer wg.Done()
					p := NewProblem(k.density, k.seed, WithCommittee(committee))
					for j, x := range xs {
						_, _, aux := p.Evaluate(x)
						if aux.(Metrics) != want[k][j] {
							errs <- fmt.Sprintf("d%d seed %#x vector %d: fanned-out metrics diverged from the serial isolated problem",
								k.density, k.seed, j)
							return
						}
					}
					if err := p.WarmStartError(); err != nil {
						errs <- err.Error()
					}
				}(key{d, seed})
			}
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
