package mechanism

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/stats"
)

// criticalSink tallies the wd.critical_bid spans of traced runs: searches,
// solver probes, the most probes one search took, and certification
// fallbacks.
type criticalSink struct {
	mu                                     sync.Mutex
	searches, probes, maxProbes, fallbacks int64
}

func (c *criticalSink) Emit(rec *span.Record) {
	if rec.Name != span.NameCriticalBid {
		return
	}
	probes, _ := rec.Attrs.Int("probes")
	fallback, _ := rec.Attrs.Int("fallback")
	c.mu.Lock()
	defer c.mu.Unlock()
	c.searches++
	c.probes += probes
	c.maxProbes = max(c.maxProbes, probes)
	c.fallbacks += fallback
}

// traced returns m with a root span over sink as its trace parent.
func traced(m SingleTask, sink span.Sink) *SingleTask {
	m.Trace = span.New(sink).Start("test")
	return &m
}

// bisectOnly drives SingleTask.run through the optimized Solver with no
// guess, so every winner is priced by the plain bisection: the oracle the
// certified path must reproduce bit for bit.
func bisectOnly(eps float64) func(*knapsack.Instance) (knapsackSolve, criticalGuess) {
	return func(in *knapsack.Instance) (knapsackSolve, criticalGuess) {
		return solverSolve(knapsack.NewSolver(in, eps)), nil
	}
}

// certifyCase is one auction priced by both paths.
type certifyCase struct {
	name string
	m    SingleTask
	a    *auction.Auction
}

// certifyCases is the differential's instance set: the Fig. 5a grid
// (n = 20..100 step 5) at ε 0.5, n ≤ 40 at ε 0.1, both at requirements 0.8
// and 0.95; n = 5..12, where high requirements make winners pivotal; and
// the grid's small end with a fixed-factor PoS adjuster installed.
func certifyCases() []certifyCase {
	rng := stats.NewRand(91)
	var cases []certifyCase
	add := func(name string, m SingleTask, n int, req float64) {
		cases = append(cases, certifyCase{
			name: fmt.Sprintf("%s/n=%d/req=%g", name, n, req),
			m:    m,
			a:    randomSingleAuction(rng, n, req),
		})
	}
	for _, req := range []float64{0.8, 0.95} {
		for n := 20; n <= 100; n += 5 {
			add("fig5a", SingleTask{Epsilon: 0.5, Alpha: 10}, n, req)
		}
		for n := 10; n <= 40; n += 10 {
			add("eps0.1", SingleTask{Epsilon: 0.1, Alpha: 10}, n, req)
		}
		for n := 5; n <= 12; n++ {
			add("small", SingleTask{Epsilon: 0.5, Alpha: 10}, n, req)
		}
	}
	for n := 6; n <= 30; n += 4 {
		a := randomSingleAuction(rng, n, 0.6)
		cases = append(cases, certifyCase{
			name: fmt.Sprintf("adjuster/n=%d", n),
			m:    SingleTask{Epsilon: 0.5, Alpha: 10, Adjuster: randomFactors(rng, a)},
			a:    a,
		})
	}
	return cases
}

// TestSingleTaskCertifiedMatchesBisect pins the certified critical bid to
// the plain bisection on the same optimized Solver: identical winners,
// critical contributions and rewards, with no winner falling back to the
// bisection. The certified side runs with an 8-wide winner fan-out.
func TestSingleTaskCertifiedMatchesBisect(t *testing.T) {
	setProcs(t, 8)
	var sink criticalSink
	winners := 0
	for trial, tc := range certifyCases() {
		got, err := traced(tc.m, &sink).Run(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.m.run(tc.a, bisectOnly(tc.m.epsilon()))
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		t.Run(tc.name, func(t *testing.T) { assertSameOutcome(t, trial, got, want) })
		winners += len(got.Selected)
	}
	if sink.searches != int64(winners) {
		t.Errorf("%d critical-bid spans for %d winners", sink.searches, winners)
	}
	if sink.fallbacks != 0 {
		t.Errorf("%d of %d winners fell back to bisection, want 0", sink.fallbacks, winners)
	}
}

// TestSingleTaskCertifiedWrongGuess forces guesses the probes must refute:
// every refuted winner falls back to the real bisection, so the outcome
// still matches the oracle bit for bit.
func TestSingleTaskCertifiedWrongGuess(t *testing.T) {
	rng := stats.NewRand(92)
	for _, g := range []struct {
		name  string
		guess func(in *knapsack.Instance, i int) float64
	}{
		{"third", func(in *knapsack.Instance, i int) float64 { return in.Contribs[i] / 3 }},
		{"NaN", func(*knapsack.Instance, int) float64 { return math.NaN() }},
	} {
		t.Run(g.name, func(t *testing.T) {
			var sink criticalSink
			for trial := 0; trial < 6; trial++ {
				a := randomSingleAuction(rng, 10+5*trial, 0.8)
				m := traced(SingleTask{Epsilon: 0.5, Alpha: 10}, &sink)
				got, err := m.run(a, func(in *knapsack.Instance) (knapsackSolve, criticalGuess) {
					return solverSolve(knapsack.NewSolver(in, m.epsilon())), func(i int) (float64, int, error) {
						return g.guess(in, i), 0, nil
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.run(a, bisectOnly(m.epsilon()))
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutcome(t, trial, got, want)
			}
			if sink.fallbacks == 0 {
				t.Error("no winner fell back on a wrong guess")
			}
		})
	}
}

// TestSingleTaskCriticalBidProbeBudget holds a seeded Fig. 5a grid run to
// at most three solver probes per winner (the declared-contribution check
// plus the two certifying probes), so a slide back to the ~31-probe
// bisection fails here.
func TestSingleTaskCriticalBidProbeBudget(t *testing.T) {
	rng := stats.NewRand(93)
	var sink criticalSink
	winners := 0
	for n := 20; n <= 100; n += 5 {
		out, err := traced(SingleTask{Epsilon: 0.5, Alpha: 10}, &sink).Run(randomSingleAuction(rng, n, 0.8))
		if err != nil {
			t.Fatal(err)
		}
		winners += len(out.Selected)
	}
	if sink.searches != int64(winners) || winners == 0 {
		t.Fatalf("%d critical-bid spans for %d winners", sink.searches, winners)
	}
	if sink.maxProbes > 3 {
		t.Errorf("a critical-bid search took %d probes (%d over %d winners), want ≤ 3 each",
			sink.maxProbes, sink.probes, winners)
	}
}
