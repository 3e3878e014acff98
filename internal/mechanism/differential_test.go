package mechanism

import (
	"errors"
	"runtime"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/setcover"
	"crowdsense/internal/stats"
)

// referenceKnapsack is the retained seed solver for SingleTask.run: every
// solve, allocation and probe alike, rebuilds the instance and runs
// knapsack.SolveFPTASReference.
func referenceKnapsack(eps float64) func(*knapsack.Instance) knapsackSolve {
	return func(in *knapsack.Instance) knapsackSolve {
		return func(_ *span.Span, i int, q float64) (knapsack.Solution, error) {
			if i < 0 {
				return knapsack.SolveFPTASReference(in, eps)
			}
			mod, err := in.WithContribution(i, q)
			if err != nil {
				return knapsack.Solution{}, err
			}
			return knapsack.SolveFPTASReference(mod, eps)
		}
	}
}

// setProcs sets runtime.GOMAXPROCS to n, the bound of the per-winner
// critical-bid fan-out, until tb ends; tb.Cleanup restores the previous
// setting.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// referenceCover is the retained seed cover for MultiTask.run.
func referenceCover(a *auction.Auction, _ *span.Span) (setcover.Solution, error) {
	return setcover.GreedyReference(a)
}

// assertSameOutcome pins an optimized mechanism run to a reference-solver
// run bit for bit: same winners, same social cost, and — the part the paper
// cares about — identical awards (critical bids and both execution-
// contingent reward levels).
func assertSameOutcome(t *testing.T, trial int, got, want *Outcome) {
	t.Helper()
	if got.SocialCost != want.SocialCost {
		t.Fatalf("trial %d: social cost %g, reference %g", trial, got.SocialCost, want.SocialCost)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
		}
	}
	if len(got.Awards) != len(want.Awards) {
		t.Fatalf("trial %d: %d awards, reference %d", trial, len(got.Awards), len(want.Awards))
	}
	for i := range got.Awards {
		g, w := got.Awards[i], want.Awards[i]
		if g.BidIndex != w.BidIndex || g.User != w.User {
			t.Fatalf("trial %d award %d: winner (%d,%d), reference (%d,%d)",
				trial, i, g.BidIndex, g.User, w.BidIndex, w.User)
		}
		if g.CriticalContribution != w.CriticalContribution {
			t.Fatalf("trial %d award %d: critical q %.17g, reference %.17g",
				trial, i, g.CriticalContribution, w.CriticalContribution)
		}
		if g.RewardOnSuccess != w.RewardOnSuccess || g.RewardOnFailure != w.RewardOnFailure {
			t.Fatalf("trial %d award %d: rewards (%g,%g), reference (%g,%g)",
				trial, i, g.RewardOnSuccess, g.RewardOnFailure, w.RewardOnSuccess, w.RewardOnFailure)
		}
	}
}

// TestSingleTaskMatchesReferenceSolvers runs the full mechanism — FPTAS
// allocation plus per-winner binary-search critical bids — through the
// optimized Solver and through the retained seed implementation, across
// randomized auctions, and requires identical winners and payments.
func TestSingleTaskMatchesReferenceSolvers(t *testing.T) {
	rng := stats.NewRand(51)
	for trial := 0; trial < 40; trial++ {
		a := randomSingleAuction(rng, 5+rng.Intn(25), 0.8)
		opt := &SingleTask{Epsilon: 0.5, Alpha: 10}
		got, errGot := opt.Run(a)
		want, errWant := opt.run(a, referenceKnapsack(opt.epsilon()))
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: err %v vs reference %v", trial, errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, ErrInfeasible) {
				t.Fatalf("trial %d: %v", trial, errGot)
			}
			continue
		}
		assertSameOutcome(t, trial, got, want)
		if got.Stats.DPReuse == 0 {
			t.Errorf("trial %d: DPReuse = 0, want workspace pool hits across critical-bid probes", trial)
		}
	}
}

// TestMultiTaskMatchesReferenceSolvers does the same for the multi-task
// mechanism in both critical-bid modes: the lazy-greedy cover (and its
// iteration trace, which prices Algorithm 5 rewards) must reproduce the
// seed's payments exactly.
func TestMultiTaskMatchesReferenceSolvers(t *testing.T) {
	rng := stats.NewRand(52)
	for _, mode := range []CriticalBidMode{CriticalBidPaper, CriticalBidScaled} {
		for trial := 0; trial < 25; trial++ {
			a := randomMultiAuction(rng, 6+rng.Intn(20), 2+rng.Intn(6), 0.8)
			opt := &MultiTask{Alpha: 10, CriticalBid: mode}
			got, errGot := opt.Run(a)
			want, errWant := opt.run(a, referenceCover)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("mode %d trial %d: err %v vs reference %v", mode, trial, errGot, errWant)
			}
			if errGot != nil {
				if !errors.Is(errGot, ErrInfeasible) {
					t.Fatalf("mode %d trial %d: %v", mode, trial, errGot)
				}
				continue
			}
			assertSameOutcome(t, trial, got, want)
			if got.Stats.LazyReevals == 0 {
				t.Errorf("mode %d trial %d: LazyReevals = 0, want eval accounting", mode, trial)
			}
		}
	}
}

// TestSingleTaskFanOutMatchesSerial pins the per-winner critical-bid
// fan-out to the serial path on auctions of 64 to 100 bids: GOMAXPROCS must
// change scheduling only, never awards nor the allocation's DP work gauges.
func TestSingleTaskFanOutMatchesSerial(t *testing.T) {
	rng := stats.NewRand(54)
	m := &SingleTask{Epsilon: 0.5, Alpha: 10}
	for trial := 0; trial < 4; trial++ {
		a := randomSingleAuction(rng, 64+rng.Intn(37), 0.8)
		setProcs(t, 8)
		got, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		setProcs(t, 1)
		want, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, trial, got, want)
		if got.Stats.DPCells != want.Stats.DPCells || got.Stats.DPPruned != want.Stats.DPPruned {
			t.Fatalf("trial %d: fanned cells %d pruned %d, serial cells %d pruned %d", trial,
				got.Stats.DPCells, got.Stats.DPPruned, want.Stats.DPCells, want.Stats.DPPruned)
		}
	}
}

// TestMultiTaskFanOutMatchesSerial pins the bounded per-winner fan-out to
// the serial path: GOMAXPROCS must change scheduling only, never awards.
func TestMultiTaskFanOutMatchesSerial(t *testing.T) {
	rng := stats.NewRand(53)
	m := &MultiTask{Alpha: 10, CriticalBid: CriticalBidScaled}
	for trial := 0; trial < 10; trial++ {
		a := randomMultiAuction(rng, 20, 6, 0.8)
		setProcs(t, 8)
		got, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		setProcs(t, 1)
		want, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, trial, got, want)
	}
}
