package mechanism

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/setcover"
)

// CriticalBidMode selects how the multi-task critical bid is computed.
type CriticalBidMode int

const (
	// CriticalBidPaper is Algorithm 5 as printed: rerun the allocation
	// without the user and take the minimum over iterations of
	// (c_i/c_k)·Σ_j min{Q̄_j, q_k^j}. The threshold is priced against
	// EFFECTIVE contributions, so it can underestimate the total
	// contribution a user actually needs to win: Theorem 4's proof assumes
	// a truthful loser fails already in the first iteration, which does not
	// hold on every instance, and on such instances a loser can profitably
	// inflate her declaration. See DESIGN.md ("Algorithm 5 gap").
	CriticalBidPaper CriticalBidMode = iota + 1
	// CriticalBidScaled closes that gap for scaled deviations: it binary-
	// searches the minimal factor s such that declaring s·(q_i^j)_j still
	// wins (monotone by Lemma 2) and prices the reward at q̄ = s*·Σ_j q_i^j.
	// Within the family of scaled misreports the mechanism is then exactly
	// strategy-proof: winning utility (e^(−q̄) − e^(−Σq))·α is independent
	// of the declaration and non-negative exactly when truthful bidding
	// wins.
	CriticalBidScaled
)

// MultiTask is the paper's multi-task, single-minded mechanism (§III-C):
// greedy submodular set-cover winner determination (Algorithm 4) and
// critical-bid rewards with execution-contingent payments (Algorithm 5, or
// the exact scaled-threshold variant — see CriticalBidMode).
type MultiTask struct {
	// Alpha is the reward scaling factor; zero uses DefaultAlpha.
	Alpha float64
	// CriticalBid selects the critical-bid computation; zero means
	// CriticalBidPaper.
	CriticalBid CriticalBidMode
	// Parallelism bounds the goroutines used for per-winner critical-bid
	// searches; non-positive uses GOMAXPROCS.
	Parallelism int
	// Trace, when non-nil, is the parent span under which Run emits
	// wd.allocate, wd.critical_bid, and per-rerun setcover.greedy spans. Nil
	// disables tracing at zero cost.
	Trace *span.Span
	// Adjuster, when non-nil, rewrites declared PoS before winner
	// determination (see PoSAdjuster). Costs stay declared; the critical
	// PoS and the EC reward pair are computed on the adjusted PoS.
	Adjuster PoSAdjuster
}

var _ Mechanism = (*MultiTask)(nil)

// Name implements Mechanism.
func (m *MultiTask) Name() string { return "multi-task greedy" }

func (m *MultiTask) parallelism() int {
	if m.Parallelism > 0 {
		return m.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// coverSolve is the cover one MultiTask run prices through, emitting a
// setcover.greedy span under sp. Run passes setcover.GreedyTraced; the
// differential tests and reference benchmarks pass the retained seed cover.
type coverSolve func(a *auction.Auction, sp *span.Span) (setcover.Solution, error)

// Run executes winner determination and reward calculation. Per-winner
// critical-bid searches are independent and fan out across a bounded worker
// pool, mirroring SingleTask.
func (m *MultiTask) Run(a *auction.Auction) (*Outcome, error) {
	return m.run(a, setcover.GreedyTraced)
}

// run is Run with every cover, allocation and rerun alike, solved by solve.
func (m *MultiTask) run(a *auction.Auction, solve coverSolve) (*Outcome, error) {
	alpha, err := requireAlpha(m.Alpha)
	if err != nil {
		return nil, err
	}
	if a, err = adjustAuction(a, m.Adjuster); err != nil {
		return nil, err
	}
	allocSpan := m.Trace.Child(span.NameAllocate,
		span.Int("bids", int64(len(a.Bids))), span.Int("tasks", int64(len(a.Tasks))))
	sol, err := solve(a, allocSpan)
	if err != nil {
		allocSpan.EndWith(span.Str("error", err.Error()))
		if errors.Is(err, setcover.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	allocSpan.EndWith(span.Int("winners", int64(len(sol.Selected))), span.Float("social_cost", sol.Cost))
	out := &Outcome{
		Mechanism:  m.Name(),
		Selected:   sol.Selected,
		SocialCost: sol.Cost,
		Awards:     make([]Award, len(sol.Selected)),
		Alpha:      alpha,
		Stats:      Stats{GreedyIters: len(sol.Iterations)},
	}
	var reevals atomic.Int64
	reevals.Add(sol.Evals)
	err = priceWinners(m.Trace, m.parallelism(), a, out, "evals",
		auction.Bid.TotalContribution,
		func(sp *span.Span, winner int) (criticalQ float64, evals int64, err error) {
			switch m.CriticalBid {
			case CriticalBidScaled:
				criticalQ, evals, err = criticalContributionScaled(sp, a, winner, solve)
			case CriticalBidPaper, 0:
				criticalQ, evals, err = criticalContributionMulti(sp, a, winner, solve)
			default:
				err = fmt.Errorf("mechanism: unknown critical bid mode %d", m.CriticalBid)
			}
			reevals.Add(evals)
			return criticalQ, evals, err
		})
	if err != nil {
		return nil, err
	}
	out.Stats.LazyReevals = reevals.Load()
	out.fillStats()
	return out, nil
}

// criticalContributionScaled binary-searches the minimal scale s ∈ [0, 1]
// such that user i still wins when declaring s·(q_i^j)_j with everyone
// else fixed, and returns q̄ = s*·Σ_j q_i^j plus the solver evaluations the
// reruns performed. Greedy selection is monotone in every contribution
// (Lemma 2), hence monotone in s, so the threshold is well defined. The
// search runs in the PoS domain: scaling contribution by s maps p to
// 1−(1−p)^s.
func criticalContributionScaled(sp *span.Span, a *auction.Auction, i int, solve coverSolve) (float64, int64, error) {
	total := a.Bids[i].TotalContribution()
	if total <= 0 {
		return 0, 0, nil
	}
	var evals int64
	// s = 0 loses (zero contribution), s = 1 wins (declared).
	s, err := bisect(0, 1, 1e-9, func(s float64) (bool, error) {
		wins, e, err := winsWithScale(sp, a, i, s, solve)
		evals += e
		return wins, err
	})
	return s * total, evals, err
}

// winsWithScale reports whether bid i is selected by the greedy allocation
// when its contributions are scaled by s.
func winsWithScale(sp *span.Span, a *auction.Auction, i int, s float64, solve coverSolve) (bool, int64, error) {
	orig := a.Bids[i]
	scaled := make(map[auction.TaskID]float64, len(orig.PoS))
	for id, p := range orig.PoS {
		// contribution s·q corresponds to PoS 1−(1−p)^s.
		scaled[id] = auction.PoS(s * auction.Contribution(p))
	}
	mod, err := a.WithBid(i, auction.NewBid(orig.User, orig.Tasks, orig.Cost, scaled))
	if err != nil {
		return false, 0, err
	}
	sol, err := solve(mod, sp)
	if err != nil {
		if errors.Is(err, setcover.ErrInfeasible) {
			return false, sol.Evals, nil
		}
		return false, sol.Evals, err
	}
	return sol.Contains(i), sol.Evals, nil
}

// criticalContributionMulti is Algorithm 5's critical bid for winner i: the
// allocation is re-run without user i, and in each iteration — where user k
// wins against the remaining requirements Q̄ — user i would have needed a
// total effective contribution of at least (c_i/c_k)·Σ_j min{Q̄_j, q_k^j}
// to be picked instead. The critical bid is the minimum of those
// thresholds.
//
// If the instance is infeasible without user i, she is pivotal: the greedy
// loop must eventually select her no matter how small her declared
// contribution, so her critical bid is the infimum 0 (any threshold
// observed before the rerun stalls still applies and is used if smaller —
// it cannot be, since 0 is minimal). The paper assumes a competitive market
// where this does not arise; see DESIGN.md.
func criticalContributionMulti(sp *span.Span, a *auction.Auction, i int, solve coverSolve) (float64, int64, error) {
	rest, err := a.WithoutBid(i)
	if err != nil {
		if errors.Is(err, auction.ErrNoBids) {
			return 0, 0, nil // only bidder: pivotal
		}
		return 0, 0, err
	}
	sol, err := solve(rest, sp)
	if err != nil {
		if errors.Is(err, setcover.ErrInfeasible) {
			return 0, sol.Evals, nil // pivotal: wins with any positive declaration
		}
		return 0, sol.Evals, err
	}
	ci := a.Bids[i].Cost
	critical := math.Inf(1)
	for _, it := range sol.Iterations {
		// Bid indices in `rest` at or above i shifted down by one.
		kRest := it.Winner
		k := kRest
		if kRest >= i {
			k = kRest + 1
		}
		ck := a.Bids[k].Cost
		threshold := ci / ck * it.Effective
		if threshold < critical {
			critical = threshold
		}
	}
	if math.IsInf(critical, 1) {
		// No iterations means the requirements were already satisfied with
		// no users — impossible for validated auctions with positive
		// requirements.
		return 0, sol.Evals, fmt.Errorf("mechanism: empty rerun trace for winner %d", i)
	}
	return critical, sol.Evals, nil
}
