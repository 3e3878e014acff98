// Package mechanism implements the paper's strategy-proof incentive
// mechanisms for mobile crowdsensing with execution uncertainty:
//
//   - SingleTask (§III-B): FPTAS winner determination for minimum knapsack
//     (Algorithm 2) with a binary-search critical bid and execution-
//     contingent reward (Algorithm 3);
//   - MultiTask (§III-C): greedy submodular set-cover winner determination
//     (Algorithm 4) with a min-over-iterations critical bid and execution-
//     contingent reward (Algorithm 5);
//   - STVCG / MTVCG (§IV-E): the naive VCG-like baselines that trust
//     declared PoS, used to demonstrate why ignoring execution uncertainty
//     under-provisions tasks.
//
// Every mechanism consumes a validated *auction.Auction of declared types
// and produces an Outcome: the selected users, the social cost, and one
// Award per winner carrying the critical PoS p̄ and the two
// execution-contingent reward levels
//
//	success: (1−p̄)·α + c,   failure: −p̄·α + c,
//
// so a truthful winner's expected utility is (p − p̄)·α ≥ 0 (Theorems 1
// and 4).
package mechanism

import (
	"errors"
	"fmt"
	"sync"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
)

// Sentinel errors.
var (
	// ErrNotSingleTask is returned when a single-task mechanism receives a
	// multi-task auction.
	ErrNotSingleTask = errors.New("mechanism: auction is not single-task")
	// ErrInfeasible is returned when no selection of users can satisfy the
	// task requirements.
	ErrInfeasible = errors.New("mechanism: task requirements unreachable")
)

// DefaultAlpha is the paper's default reward scaling factor (Table II).
const DefaultAlpha = 10.0

// PoSAdjuster rewrites declared per-task PoS values immediately before
// winner determination — the hook the platform's reputation layer uses to
// run the mechanism on reliability-discounted declarations (r̂·p̂, capped).
// Bid costs and task sets pass through untouched, so social cost and the
// cost term of every reward stay declared. PoS does not stay declared in
// the payments: Run replaces the auction with the adjusted one, so each
// winner's critical PoS, the EC reward pair built from it and
// ExpectedUtility are all computed on adjusted PoS. A winner is paid
// against her adjusted threshold, not her threshold in declared terms,
// which can make an over-claim profitable within a round (ROADMAP: "The
// reputation discount breaks strategy-proofness within a round").
//
// Implementations must return a probability; values that are NaN or outside
// [0, 1) are clamped into range. Mechanisms run on a worker pool, so
// AdjustPoS must be safe for concurrent use.
type PoSAdjuster interface {
	AdjustPoS(user auction.UserID, task auction.TaskID, declared float64) float64
}

// adjustAuction rebuilds the auction with every bid's PoS map passed
// through adj. A nil adjuster returns the auction unchanged. Costs, task
// sets, and bid order are preserved, so Outcome.Selected / Award.BidIndex
// keep indexing the caller's bid slice.
func adjustAuction(a *auction.Auction, adj PoSAdjuster) (*auction.Auction, error) {
	if adj == nil {
		return a, nil
	}
	bids := make([]auction.Bid, len(a.Bids))
	for i, bid := range a.Bids {
		pos := make(map[auction.TaskID]float64, len(bid.PoS))
		for id, p := range bid.PoS {
			q := adj.AdjustPoS(bid.User, id, p)
			switch {
			case q != q || q < 0: // NaN or negative: no usable adjustment
				q = 0
			case q >= 1:
				q = 1 - 1e-12
			}
			pos[id] = q
		}
		bids[i] = auction.NewBid(bid.User, bid.Tasks, bid.Cost, pos)
	}
	adjusted, err := auction.New(a.Tasks, bids)
	if err != nil {
		return nil, fmt.Errorf("mechanism: adjusted auction invalid: %w", err)
	}
	return adjusted, nil
}

// Award is a winner's reward contract under the execution-contingent
// scheme.
type Award struct {
	BidIndex int            // index into the auction's bid slice
	User     auction.UserID // the winner

	CriticalContribution float64 // q̄: minimum total contribution to win
	CriticalPoS          float64 // p̄ = 1 − e^(−q̄)

	RewardOnSuccess float64 // (1−p̄)·α + c
	RewardOnFailure float64 // −p̄·α + c

	// ExpectedUtility is the winner's expected utility under her declared
	// type: (p − p̄)·α in the single-task setting and
	// (e^(−q̄) − e^(−Σq))·α in the multi-task setting (Equation 6). For
	// truthful users this is the true expected utility and must be ≥ 0.
	ExpectedUtility float64
}

// Stats counts the work a winner-determination call did, for the
// observability layer: how many winners it picked, the total payment it
// committed, and how large the underlying combinatorial search was (DP
// table cells for the single-task FPTAS, greedy iterations for the
// multi-task cover). The solver-efficiency counters aggregate across the
// allocation AND every critical-bid re-solve of the call: DP subproblems
// the incumbent bound pruned, DP workspace checkouts served by the pool,
// and lazy-greedy effective-contribution evaluations (the CELF saving over
// a full rescan). Gauges, not invariants — they describe the last run.
type Stats struct {
	Winners      int     `json:"winners"`
	TotalPayment float64 `json:"total_payment"` // Σ RewardOnSuccess across awards
	DPCells      int64   `json:"dp_cells,omitempty"`
	GreedyIters  int     `json:"greedy_iters,omitempty"`
	DPPruned     int64   `json:"dp_pruned,omitempty"`
	DPReuse      int64   `json:"dp_reuse,omitempty"`
	LazyReevals  int64   `json:"lazy_reevals,omitempty"`
}

// Outcome is a mechanism's full result.
type Outcome struct {
	Mechanism  string  // name of the mechanism that produced the outcome
	Selected   []int   // winning bid indices, ascending
	SocialCost float64 // Σ costs of winners
	Awards     []Award // one per winner, same order as Selected
	Alpha      float64 // EC reward scale the awards were priced at (0 = not an EC outcome)
	Stats      Stats   // winner-determination work counters
}

// fillStats derives the award-dependent stats fields; mechanisms call it
// once their Awards slice is final.
func (o *Outcome) fillStats() {
	o.Stats.Winners = len(o.Selected)
	total := 0.0
	for _, aw := range o.Awards {
		total += aw.RewardOnSuccess
	}
	o.Stats.TotalPayment = total
}

// AwardFor returns the award of the given bid index.
func (o *Outcome) AwardFor(bidIndex int) (Award, bool) {
	for _, aw := range o.Awards {
		if aw.BidIndex == bidIndex {
			return aw, true
		}
	}
	return Award{}, false
}

// Winner reports whether the bid index won.
func (o *Outcome) Winner(bidIndex int) bool {
	_, ok := o.AwardFor(bidIndex)
	return ok
}

// Mechanism is a complete auction mechanism: allocation plus rewards.
type Mechanism interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// Run executes the mechanism on declared types.
	Run(a *auction.Auction) (*Outcome, error)
}

// ecAward assembles an execution-contingent award from a critical
// contribution.
func ecAward(bidIndex int, bid auction.Bid, criticalQ, declaredTotalQ, alpha float64) Award {
	criticalPoS := auction.PoS(criticalQ)
	return Award{
		BidIndex:             bidIndex,
		User:                 bid.User,
		CriticalContribution: criticalQ,
		CriticalPoS:          criticalPoS,
		RewardOnSuccess:      (1-criticalPoS)*alpha + bid.Cost,
		RewardOnFailure:      -criticalPoS*alpha + bid.Cost,
		ExpectedUtility:      (auction.PoS(declaredTotalQ) - criticalPoS) * alpha,
	}
}

// priceWinners fills out.Awards with every winner's execution-contingent
// award. The critical-bid searches are independent per winner, so they fan
// out over at most par goroutines; each runs under its own wd.critical_bid
// span under trace, which ends with the search's work count (attribute
// work) and critical_q, or with the error. critical returns the winner's
// critical contribution and work count; declared returns the bid's
// declared contribution the award is priced against. The first error wins.
func priceWinners(trace *span.Span, par int, a *auction.Auction, out *Outcome, work string,
	declared func(auction.Bid) float64,
	critical func(sp *span.Span, winner int) (float64, int64, error)) error {
	sem := make(chan struct{}, par)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for slot, winner := range out.Selected {
		wg.Add(1)
		go func(slot, winner int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cb := trace.Child(span.NameCriticalBid, span.Int("winner", int64(winner)))
			criticalQ, n, err := critical(cb, winner)
			if err != nil {
				cb.EndWith(span.Str("error", err.Error()))
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			cb.EndWith(span.Int(work, n), span.Float("critical_q", criticalQ))
			bid := a.Bids[winner]
			out.Awards[slot] = ecAward(winner, bid, criticalQ, declared(bid), out.Alpha)
		}(slot, winner)
	}
	wg.Wait()
	return firstErr
}

// bisect is the critical-bid search: wins must be monotone on [lo, hi],
// losing at lo and winning at hi. It halves the bracket until it is at most
// tol wide and returns its winning end; an error from wins aborts the
// search and is returned.
func bisect(lo, hi, tol float64, wins func(x float64) (bool, error)) (float64, error) {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		w, err := wins(mid)
		if err != nil {
			return 0, err
		}
		if w {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// requireAlpha normalizes a reward scale.
func requireAlpha(alpha float64) (float64, error) {
	if alpha == 0 {
		return DefaultAlpha, nil
	}
	if alpha < 0 {
		return 0, fmt.Errorf("mechanism: reward scale must be positive, got %g", alpha)
	}
	return alpha, nil
}
