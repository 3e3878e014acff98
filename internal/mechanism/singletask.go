package mechanism

import (
	"errors"
	"fmt"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/obs/span"
)

// CriticalBidTol is the absolute tolerance of the binary search for the
// single-task critical contribution.
const CriticalBidTol = 1e-9

// SingleTask is the paper's single-task mechanism (§III-B): winner
// determination by the minimum-knapsack FPTAS (Algorithm 2) and rewards by
// critical bids with execution-contingent payments (Algorithm 3). Each
// winner's critical bid is the value Algorithm 3's binary search returns,
// found from a closed-form leave-one-out guess (knapsack.Solver.LeaveOneOut)
// certified by two solver probes, with the full binary search as fallback.
//
// Winner determination and every critical-bid probe run through one shared
// knapsack.Solver, so the cost sort, instance validation, and DP workspaces
// are paid once per Run instead of once per probe. The allocation solve is
// serial; the per-winner critical-bid searches fan out over at most
// GOMAXPROCS goroutines, each probing the shared Solver.
type SingleTask struct {
	// Epsilon is the FPTAS approximation parameter; non-positive values use
	// knapsack.DefaultEpsilon.
	Epsilon float64
	// Alpha is the reward scaling factor; zero uses DefaultAlpha.
	Alpha float64
	// Trace, when non-nil, is the parent span (typically the engine's
	// winner-determination span) under which Run emits wd.allocate,
	// wd.critical_bid, and per-probe knapsack.solve spans. Nil disables
	// tracing at zero cost.
	Trace *span.Span
	// Adjuster, when non-nil, rewrites declared PoS before winner
	// determination (see PoSAdjuster). Costs stay declared; the critical
	// PoS and the EC reward pair are computed on the adjusted PoS.
	Adjuster PoSAdjuster
}

var _ Mechanism = (*SingleTask)(nil)

// Name implements Mechanism.
func (m *SingleTask) Name() string {
	return fmt.Sprintf("single-task FPTAS(ε=%g)", m.epsilon())
}

func (m *SingleTask) epsilon() float64 {
	if m.Epsilon <= 0 {
		return knapsack.DefaultEpsilon
	}
	return m.Epsilon
}

// knapsackSolve is the solver one SingleTask run prices through: it solves
// the run's instance with user i's contribution replaced by q, or as
// declared when i < 0, emitting knapsack.solve spans under sp. Run passes
// the optimized knapsack.Solver; the differential tests and reference
// benchmarks pass the retained seed solver.
type knapsackSolve func(sp *span.Span, i int, q float64) (knapsack.Solution, error)

// criticalGuess returns a closed-form estimate of user i's critical
// contribution and the DP subproblem that set it (0: none did) —
// knapsack.Solver.LeaveOneOut. A nil guess prices by plain bisection.
type criticalGuess func(i int) (q float64, k int, err error)

// solverSolve adapts the optimized Solver to knapsackSolve.
func solverSolve(s *knapsack.Solver) knapsackSolve {
	return func(sp *span.Span, i int, q float64) (knapsack.Solution, error) {
		if i < 0 {
			return s.SolveTraced(sp)
		}
		return s.SolveWithContributionTraced(sp, i, q)
	}
}

// Run executes winner determination and reward calculation. The auction
// must have exactly one task.
func (m *SingleTask) Run(a *auction.Auction) (*Outcome, error) {
	var solver *knapsack.Solver
	out, err := m.run(a, func(in *knapsack.Instance) (knapsackSolve, criticalGuess) {
		solver = knapsack.NewSolver(in, m.epsilon())
		return solverSolve(solver), solver.LeaveOneOut
	})
	if err != nil {
		return nil, err
	}
	st := solver.Stats()
	out.Stats.DPPruned = st.Pruned
	out.Stats.DPReuse = st.WorkspaceHits
	return out, nil
}

// run is Run with the solver and the critical-contribution guess built by
// newSolve from the (adjusted) auction's knapsack instance.
func (m *SingleTask) run(a *auction.Auction, newSolve func(*knapsack.Instance) (knapsackSolve, criticalGuess)) (*Outcome, error) {
	alpha, err := requireAlpha(m.Alpha)
	if err != nil {
		return nil, err
	}
	if a, err = adjustAuction(a, m.Adjuster); err != nil {
		return nil, err
	}
	in, taskID, err := singleTaskInstance(a)
	if err != nil {
		return nil, err
	}
	solve, guess := newSolve(in)
	allocSpan := m.Trace.Child(span.NameAllocate, span.Int("bids", int64(len(a.Bids))))
	sol, err := solve(allocSpan, -1, 0)
	if err != nil {
		allocSpan.EndWith(span.Str("error", err.Error()))
		if errors.Is(err, knapsack.ErrInfeasible) {
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
		Stats:      Stats{DPCells: sol.Cells},
	}
	err = priceWinners(m.Trace, a, out, "probes",
		func(bid auction.Bid) float64 { return bid.Contribution(taskID) },
		func(sp *span.Span, winner int) (float64, int64, error) {
			cb, err := criticalContribution(sp, solve, guess, in, winner)
			if guess != nil {
				sp.Set(span.Int("critical_k", int64(cb.k)))
			}
			if cb.fallback {
				sp.Set(span.Int("fallback", 1))
			}
			return cb.q, cb.probes, err
		})
	if err != nil {
		return nil, err
	}
	out.fillStats()
	return out, nil
}

// criticalBid is one winner's critical-contribution search result: the
// threshold q̄, the solver probes it cost, the DP subproblem whose cell set
// the closed-form guess, and whether the probes refuted the guess so that
// the plain bisection priced the winner.
type criticalBid struct {
	q        float64
	probes   int64
	k        int
	fallback bool
}

// criticalContribution finds the minimum declared contribution q̄ with
// which user i still wins (Algorithm 3, line 1): the value a bisection of
// [0, q_i] down to CriticalBidTol returns, bit for bit. Monotonicity of the
// winner determination in the contribution (Lemma 1) makes the search well
// defined; the user wins at her declaration, so the critical bid never
// exceeds it.
//
// With a guess q̂, the bisection's path is replayed against the free
// predicate x ≥ q̂ to its final bracket (lo, hi), and two real probes
// certify it: winning at hi and losing at lo (skipped when lo = 0). Under
// Lemma 1 every midpoint the replay sent down is ≥ hi, so it wins, and
// every midpoint sent up is ≤ lo, so it loses: the real search takes the
// same path and returns the same hi. If either probe disagrees, or without
// a guess, the real bisection runs. Every probe emits its own
// knapsack.solve span under sp and counts in probes, including the
// defensive one at the declared contribution.
func criticalContribution(sp *span.Span, solve knapsackSolve, guess criticalGuess, in *knapsack.Instance, i int) (criticalBid, error) {
	var cb criticalBid
	wins := func(q float64) (bool, error) {
		cb.probes++
		sol, err := solve(sp, i, q)
		if errors.Is(err, knapsack.ErrInfeasible) {
			// Lowering i's declaration made the whole instance infeasible;
			// in that regime no one (in particular not i) is selected.
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return sol.Contains(i), nil
	}
	declared := in.Contribs[i]
	won, err := wins(declared)
	if err != nil {
		return cb, err
	}
	if !won {
		// Defensive: the declared contribution produced this winner, so it
		// must win on re-run (the solver is deterministic).
		return cb, fmt.Errorf("mechanism: winner %d does not win at declared contribution", i)
	}
	if guess != nil {
		qhat, k, err := guess(i)
		if err != nil {
			return cb, err
		}
		cb.k = k
		lo, hi, _ := bracket(0, declared, CriticalBidTol, func(x float64) (bool, error) { return x >= qhat, nil })
		ok, err := wins(hi)
		if err != nil {
			return cb, err
		}
		if ok && lo > 0 {
			lost, err := wins(lo)
			if err != nil {
				return cb, err
			}
			ok = !lost
		}
		if ok {
			cb.q = hi
			return cb, nil
		}
		cb.fallback = true
	}
	// At q = 0 a user contributes nothing and is never selected.
	cb.q, err = bisect(0, declared, CriticalBidTol, wins)
	return cb, err
}

// singleTaskInstance projects a single-task auction onto a knapsack
// instance.
func singleTaskInstance(a *auction.Auction) (*knapsack.Instance, auction.TaskID, error) {
	if !a.SingleTask() {
		return nil, 0, ErrNotSingleTask
	}
	task := a.Tasks[0]
	costs := make([]float64, len(a.Bids))
	contribs := make([]float64, len(a.Bids))
	for i, bid := range a.Bids {
		costs[i] = bid.Cost
		contribs[i] = bid.Contribution(task.ID)
	}
	in, err := knapsack.NewInstance(costs, contribs, task.RequiredContribution())
	if err != nil {
		return nil, 0, err
	}
	return in, task.ID, nil
}
