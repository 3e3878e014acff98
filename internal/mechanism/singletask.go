package mechanism

import (
	"errors"
	"fmt"
	"runtime"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/obs/span"
)

// CriticalBidTol is the absolute tolerance of the binary search for the
// single-task critical contribution.
const CriticalBidTol = 1e-9

// SingleTask is the paper's single-task mechanism (§III-B): winner
// determination by the minimum-knapsack FPTAS (Algorithm 2) and rewards by
// binary-search critical bids with execution-contingent payments
// (Algorithm 3).
//
// Winner determination and every critical-bid probe run through one shared
// knapsack.Solver, so the cost sort, instance validation, and DP workspaces
// are paid once per Run instead of once per probe.
type SingleTask struct {
	// Epsilon is the FPTAS approximation parameter; non-positive values use
	// knapsack.DefaultEpsilon.
	Epsilon float64
	// Alpha is the reward scaling factor; zero uses DefaultAlpha.
	Alpha float64
	// Parallelism bounds the goroutines used for per-winner critical-bid
	// searches and the allocation's subproblem fan-out; non-positive uses
	// GOMAXPROCS.
	Parallelism int
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

func (m *SingleTask) parallelism() int {
	if m.Parallelism > 0 {
		return m.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// knapsackSolve is the solver one SingleTask run prices through: it solves
// the run's instance with user i's contribution replaced by q, or as
// declared when i < 0, emitting knapsack.solve spans under sp. Run passes
// the optimized knapsack.Solver; the differential tests and reference
// benchmarks pass the retained seed solver.
type knapsackSolve func(sp *span.Span, i int, q float64) (knapsack.Solution, error)

// Run executes winner determination and reward calculation. The auction
// must have exactly one task.
func (m *SingleTask) Run(a *auction.Auction) (*Outcome, error) {
	var solver *knapsack.Solver
	out, err := m.run(a, func(in *knapsack.Instance) knapsackSolve {
		solver = knapsack.NewSolver(in, m.epsilon())
		solver.Parallelism = m.parallelism()
		return func(sp *span.Span, i int, q float64) (knapsack.Solution, error) {
			if i < 0 {
				return solver.SolveTraced(sp)
			}
			return solver.SolveWithContributionTraced(sp, i, q)
		}
	})
	if err != nil {
		return nil, err
	}
	st := solver.Stats()
	out.Stats.DPPruned = st.Pruned
	out.Stats.DPReuse = st.WorkspaceHits
	return out, nil
}

// run is Run with the solver built by newSolve from the (adjusted)
// auction's knapsack instance.
func (m *SingleTask) run(a *auction.Auction, newSolve func(*knapsack.Instance) knapsackSolve) (*Outcome, error) {
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
	solve := newSolve(in)
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
	err = priceWinners(m.Trace, m.parallelism(), a, out, "probes",
		func(bid auction.Bid) float64 { return bid.Contribution(taskID) },
		func(sp *span.Span, winner int) (float64, int64, error) {
			return criticalContribution(sp, solve, in, winner)
		})
	if err != nil {
		return nil, err
	}
	out.fillStats()
	return out, nil
}

// criticalContribution binary-searches the minimum declared contribution q̄
// with which user i still wins (Algorithm 3, line 1). Monotonicity of the
// winner determination in the contribution (Lemma 1) guarantees the search
// is well defined. The search runs over [0, q_i]: the user wins at her
// declaration, and the critical bid can never exceed it. It returns the
// probe count alongside the threshold; each probe emits its own
// knapsack.solve span under sp.
func criticalContribution(sp *span.Span, solve knapsackSolve, in *knapsack.Instance, i int) (float64, int64, error) {
	var probes int64
	wins := func(q float64) (bool, error) {
		probes++
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
	won, err := wins(in.Contribs[i])
	if err != nil {
		return 0, probes, err
	}
	if !won {
		// Defensive: the declared contribution produced this winner, so it
		// must win on re-run (the solver is deterministic).
		return 0, probes, fmt.Errorf("mechanism: winner %d does not win at declared contribution", i)
	}
	// At q = 0 a user contributes nothing and is never selected.
	q, err := bisect(0, in.Contribs[i], CriticalBidTol, wins)
	return q, probes, err
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
