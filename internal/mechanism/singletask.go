package mechanism

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

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

	// useReference routes every solve through the retained seed
	// implementation (knapsack.SolveFPTASReference, with per-probe instance
	// rebuilds). Differential tests and benchmarks use it as the oracle; it
	// is not part of the public surface.
	useReference bool
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

// Run executes winner determination and reward calculation. The auction
// must have exactly one task.
func (m *SingleTask) Run(a *auction.Auction) (*Outcome, error) {
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
	par := m.parallelism()
	var solver *knapsack.Solver
	if !m.useReference {
		solver = knapsack.NewSolver(in, m.epsilon())
		solver.Parallelism = par
	}
	allocSpan := m.Trace.Child(span.NameAllocate, span.Int("bids", int64(len(a.Bids))))
	sol, err := m.allocate(allocSpan, solver, in)
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
	// Critical-bid searches are independent per winner; fan out.
	sem := make(chan struct{}, par)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for slot, winner := range sol.Selected {
		wg.Add(1)
		go func(slot, winner int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cb := m.Trace.Child(span.NameCriticalBid, span.Int("winner", int64(winner)))
			criticalQ, probes, err := m.criticalContribution(cb, solver, in, winner)
			if err != nil {
				cb.EndWith(span.Str("error", err.Error()))
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			cb.EndWith(span.Int("probes", int64(probes)), span.Float("critical_q", criticalQ))
			bid := a.Bids[winner]
			out.Awards[slot] = ecAward(winner, bid, criticalQ, bid.Contribution(taskID), alpha)
		}(slot, winner)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if solver != nil {
		st := solver.Stats()
		out.Stats.DPPruned = st.Pruned
		out.Stats.DPReuse = st.WorkspaceHits
	}
	out.fillStats()
	return out, nil
}

// allocate runs winner determination on the declared contributions, emitting
// the DP's knapsack.solve span under sp when tracing is on.
func (m *SingleTask) allocate(sp *span.Span, solver *knapsack.Solver, in *knapsack.Instance) (knapsack.Solution, error) {
	if m.useReference {
		return knapsack.SolveFPTASReference(in, m.epsilon())
	}
	return solver.SolveTraced(sp)
}

// criticalContribution binary-searches the minimum declared contribution q̄
// with which user i still wins (Algorithm 3, line 1). Monotonicity of the
// winner determination in the contribution (Lemma 1) guarantees the search
// is well defined. The search runs over [0, q_i]: the user wins at her
// declaration, and the critical bid can never exceed it. It returns the
// probe count alongside the threshold; each probe emits its own
// knapsack.solve span under sp.
func (m *SingleTask) criticalContribution(sp *span.Span, solver *knapsack.Solver, in *knapsack.Instance, i int) (float64, int, error) {
	probes := 1
	wins, err := m.winsWith(sp, solver, in, i, in.Contribs[i])
	if err != nil {
		return 0, probes, err
	}
	if !wins {
		// Defensive: the declared contribution produced this winner, so it
		// must win on re-run (the solver is deterministic).
		return 0, probes, fmt.Errorf("mechanism: winner %d does not win at declared contribution", i)
	}
	lo, hi := 0.0, in.Contribs[i]
	// At q = 0 a user contributes nothing and is never selected.
	for hi-lo > CriticalBidTol {
		mid := (lo + hi) / 2
		probes++
		wins, err := m.winsWith(sp, solver, in, i, mid)
		if err != nil {
			return 0, probes, err
		}
		if wins {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, probes, nil
}

// winsWith reports whether user i is selected when declaring contribution q
// while everyone else's declarations stay fixed.
func (m *SingleTask) winsWith(sp *span.Span, solver *knapsack.Solver, in *knapsack.Instance, i int, q float64) (bool, error) {
	var (
		sol knapsack.Solution
		err error
	)
	if m.useReference {
		var mod *knapsack.Instance
		mod, err = in.WithContribution(i, q)
		if err != nil {
			return false, err
		}
		sol, err = knapsack.SolveFPTASReference(mod, m.epsilon())
	} else {
		sol, err = solver.SolveWithContributionTraced(sp, i, q)
	}
	if err != nil {
		if errors.Is(err, knapsack.ErrInfeasible) {
			// Lowering i's declaration made the whole instance infeasible;
			// in that regime no one (in particular not i) is selected.
			return false, nil
		}
		return false, err
	}
	return sol.Contains(i), nil
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

// SingleTaskOPT runs the exact (branch-and-bound) allocation with the same
// critical-bid EC reward scheme. It is exponential in the worst case and
// exists as the paper's OPT baseline; Run fails with knapsack.ErrNodeBudget
// if the search exceeds its node budget.
type SingleTaskOPT struct {
	Alpha      float64
	NodeBudget int
}

var _ Mechanism = (*SingleTaskOPT)(nil)

// Name implements Mechanism.
func (m *SingleTaskOPT) Name() string { return "single-task OPT" }

// Run executes exact winner determination. Rewards use the same EC scheme
// with critical bids searched against the exact allocation.
func (m *SingleTaskOPT) Run(a *auction.Auction) (*Outcome, error) {
	alpha, err := requireAlpha(m.Alpha)
	if err != nil {
		return nil, err
	}
	in, taskID, err := singleTaskInstance(a)
	if err != nil {
		return nil, err
	}
	sol, err := knapsack.SolveBnB(in, m.NodeBudget)
	if err != nil {
		if errors.Is(err, knapsack.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	out := &Outcome{
		Mechanism:  m.Name(),
		Selected:   sol.Selected,
		SocialCost: sol.Cost,
		Awards:     make([]Award, len(sol.Selected)),
		Alpha:      alpha,
	}
	for slot, winner := range sol.Selected {
		criticalQ, err := m.criticalContribution(in, winner)
		if err != nil {
			return nil, err
		}
		bid := a.Bids[winner]
		out.Awards[slot] = ecAward(winner, bid, criticalQ, bid.Contribution(taskID), alpha)
	}
	out.fillStats()
	return out, nil
}

func (m *SingleTaskOPT) criticalContribution(in *knapsack.Instance, i int) (float64, error) {
	// Defensive, mirroring the FPTAS path: the declared contribution must
	// still win on re-run before the search's [0, q_i] bracket is valid. A
	// node-budget truncation (SolveBnB aborts mid-search) would otherwise
	// silently yield a bogus threshold.
	wins, err := m.winsWith(in, i, in.Contribs[i])
	if err != nil {
		return 0, err
	}
	if !wins {
		return 0, fmt.Errorf("mechanism: OPT winner %d does not win at declared contribution", i)
	}
	lo, hi := 0.0, in.Contribs[i]
	for hi-lo > CriticalBidTol {
		mid := (lo + hi) / 2
		wins, err := m.winsWith(in, i, mid)
		switch {
		case errors.Is(err, knapsack.ErrInfeasible):
			lo = mid
			continue
		case err != nil:
			return 0, err
		}
		if wins {
			hi = mid
		} else {
			lo = mid
		}
	}
	if math.IsNaN(hi) {
		return 0, fmt.Errorf("mechanism: critical bid search diverged for user %d", i)
	}
	return hi, nil
}

// winsWith reports whether user i is selected by the exact allocation when
// declaring contribution q. Infeasible re-runs propagate ErrInfeasible for
// the caller to interpret per search phase.
func (m *SingleTaskOPT) winsWith(in *knapsack.Instance, i int, q float64) (bool, error) {
	mod, err := in.WithContribution(i, q)
	if err != nil {
		return false, err
	}
	sol, err := knapsack.SolveBnB(mod, m.NodeBudget)
	if err != nil {
		return false, err
	}
	return sol.Contains(i), nil
}
