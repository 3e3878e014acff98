package knapsack

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// lbSafety is the relative slack applied to the subproblem lower-bound
// prune so one-ulp rounding in the scaled score can never prune a subproblem
// the reference implementation would have kept (exactness over throughput).
const lbSafety = 1e-12

// SolverStats are a Solver's cumulative work counters across every Solve /
// SolveWithContribution call: observability gauges, not part of the
// mathematical result.
type SolverStats struct {
	Solves        int64 // solver invocations
	Pruned        int64 // k-subproblems skipped or truncated empty by the incumbent bound
	WorkspaceHits int64 // workspace checkouts served by the pool (vs fresh allocations)
}

// Solver runs the paper's Algorithm 2 over one instance, amortizing
// everything a critical-bid search would otherwise redo on each of its
// probes and leave-one-out passes: the cost sort (costs never change
// across re-solves, only one user's contribution), instance re-validation,
// and the DP buffers (pooled Workspaces). On top of the seed algorithm it
// prunes k-subproblems whose lower bound cannot beat the incumbent best
// score and truncates DP budgets at the incumbent — both
// exactness-preserving, so results are identical to SolveFPTASReference
// (pinned by differential tests).
//
// Every solve is serial: it scans the k-subproblems in ascending k on the
// calling goroutine, so its selection and its work gauges (Cells, Pruned)
// are deterministic. Concurrency lives with the caller — the mechanism's
// per-winner critical-bid fan-out probes one shared Solver from many
// goroutines. A Solver is immutable after construction apart from its
// atomic Stats counters, and safe for that concurrent use.
type Solver struct {
	in  *Instance
	eps float64

	order        []int     // rank → original index, stable cost-ascending
	rankOf       []int     // original index → rank
	sortedCosts  []float64 // costs in rank order
	baseContribs []float64 // declared contributions in rank order
	fracLB       float64   // fractional (LP) lower bound on any cover's true cost

	solves atomic.Int64
	pruned atomic.Int64
	wsHits atomic.Int64
}

// NewSolver builds the reusable pre-sorted view of the instance. eps
// non-positive uses DefaultEpsilon. The instance must not be mutated while
// the solver is in use.
func NewSolver(in *Instance, eps float64) *Solver {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	n := in.N()
	s := &Solver{in: in, eps: eps}
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return in.Costs[s.order[a]] < in.Costs[s.order[b]] })
	s.rankOf = make([]int, n)
	s.sortedCosts = make([]float64, n)
	s.baseContribs = make([]float64, n)
	for rank, idx := range s.order {
		s.rankOf[idx] = rank
		s.sortedCosts[rank] = in.Costs[idx]
		s.baseContribs[rank] = in.Contribs[idx]
	}
	s.fracLB = fractionalBound(in)
	return s
}

// Stats returns the solver's cumulative work counters.
func (s *Solver) Stats() SolverStats {
	return SolverStats{
		Solves:        s.solves.Load(),
		Pruned:        s.pruned.Load(),
		WorkspaceHits: s.wsHits.Load(),
	}
}

// Solve runs Algorithm 2 on the declared contributions.
func (s *Solver) Solve() (Solution, error) { return s.solve(-1, 0) }

// SolveWithContribution runs Algorithm 2 with user i's declared contribution
// replaced by q and everyone else fixed — the critical-bid search probe. No
// instance copy, validation, or re-sort happens: costs are unchanged, so the
// pre-sorted view stays valid.
func (s *Solver) SolveWithContribution(i int, q float64) (Solution, error) {
	if i < 0 || i >= s.in.N() {
		return Solution{}, fmt.Errorf("knapsack: user index %d out of range", i)
	}
	if q < 0 || math.IsInf(q, 0) || math.IsNaN(q) {
		return Solution{}, fmt.Errorf("knapsack: user %d contribution %g must be non-negative and finite", i, q)
	}
	return s.solve(i, q)
}

// fptasRun is the state of one solve: the (possibly overridden)
// contribution view, the work gauges, and the best subproblem result so far,
// whose score is the incumbent the pruning bound tests against.
type fptasRun struct {
	s        *Solver
	contribs []float64
	lbPrune  bool // fractional bound valid for this contribution view

	cells  int64
	pruned int64

	bestScore float64
	bestSel   []int // rank-space selection, owned copy
}

func (s *Solver) solve(override int, q float64) (Solution, error) {
	s.solves.Add(1)
	if !s.feasible(override, q) {
		return Solution{}, ErrInfeasible
	}
	ws, reused := s.checkout()
	defer putWorkspace(ws)
	r := s.scan(override, q, ws)
	if r.bestSel == nil {
		return Solution{}, ErrInfeasible
	}

	// Map back to original user indices.
	selected := make([]int, len(r.bestSel))
	for i, rank := range r.bestSel {
		selected[i] = s.order[rank]
	}
	sort.Ints(selected)
	return Solution{
		Selected: selected,
		Cost:     s.in.Cost(selected),
		Cells:    r.cells,
		Pruned:   r.pruned,
		Reused:   reused,
	}, nil
}

// checkout takes a workspace from the pool for one solver call and reports
// the pool hit (1) or miss (0) as the call's DP-reuse gauge.
func (s *Solver) checkout() (*Workspace, int64) {
	ws, hit := getWorkspace()
	if !hit {
		return ws, 0
	}
	s.wsHits.Add(1)
	return ws, 1
}

// feasible reports whether everyone together covers the requirement with
// user override's contribution replaced by q (override < 0: as declared).
// It sums in original index order exactly as the reference's
// Instance.Feasible does, so borderline instances agree bit-for-bit.
func (s *Solver) feasible(override int, q float64) bool {
	total := 0.0
	for idx, qi := range s.in.Contribs {
		if idx == override {
			qi = q
		}
		total += qi
	}
	return total >= s.in.Require-FeasibilityTol
}

// scan runs Algorithm 2's subproblem loop on a feasible view, user
// override's contribution replaced by q (override < 0: as declared), and
// returns the finished run: its best score and selection (nil when no
// subproblem covers the requirement) and its work gauges.
func (s *Solver) scan(override int, q float64, ws *Workspace) fptasRun {
	n := s.in.N()
	r := fptasRun{s: s, contribs: s.baseContribs, lbPrune: true, bestScore: math.Inf(1)}
	if override >= 0 {
		ws.contribs = growFloats(ws.contribs, n)
		copy(ws.contribs, s.baseContribs)
		ws.contribs[s.rankOf[override]] = q
		r.contribs = ws.contribs
		// Raising a contribution can lower the optimum below the base
		// instance's fractional bound; the prune is only sound downward.
		r.lbPrune = q <= s.in.Contribs[override]
	}

	// Ascending k, as in the paper: the cheap small-k DPs establish an
	// incumbent early for the pruning bound.
	prefix := 0.0
	for k := 1; k <= n; k++ {
		prefix += r.contribs[k-1]
		if prefix < s.in.Require-FeasibilityTol {
			continue // subproblem k is infeasible; skip the DP
		}
		r.runK(k, ws)
	}

	s.pruned.Add(r.pruned)
	return r
}

// runK solves subproblem k (the k cheapest users) on the given workspace and
// folds the result into the run. Subproblems arrive in ascending k and only a
// strictly better score replaces the best, so ties keep the smallest k —
// exactly the reference's ascending-k strictly-better scan.
func (r *fptasRun) runK(k int, w *Workspace) {
	s := r.s
	ck := s.sortedCosts[k-1]
	mu := s.eps * ck / float64(k)
	inc := r.bestScore

	// Lower-bound prune: any selection's scaled score is at least its true
	// cost minus k·µ_k = ε·c_k (each floor loses < µ_k), and its true cost is
	// at least the instance's fractional bound. Strictly above the incumbent
	// (with safety slack), the subproblem cannot win even a tie.
	if r.lbPrune && !math.IsInf(inc, 1) && s.fracLB-s.eps*ck > inc*(1+lbSafety)+lbSafety {
		r.pruned++
		return
	}

	w.scaled = growInts(w.scaled, k)
	budget := 0
	for j := 0; j < k; j++ {
		c := int(s.sortedCosts[j] / mu)
		w.scaled[j] = c
		budget += c
	}
	capped := false
	if !math.IsInf(inc, 1) {
		// States costlier than the incumbent can never produce a strictly
		// better score nor steal a tie (+2 pads the ceil against rounding).
		if capF := inc / mu; capF+2 < float64(budget) {
			budget = int(capF) + 2
			capped = true
		}
	}
	r.cells += int64(k) * int64(budget+1)
	sel, scaledCost, ok := w.solveScaled(w.scaled, r.contribs[:k], s.in.Require, budget)
	if !ok {
		// The prefix-feasibility gate guarantees the uncapped DP always
		// succeeds, so an empty result means the cap proved the subproblem
		// cannot beat the incumbent.
		if capped {
			r.pruned++
		}
		return
	}
	if score := float64(scaledCost) * mu; score < r.bestScore {
		r.bestScore = score
		r.bestSel = append(r.bestSel[:0], sel...)
	}
}

// fractionalBound is the LP relaxation of the minimum knapsack: fill the
// requirement with users in cost-per-contribution order, last one
// fractionally. Every integral cover costs at least this much, and lowering
// any single contribution only raises the optimum, so the bound stays valid
// across downward critical-bid probes. The requirement is slackened by
// FeasibilityTol to match the solvers' coverage comparisons.
func fractionalBound(in *Instance) float64 {
	type item struct{ cost, contrib float64 }
	items := make([]item, 0, in.N())
	for i, q := range in.Contribs {
		if q > 0 {
			items = append(items, item{in.Costs[i], q})
		}
	}
	sort.Slice(items, func(a, b int) bool {
		return items[a].cost*items[b].contrib < items[b].cost*items[a].contrib
	})
	rem := in.Require - FeasibilityTol
	lb := 0.0
	for _, it := range items {
		if rem <= 0 {
			break
		}
		if it.contrib >= rem {
			lb += it.cost * rem / it.contrib
			rem = 0
			break
		}
		lb += it.cost
		rem -= it.contrib
	}
	if rem > 0 {
		return math.Inf(1) // infeasible; Solve rejects before pruning matters
	}
	return lb
}
