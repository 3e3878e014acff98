package knapsack

import (
	"fmt"
	"math"
)

// LeaveOneOut returns, in closed form, the least contribution q̂ at which
// user i is selected, everyone else fixed: the threshold a critical-bid
// search over SolveWithContribution converges to, obtained from one pass
// without user i instead of ~30 probes. k is the subproblem whose cell set
// q̂, or 0 when user i is pivotal.
//
// With user i left out (contribution 0), the best score S is the incumbent
// every cover containing i must beat. A subproblem of only users cheaper
// than i (by the solver's cost order) scores as it does without her. For
// each subproblem k that contains her, let D(c) be the most contribution
// reachable at scaled cost exactly c without i (the same exact-cost DP,
// capped at S/µ_k + 2 like a solve's incumbent cap) and c̃ = ⌊c_i/µ_k⌋.
// User i at contribution q wins through cell (k, c) when the cell scores
// no worse than S, D(c−c̃) + q covers the requirement, and
// D(c−c̃) + q > D(c), the DP's strict-improvement rule for keeping a
// state. q̂ is the least such bound over all cells. If the others cannot cover the requirement without i,
// every cover contains her and q̂ is the shortfall.
//
// The value agrees with the probe search up to floating-point summation
// order; callers that need the search's exact bits certify it with probes.
// Like the solves, it runs serially on one pooled Workspace and is safe for
// concurrent use.
func (s *Solver) LeaveOneOut(i int) (q float64, k int, err error) {
	n := s.in.N()
	if i < 0 || i >= n {
		return 0, 0, fmt.Errorf("knapsack: user index %d out of range", i)
	}
	s.solves.Add(1)
	need := s.in.Require - FeasibilityTol
	if !s.feasible(i, 0) {
		rest := 0.0
		for idx, qj := range s.in.Contribs {
			if idx != i {
				rest += qj
			}
		}
		return need - rest, 0, nil
	}
	ws, _ := s.checkout()
	defer putWorkspace(ws)
	without := s.scan(i, 0, ws)
	if without.bestSel == nil {
		return 0, 0, ErrInfeasible // unreachable: the instance is feasible without i
	}
	best := without.bestScore

	// The others' contributions in rank order, i removed: subproblem k's
	// items without i are the first k−1 of them.
	r0 := s.rankOf[i]
	rest := growFloats(ws.contribs, n-1)
	copy(rest, s.baseContribs[:r0])
	copy(rest[r0:], s.baseContribs[r0+1:])
	ws.contribs = rest

	q = math.Inf(1)
	var pruned int64
	prefix := 0.0
	for kk := 1; kk <= n; kk++ {
		prefix += s.baseContribs[kk-1]
		if kk <= r0 || prefix < need {
			// No i in subproblem kk, or no cover even at i's declaration.
			continue
		}
		ck := s.sortedCosts[kk-1]
		mu := s.eps * ck / float64(kk)
		// The solves' lower-bound prune: every cover of subproblem kk at a
		// contribution up to i's declaration scores above S.
		if s.fracLB-s.eps*ck > best*(1+lbSafety)+lbSafety {
			pruned++
			continue
		}
		ci := int(s.sortedCosts[r0] / mu)
		ws.scaled = growInts(ws.scaled, kk-1)
		budget := ci
		for j := 0; j < kk-1; j++ {
			rank := j
			if j >= r0 {
				rank++
			}
			c := int(s.sortedCosts[rank] / mu)
			ws.scaled[j] = c
			budget += c
		}
		if capF := best / mu; capF+2 < float64(budget) {
			budget = int(capF) + 2
		}
		dp, _, _ := ws.exactCost(ws.scaled, rest[:kk-1], budget, false)
		for c := ci; c <= budget; c++ {
			if float64(c)*mu > best {
				break
			}
			base := dp[c-ci]
			if math.IsInf(base, -1) {
				continue
			}
			bound := math.Max(need-base, dp[c]-base)
			if bound < q {
				q, k = bound, kk
			}
		}
	}
	s.pruned.Add(without.pruned + pruned)
	return q, k, nil
}
