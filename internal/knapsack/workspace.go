package knapsack

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Workspace holds every buffer one scaled-subproblem DP needs — the dp
// value array, the packed take-bit matrix, the scaled-cost slice, the
// backtrack scratch, and a contribution-override scratch — so a steady-state
// solve allocates nothing. Workspaces are recycled through a package-level
// sync.Pool; each solve checks one out, runs all its subproblems through
// it, and returns it.
//
// The take matrix is packed: row j of a k-item subproblem is words uint64
// values covering budget+1 bits, ≈8× smaller than the seed's [][]bool and
// cache-friendlier to backtrack through.
type Workspace struct {
	dp       []float64
	take     []uint64 // k rows × words, bit c of row j = "item j improved state c"
	scaled   []int
	sel      []int
	contribs []float64
	recycled bool
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// getWorkspace checks a Workspace out of the pool. The second return
// reports whether the workspace was recycled (a pool hit) rather than
// freshly allocated — the Solver's DP-reuse gauge.
func getWorkspace() (*Workspace, bool) {
	w := workspacePool.Get().(*Workspace)
	return w, w.recycled
}

// putWorkspace returns a Workspace to the pool. Buffers keep their capacity;
// the next checkout reuses them.
func putWorkspace(w *Workspace) {
	w.recycled = true
	workspacePool.Put(w)
}

// growFloats returns a float64 slice of length n backed by buf when it has
// the capacity.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts returns an int slice of length n backed by buf when it has the
// capacity.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growWords returns a zeroed uint64 slice of length n backed by buf when it
// has the capacity.
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// solveScaled solves one scaled subproblem exactly over the workspace's
// buffers: among subsets of the k users (integer scaled costs, float
// contributions) whose total contribution reaches require, find one
// minimizing total scaled cost, considering only states with scaled cost
// ≤ budget. The caller caps budget below the natural Σ scaled bound when an
// incumbent proves costlier states cannot win (see Solver); the DP recursion
// only ever reads cheaper states, so truncation is exact for every state it
// does compute. It returns the selection (indices into the subproblem,
// aliasing w.sel), the minimum scaled cost, and whether a feasible subset
// exists within the budget.
func (w *Workspace) solveScaled(scaledCosts []int, contribs []float64, require float64, budget int) ([]int, int, bool) {
	k := len(scaledCosts)
	words := budget>>6 + 1

	dp := growFloats(w.dp, budget+1)
	w.dp = dp
	for i := range dp {
		dp[i] = math.Inf(-1)
	}
	dp[0] = 0
	take := growWords(w.take, k*words)
	w.take = take

	for j, cost := range scaledCosts {
		row := take[j*words : (j+1)*words]
		if cost == 0 {
			// Zero scaled cost: the item adds contribution for free in the
			// scaled domain; taking it weakly dominates at every state.
			if contribs[j] > 0 {
				for c := 0; c <= budget; c++ {
					if !math.IsInf(dp[c], -1) {
						dp[c] += contribs[j]
						row[c>>6] |= 1 << (c & 63)
					}
				}
			}
		} else {
			for c := budget; c >= cost; c-- {
				if math.IsInf(dp[c-cost], -1) {
					continue
				}
				if cand := dp[c-cost] + contribs[j]; cand > dp[c] {
					dp[c] = cand
					row[c>>6] |= 1 << (c & 63)
				}
			}
		}
	}

	// dp[c] holds "max contribution at scaled cost exactly c", so the answer
	// is the first cost index whose contribution meets the requirement.
	minCost := -1
	for c := 0; c <= budget; c++ {
		if dp[c] >= require-FeasibilityTol {
			minCost = c
			break
		}
	}
	if minCost == -1 {
		return nil, 0, false
	}

	// Backtrack through the take bits.
	sel := growInts(w.sel, 0)
	c := minCost
	for j := k - 1; j >= 0; j-- {
		if take[j*words+c>>6]&(1<<(c&63)) != 0 {
			sel = append(sel, j)
			c -= scaledCosts[j]
		}
	}
	w.sel = sel
	if c != 0 {
		// Defensive: backtracking must land on the empty state.
		panic(fmt.Sprintf("knapsack: scaled DP backtrack ended at cost %d", c))
	}
	sort.Ints(sel)
	return sel, minCost, true
}
