// Package setcover implements the submodular set-cover machinery behind the
// paper's multi-task, single-minded mechanism (§III-C): the coverage
// function f(I) = Σ_j min{Q_j, Σ_{i∈I, j∈S_i} q_i^j}, the greedy winner
// determination of Algorithm 4 (iteratively pick the user maximizing
// effective-contribution per cost, H(γ)-approximate in O(n²t)), an
// exhaustive exact solver for small instances, and a branch-and-bound exact
// solver used as the OPT baseline.
package setcover

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"crowdsense/internal/auction"
)

// FeasibilityTol absorbs floating-point slack in coverage comparisons.
const FeasibilityTol = 1e-9

// ErrInfeasible is returned when the users jointly cannot satisfy every
// task's contribution requirement.
var ErrInfeasible = errors.New("setcover: requirements unreachable even with all users")

// Iteration records one round of the greedy loop: which user won, the
// remaining requirements Q̄ at the start of the round (the reward scheme of
// Algorithm 5 prices candidates against exactly these), and the winner's
// effective contribution against them.
type Iteration struct {
	Winner    int                        // bid index in the auction
	Remaining map[auction.TaskID]float64 // Q̄ before this selection
	Effective float64                    // Σ_j min{q^j, Q̄_j} of the winner
}

// Solution is a cover: selected bid indices (ascending), their total cost,
// and — for the greedy solver — the per-iteration trace. Evals counts the
// EffectiveContribution evaluations the solver performed (the lazy-greedy's
// saving over the seed's n-per-round rescan): an observability gauge, not
// part of the mathematical result.
type Solution struct {
	Selected   []int
	Cost       float64
	Iterations []Iteration
	Evals      int64
}

// Contains reports whether the solution selects bid index i.
func (s Solution) Contains(i int) bool {
	for _, idx := range s.Selected {
		if idx == i {
			return true
		}
	}
	return false
}

// EffectiveContribution returns Σ_{j∈S_i} min{q_i^j, remaining_j}: how much
// of the still-open requirements the bid can cover.
func EffectiveContribution(bid auction.Bid, remaining map[auction.TaskID]float64) float64 {
	total := 0.0
	for _, j := range bid.Tasks {
		r := remaining[j]
		if r <= 0 {
			continue
		}
		q := bid.Contribution(j)
		if q < r {
			total += q
		} else {
			total += r
		}
	}
	return total
}

// CoverageValue evaluates the paper's submodular coverage function
// f(I) = Σ_j min{Q_j, Σ_{i∈I, j∈S_i} q_i^j} for a selection of bid indices.
func CoverageValue(a *auction.Auction, selected []int) float64 {
	accumulated := make(map[auction.TaskID]float64, len(a.Tasks))
	for _, idx := range selected {
		bid := a.Bids[idx]
		for _, j := range bid.Tasks {
			accumulated[j] += bid.Contribution(j)
		}
	}
	total := 0.0
	for _, task := range a.Tasks {
		q := accumulated[task.ID]
		req := task.RequiredContribution()
		if q < req {
			total += q
		} else {
			total += req
		}
	}
	return total
}

// lazyCand is one heap entry of the lazy greedy: a bid, its last-computed
// effective contribution and ratio, and the round that computation was made
// in. A stale entry's ratio is an upper bound on its current ratio
// (effective contributions only shrink as requirements close — that is
// submodularity), which is what makes lazy re-evaluation exact.
type lazyCand struct {
	idx   int
	eff   float64
	ratio float64
	round int
}

// lazyHeap is a max-heap over (ratio desc, idx asc). The index tie-break
// reproduces the reference scan's "first strict improvement" winner, so
// selections match the seed bit for bit.
type lazyHeap []lazyCand

func (h lazyHeap) above(a, b lazyCand) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.idx < b.idx
}

func (h lazyHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h lazyHeap) siftDown(i int) {
	for {
		top, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h.above(h[l], h[top]) {
			top = l
		}
		if r < len(h) && h.above(h[r], h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

func (h *lazyHeap) popTop() lazyCand {
	old := *h
	top := old[0]
	old[0] = old[len(old)-1]
	*h = old[:len(old)-1]
	if len(*h) > 0 {
		h.siftDown(0)
	}
	return top
}

// term is one precomputed (dense task index, contribution) pair of a bid.
// Projecting the PoS maps onto terms once per Greedy call moves every
// log1p conversion and map lookup out of the eval loop: an effective-
// contribution evaluation becomes a linear pass over a slice.
type term struct {
	task int
	q    float64
}

// greedyState is the dense projection of one auction: remaining
// requirements indexed by task position, and every bid's terms in one flat
// slice (bid i owns flat[offs[i]:offs[i+1]], in the bid's sorted task
// order, so sums run in exactly the reference's float order).
type greedyState struct {
	taskIDs []auction.TaskID
	rem     []float64
	flat    []term
	offs    []int
}

// effective is EffectiveContribution over the dense projection: same
// iteration order, comparisons, and additions, hence bit-identical sums.
func (g *greedyState) effective(i int) float64 {
	total := 0.0
	for _, t := range g.flat[g.offs[i]:g.offs[i+1]] {
		r := g.rem[t.task]
		if r <= 0 {
			continue
		}
		if t.q < r {
			total += t.q
		} else {
			total += r
		}
	}
	return total
}

// snapshot rebuilds the remaining-requirements map for the iteration trace.
func (g *greedyState) snapshot() map[auction.TaskID]float64 {
	out := make(map[auction.TaskID]float64, len(g.rem))
	for i, r := range g.rem {
		out[g.taskIDs[i]] = r
	}
	return out
}

func newGreedyState(a *auction.Auction) *greedyState {
	g := &greedyState{
		taskIDs: make([]auction.TaskID, len(a.Tasks)),
		rem:     make([]float64, len(a.Tasks)),
		offs:    make([]int, len(a.Bids)+1),
	}
	taskIdx := make(map[auction.TaskID]int, len(a.Tasks))
	for i, task := range a.Tasks {
		g.taskIDs[i] = task.ID
		taskIdx[task.ID] = i
		g.rem[i] = task.RequiredContribution()
	}
	for i, bid := range a.Bids {
		g.offs[i+1] = g.offs[i] + len(bid.Tasks)
	}
	g.flat = make([]term, g.offs[len(a.Bids)])
	for i, bid := range a.Bids {
		dst := g.flat[g.offs[i]:g.offs[i+1]]
		for k, j := range bid.Tasks {
			dst[k] = term{task: taskIdx[j], q: bid.Contribution(j)}
		}
	}
	return g
}

// Greedy is the paper's Algorithm 4: repeatedly select the user with the
// highest effective-contribution-to-cost ratio until every requirement is
// met. The returned solution carries the iteration trace consumed by the
// multi-task reward scheme (Algorithm 5).
//
// The implementation is CELF-style lazy greedy: candidates sit in a max-heap
// under their last-known ratio, and each round only the heap top is
// re-evaluated until a freshly-scored candidate surfaces. Because effective
// contributions are non-increasing as requirements close (submodularity), a
// stale ratio is an upper bound, so a fresh top dominates every stale entry
// below it and the selection — including index tie-breaks — is identical to
// GreedyReference's full rescan, at far fewer effective-contribution
// evaluations — each of which runs over contributions precomputed once per
// call rather than re-deriving them from the PoS maps. Remaining
// requirements are tracked with an incremental open-task count instead of a
// per-round map scan.
func Greedy(a *auction.Auction) (Solution, error) {
	g := newGreedyState(a)
	open := 0
	for _, r := range g.rem {
		if r > FeasibilityTol {
			open++
		}
	}

	var sol Solution
	sol.Evals = int64(len(a.Bids))
	h := make(lazyHeap, 0, len(a.Bids))
	for i := range a.Bids {
		eff := g.effective(i)
		if eff <= FeasibilityTol {
			// Effective contributions only shrink; a bid useless now is
			// useless in every later round too.
			continue
		}
		h = append(h, lazyCand{idx: i, eff: eff, ratio: eff / a.Bids[i].Cost})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}

	round := 0
	for open > 0 {
		var top lazyCand
		for {
			if len(h) == 0 {
				return Solution{}, ErrInfeasible
			}
			if h[0].round == round {
				top = h.popTop()
				break
			}
			eff := g.effective(h[0].idx)
			sol.Evals++
			if eff <= FeasibilityTol {
				h.popTop()
				continue
			}
			h[0].eff = eff
			h[0].ratio = eff / a.Bids[h[0].idx].Cost
			h[0].round = round
			h.siftDown(0)
		}
		sol.Iterations = append(sol.Iterations, Iteration{
			Winner:    top.idx,
			Remaining: g.snapshot(),
			Effective: top.eff,
		})
		sol.Selected = append(sol.Selected, top.idx)
		sol.Cost += a.Bids[top.idx].Cost
		for _, t := range g.flat[g.offs[top.idx]:g.offs[top.idx+1]] {
			r := g.rem[t.task] - t.q
			if r < 0 {
				r = 0
			}
			if g.rem[t.task] > FeasibilityTol && r <= FeasibilityTol {
				open--
			}
			g.rem[t.task] = r
		}
		round++
	}
	sort.Ints(sol.Selected)
	return sol, nil
}

// Exhaustive enumerates all subsets for the exact optimum. It refuses
// instances with more than 20 bids.
func Exhaustive(a *auction.Auction) (Solution, error) {
	const maxN = 20
	n := len(a.Bids)
	if n > maxN {
		return Solution{}, fmt.Errorf("setcover: %d bids exceeds exhaustive limit %d", n, maxN)
	}
	if !a.Feasible(FeasibilityTol) {
		return Solution{}, ErrInfeasible
	}
	bestCost := math.Inf(1)
	bestMask := uint32(0)
	for mask := uint32(1); mask < 1<<n; mask++ {
		cost := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += a.Bids[i].Cost
			}
		}
		if cost >= bestCost {
			continue
		}
		var sel []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, i)
			}
		}
		if a.CoveredBy(sel, FeasibilityTol) {
			bestCost = cost
			bestMask = mask
		}
	}
	if math.IsInf(bestCost, 1) {
		return Solution{}, ErrInfeasible
	}
	var sel []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			sel = append(sel, i)
		}
	}
	return Solution{Selected: sel, Cost: bestCost}, nil
}
