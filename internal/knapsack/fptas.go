package knapsack

// DefaultEpsilon is the approximation parameter used when callers pass a
// non-positive ε. The paper's evaluation notes the mechanism tracks OPT even
// at ε = 0.5.
const DefaultEpsilon = 0.5

// SolveFPTAS is the paper's Algorithm 2: a fully polynomial-time
// approximation scheme for minimum knapsack. Users are sorted by cost; for
// each k the subproblem over the k cheapest users is solved by dynamic
// programming on costs scaled by µ_k = ε·c_k/k, and the best feasible
// subproblem solution (compared by scaled cost × µ_k, as in the paper's
// line 9) is returned. The result costs at most (1+ε)·OPT (Theorem 2) and
// the running time is O(n⁴/ε) (Theorem 3).
//
// This entry point builds a one-shot Solver: pooled DP workspaces, packed
// take-bit backtracking and incumbent-bound subproblem pruning, run
// serially in ascending k — selections are identical to the retained
// SolveFPTASReference. Callers re-solving the same instance with
// perturbed contributions (critical-bid searches) should hold a Solver to
// also amortize the cost sort and instance validation.
func SolveFPTAS(in *Instance, eps float64) (Solution, error) {
	return NewSolver(in, eps).Solve()
}
