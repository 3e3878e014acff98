package knapsack

import (
	"testing"

	"crowdsense/internal/stats"
)

// TestLeaveOneOutIsThreshold checks the closed form against real solves:
// every winner is selected just above her q̂ and not just below it, and a
// pivotal winner's q̂ is the others' shortfall with no subproblem named.
// The mechanism's differential pins the certified bits.
func TestLeaveOneOutIsThreshold(t *testing.T) {
	const step = 1e-7
	rng := stats.NewRand(36)
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 5+rng.Intn(30))
		s := NewSolver(in, 0.5)
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sol.Selected {
			q, k, err := s.LeaveOneOut(i)
			if err != nil {
				t.Fatal(err)
			}
			if q > in.Contribs[i] || k <= s.rankOf[i] {
				t.Fatalf("trial %d user %d: q̂ %g (declared %g) from subproblem %d (rank %d)",
					trial, i, q, in.Contribs[i], k, s.rankOf[i])
			}
			if up, err := s.SolveWithContribution(i, min(q+step, in.Contribs[i])); err != nil || !up.Contains(i) {
				t.Errorf("trial %d user %d: loses just above q̂ %g (err %v)", trial, i, q, err)
			}
			if q > step {
				if down, err := s.SolveWithContribution(i, q-step); err == nil && down.Contains(i) {
					t.Errorf("trial %d user %d: wins just below q̂ %g", trial, i, q)
				}
			}
		}
	}

	others, require := []float64{0.3, 0.3}, 0.9
	in, err := NewInstance([]float64{1, 2, 3}, append([]float64{0.5}, others...), require)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(in, 0.5)
	want := require - FeasibilityTol - (others[0] + others[1])
	if q, k, err := s.LeaveOneOut(0); err != nil || k != 0 || q != want {
		t.Errorf("pivotal user: q̂ %.17g k %d err %v, want the shortfall %.17g and k 0", q, k, err, want)
	}
	if _, _, err := s.LeaveOneOut(3); err == nil {
		t.Error("out-of-range user: no error")
	}
}
