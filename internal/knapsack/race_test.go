package knapsack

import (
	"sync"
	"testing"

	"crowdsense/internal/stats"
)

// TestSolverConcurrentSolves exercises the shape `make race` must cover:
// one shared Solver probed concurrently from many goroutines (the
// per-winner critical-bid fan-out), all drawing workspaces from the shared
// pool.
func TestSolverConcurrentSolves(t *testing.T) {
	rng := stats.NewRand(35)
	in := randomInstance(rng, 80)
	s := NewSolver(in, 0.5)

	want, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := s.Solve()
				if err != nil {
					errs <- err
					return
				}
				if got.Cost != want.Cost {
					t.Errorf("concurrent Solve cost %g, want %g", got.Cost, want.Cost)
				}
				return
			}
			i := g % in.N()
			if _, err := s.SolveWithContribution(i, in.Contribs[i]/2); err != nil && err != ErrInfeasible {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
