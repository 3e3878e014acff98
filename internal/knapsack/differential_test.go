package knapsack

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"crowdsense/internal/stats"
)

// assertSameSolution pins the optimized solver to the reference bit for bit:
// same selection, same cost. Cells/Pruned/Reused are work gauges and may
// legitimately differ.
func assertSameSolution(t *testing.T, ctx string, got, want Solution) {
	t.Helper()
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("%s: selected %v, reference %v", ctx, got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("%s: selected %v, reference %v", ctx, got.Selected, want.Selected)
		}
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %g, reference %g", ctx, got.Cost, want.Cost)
	}
}

// TestFPTASMatchesReference is the core differential pin: across randomized
// instances and ε values, the optimized SolveFPTAS (pooled workspaces,
// bitset backtracking, incumbent pruning) returns the exact selection of the
// seed implementation.
func TestFPTASMatchesReference(t *testing.T) {
	rng := stats.NewRand(31)
	for trial := 0; trial < 300; trial++ {
		in := randomInstance(rng, 2+rng.Intn(40))
		for _, eps := range []float64{0.1, 0.25, 0.5, 1.0} {
			got, errGot := SolveFPTAS(in, eps)
			want, errWant := SolveFPTASReference(in, eps)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("trial %d eps %g: err %v vs reference %v", trial, eps, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			assertSameSolution(t, "optimized vs reference", got, want)
		}
	}
}

// TestFPTASParallelMatchesSerial pins Solve to one result however many
// processors it may use: on instances of 64 or more users, solved under
// GOMAXPROCS 1 and 8 and twice on each Solver, the selection matches the
// reference and the work gauges (Cells, Pruned) are identical across every
// solve.
func TestFPTASParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rng := stats.NewRand(32)
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 64+rng.Intn(40))
		want, err := SolveFPTASReference(in, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var first *Solution
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			s := NewSolver(in, 0.5)
			for rep := 0; rep < 2; rep++ {
				got, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("trial %d GOMAXPROCS %d solve %d", trial, procs, rep)
				assertSameSolution(t, ctx+" vs reference", got, want)
				if first == nil {
					first = &got
				} else if got.Cells != first.Cells || got.Pruned != first.Pruned {
					t.Fatalf("%s: cells %d pruned %d, first solve cells %d pruned %d",
						ctx, got.Cells, got.Pruned, first.Cells, first.Pruned)
				}
			}
		}
	}
}

// TestSolverOverrideMatchesReference pins SolveWithContribution — the
// critical-bid probe that skips re-validation and re-sorting — to the
// reference run on a freshly built perturbed instance, across raised and
// lowered contributions.
func TestSolverOverrideMatchesReference(t *testing.T) {
	rng := stats.NewRand(33)
	for trial := 0; trial < 150; trial++ {
		in := randomInstance(rng, 3+rng.Intn(25))
		s := NewSolver(in, 0.5)
		i := rng.Intn(in.N())
		q := in.Contribs[i] * 2 * rng.Float64() // both below and above the declaration
		got, errGot := s.SolveWithContribution(i, q)
		mod, err := in.WithContribution(i, q)
		if err != nil {
			t.Fatal(err)
		}
		want, errWant := SolveFPTASReference(mod, 0.5)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: err %v vs reference %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		assertSameSolution(t, "override vs reference", got, want)
	}
}

// TestSolverOverrideInfeasible drops the pivotal user's contribution so the
// instance cannot cover the requirement; the probe must report ErrInfeasible
// exactly like a reference re-run.
func TestSolverOverrideInfeasible(t *testing.T) {
	in := mustInstance(t, []float64{1, 2}, []float64{0.2, 0.9}, 1.0)
	s := NewSolver(in, 0.5)
	if _, err := s.SolveWithContribution(1, 0.1); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := s.SolveWithContribution(5, 0.1); err == nil {
		t.Fatal("out-of-range index must fail")
	}
	if _, err := s.SolveWithContribution(0, math.NaN()); err == nil {
		t.Fatal("NaN contribution must fail")
	}
}

// TestFPTASPropertyMatchesReference is the property-style sweep: arbitrary
// seeds, solver reuse across overrides on the same instance, equality with
// the reference on every probe.
func TestFPTASPropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		in := randomInstance(rng, 2+rng.Intn(16))
		s := NewSolver(in, 0.25)
		base, err := s.Solve()
		if err != nil {
			return false
		}
		want, err := SolveFPTASReference(in, 0.25)
		if err != nil || base.Cost != want.Cost || len(base.Selected) != len(want.Selected) {
			return false
		}
		for probe := 0; probe < 4; probe++ {
			i := rng.Intn(in.N())
			q := in.Contribs[i] * rng.Float64()
			got, errGot := s.SolveWithContribution(i, q)
			mod, err := in.WithContribution(i, q)
			if err != nil {
				return false
			}
			ref, errRef := SolveFPTASReference(mod, 0.25)
			if (errGot == nil) != (errRef == nil) {
				return false
			}
			if errGot != nil {
				continue
			}
			if got.Cost != ref.Cost || len(got.Selected) != len(ref.Selected) {
				return false
			}
			for j := range got.Selected {
				if got.Selected[j] != ref.Selected[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSolverStatsAccumulate sanity-checks the observability counters: every
// call counts, and steady-state re-solves hit the workspace pool.
func TestSolverStatsAccumulate(t *testing.T) {
	rng := stats.NewRand(34)
	in := randomInstance(rng, 30)
	s := NewSolver(in, 0.5)
	for probe := 0; probe < 10; probe++ {
		if _, err := s.SolveWithContribution(probe%in.N(), in.Contribs[probe%in.N()]/2); err != nil && err != ErrInfeasible {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Solves != 10 {
		t.Errorf("Solves = %d, want 10", st.Solves)
	}
	if st.WorkspaceHits == 0 {
		t.Error("WorkspaceHits = 0, want pool reuse across re-solves")
	}
}
