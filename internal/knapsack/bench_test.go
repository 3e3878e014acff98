package knapsack

import (
	"fmt"
	"testing"

	"crowdsense/internal/stats"
)

func benchInstance(n int, seed int64) *Instance {
	return randomInstance(stats.NewRand(seed), n)
}

func BenchmarkSolveFPTAS(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		for _, eps := range []float64{0.1, 0.5} {
			in := benchInstance(n, int64(n))
			b.Run(fmt.Sprintf("n=%d/eps=%g", n, eps), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SolveFPTAS(in, eps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveFPTASReference benchmarks the retained seed implementation
// on the same instances, as the baseline the optimized Solver is measured
// against. Under -short (the `make bench` smoke) only n < 100 runs.
func BenchmarkSolveFPTASReference(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		if testing.Short() && n >= 100 {
			continue
		}
		for _, eps := range []float64{0.1, 0.5} {
			in := benchInstance(n, int64(n))
			b.Run(fmt.Sprintf("n=%d/eps=%g", n, eps), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SolveFPTASReference(in, eps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolverResolve measures the mechanism's steady-state hot path: one
// Solver reused across many critical-bid style re-solves, where the cost
// sort, validation, and DP workspaces are all amortized.
func BenchmarkSolverResolve(b *testing.B) {
	for _, n := range []int{50, 200} {
		in := benchInstance(n, int64(n))
		s := NewSolver(in, 0.5)
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := in.Contribs[i%n] * 0.5
				if _, err := s.SolveWithContribution(i%n, q); err != nil && err != ErrInfeasible {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveGreedy(b *testing.B) {
	for _, n := range []int{20, 100, 500} {
		in := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveGreedy(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveBnB(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		in := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveBnB(in, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveExactDP(b *testing.B) {
	for _, n := range []int{10, 16, 22} {
		in := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveExactDP(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
