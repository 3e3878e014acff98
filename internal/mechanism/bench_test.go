package mechanism

import (
	"fmt"
	"testing"

	"crowdsense/internal/stats"
)

func BenchmarkSingleTaskRun(b *testing.B) {
	for _, n := range []int{20, 50, 100, 200} {
		a := randomSingleAuction(stats.NewRand(int64(n)), n, 0.8)
		m := &SingleTask{Epsilon: 0.5, Alpha: 10}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleTaskRunReference runs the full mechanism through the
// retained seed solver (per-probe instance rebuilds) under GOMAXPROCS 1, so
// the critical-bid searches run serially: the baseline the optimized path's
// speedup is measured against. Under -short (the `make bench` smoke) only
// n < 100 runs: n=200 alone takes minutes.
func BenchmarkSingleTaskRunReference(b *testing.B) {
	setProcs(b, 1)
	for _, n := range []int{20, 50, 100, 200} {
		if testing.Short() && n >= 100 {
			continue
		}
		a := randomSingleAuction(stats.NewRand(int64(n)), n, 0.8)
		m := &SingleTask{Epsilon: 0.5, Alpha: 10}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.run(a, referenceKnapsack(m.epsilon())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMultiTaskRun(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode CriticalBidMode
	}{
		{"paper", CriticalBidPaper},
		{"scaled", CriticalBidScaled},
	} {
		for _, nt := range [][2]int{{50, 15}, {200, 20}} {
			a := randomMultiAuction(stats.NewRand(3), nt[0], nt[1], 0.8)
			m := &MultiTask{Alpha: 10, CriticalBid: mode.mode}
			b.Run(fmt.Sprintf("n=%d/t=%d/%s", nt[0], nt[1], mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiTaskRunReference is the seed baseline: reference greedy
// cover and, under GOMAXPROCS 1, serial per-winner critical-bid searches.
// Under -short only n < 100 runs.
func BenchmarkMultiTaskRunReference(b *testing.B) {
	setProcs(b, 1)
	for _, mode := range []struct {
		name string
		mode CriticalBidMode
	}{
		{"paper", CriticalBidPaper},
		{"scaled", CriticalBidScaled},
	} {
		for _, nt := range [][2]int{{50, 15}, {200, 20}} {
			if testing.Short() && nt[0] >= 100 {
				continue
			}
			a := randomMultiAuction(stats.NewRand(3), nt[0], nt[1], 0.8)
			m := &MultiTask{Alpha: 10, CriticalBid: mode.mode}
			b.Run(fmt.Sprintf("n=%d/t=%d/%s", nt[0], nt[1], mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.run(a, referenceCover); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkVCGBaselines(b *testing.B) {
	single := randomSingleAuction(stats.NewRand(4), 100, 0.8)
	multi := randomMultiAuction(stats.NewRand(5), 100, 15, 0.8)
	b.Run("ST-VCG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (STVCG{}).Run(single); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MT-VCG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (MTVCG{}).Run(multi); err != nil {
				b.Fatal(err)
			}
		}
	})
}
