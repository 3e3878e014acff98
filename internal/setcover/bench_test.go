package setcover

import (
	"fmt"
	"testing"

	"crowdsense/internal/stats"
)

func BenchmarkGreedy(b *testing.B) {
	for _, nt := range [][2]int{{20, 10}, {50, 15}, {100, 30}, {200, 30}} {
		a := randomAuction(stats.NewRand(int64(nt[0])), nt[0], nt[1], 8, 0.8)
		b.Run(fmt.Sprintf("n=%d/t=%d", nt[0], nt[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Greedy(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyReference benchmarks the retained seed implementation (full
// rescan every round) on the same instances, as the lazy greedy's baseline.
// Under -short (the `make bench` smoke) only n < 100 runs.
func BenchmarkGreedyReference(b *testing.B) {
	for _, nt := range [][2]int{{20, 10}, {50, 15}, {100, 30}, {200, 30}} {
		if testing.Short() && nt[0] >= 100 {
			continue
		}
		a := randomAuction(stats.NewRand(int64(nt[0])), nt[0], nt[1], 8, 0.8)
		b.Run(fmt.Sprintf("n=%d/t=%d", nt[0], nt[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GreedyReference(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBnB(b *testing.B) {
	for _, nt := range [][2]int{{12, 5}, {20, 8}} {
		a := randomAuction(stats.NewRand(int64(nt[0])), nt[0], nt[1], 5, 0.75)
		b.Run(fmt.Sprintf("n=%d/t=%d", nt[0], nt[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BnB(a, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoverageValue(b *testing.B) {
	a := randomAuction(stats.NewRand(7), 100, 30, 10, 0.8)
	selected := make([]int, len(a.Bids))
	for i := range selected {
		selected[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CoverageValue(a, selected)
	}
}
