package mechanism

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/stats"
)

// factorAdjuster scales each user's declared PoS by a fixed per-user factor,
// the shape of the reputation store's r̂·p discount. Factors above 1 push
// some products past 1 and a negative factor drives them below 0, so both
// of adjustAuction's clamps are exercised; unlisted users pass through.
type factorAdjuster map[auction.UserID]float64

func (f factorAdjuster) AdjustPoS(user auction.UserID, _ auction.TaskID, declared float64) float64 {
	if r, ok := f[user]; ok {
		return r * declared
	}
	return declared
}

// randomFactors draws a discount in [0.4, 1) for most users of a, plus one
// over-trusting factor (3) and one negative factor (-0.5) so that the
// clamps into [0, 1) engage.
func randomFactors(rng *rand.Rand, a *auction.Auction) factorAdjuster {
	f := make(factorAdjuster, len(a.Bids))
	for i, bid := range a.Bids {
		switch i {
		case 0:
			f[bid.User] = 3
		case 1:
			f[bid.User] = -0.5
		default:
			f[bid.User] = stats.Uniform(rng, 0.4, 1)
		}
	}
	return f
}

// prescaled is a with every PoS passed through adj and clamped into [0, 1)
// the way adjustAuction clamps, built independently of adjustAuction.
func prescaled(t *testing.T, a *auction.Auction, adj PoSAdjuster) *auction.Auction {
	t.Helper()
	bids := make([]auction.Bid, len(a.Bids))
	for i, bid := range a.Bids {
		pos := make(map[auction.TaskID]float64, len(bid.PoS))
		for id, p := range bid.PoS {
			q := adj.AdjustPoS(bid.User, id, p)
			if math.IsNaN(q) {
				q = 0
			}
			pos[id] = math.Min(math.Max(q, 0), 1-1e-12)
		}
		bids[i] = auction.NewBid(bid.User, bid.Tasks, bid.Cost, pos)
	}
	out, err := auction.New(a.Tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// adjusterCase pairs a mechanism constructor with its random instances: run
// builds the mechanism with the given adjuster (nil for none) and runs it.
type adjusterCase struct {
	name     string
	instance func(rng *rand.Rand) *auction.Auction
	run      func(adj PoSAdjuster, a *auction.Auction) (*Outcome, error)
	// raise returns a higher declared PoS for the bid's tasks.
	raise []func(p float64) float64
}

func adjusterCases() []adjusterCase {
	return []adjusterCase{
		{
			name:     "SingleTask",
			instance: func(rng *rand.Rand) *auction.Auction { return randomSingleAuction(rng, 6+rng.Intn(10), 0.6) },
			run: func(adj PoSAdjuster, a *auction.Auction) (*Outcome, error) {
				return (&SingleTask{Epsilon: 0.5, Alpha: 10, Adjuster: adj}).Run(a)
			},
			raise: []func(p float64) float64{
				func(p float64) float64 { return p + (0.99-p)/4 },
				func(p float64) float64 { return math.Min(0.99, 1.5*p) },
				func(float64) float64 { return 0.99 },
			},
		},
		{
			name: "MultiTask",
			instance: func(rng *rand.Rand) *auction.Auction {
				return randomMultiAuction(rng, 6+rng.Intn(12), 2+rng.Intn(5), 0.6)
			},
			run: func(adj PoSAdjuster, a *auction.Auction) (*Outcome, error) {
				return (&MultiTask{Alpha: 10, CriticalBid: CriticalBidScaled, Adjuster: adj}).Run(a)
			},
			raise: []func(p float64) float64{
				// Scale in contribution space: q → s·q.
				func(p float64) float64 { return auction.PoS(1.2 * auction.Contribution(p)) },
				func(p float64) float64 { return auction.PoS(3 * auction.Contribution(p)) },
			},
		},
	}
}

func TestAdjusterAllocatesOnPrescaledPoS(t *testing.T) {
	// Installing an adjuster must allocate exactly as running the bare
	// mechanism on an auction whose PoS were scaled and clamped beforehand:
	// same winners, same social cost, same infeasibility verdict.
	for _, tc := range adjusterCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRand(61)
			for trial := 0; trial < 20; trial++ {
				a := tc.instance(rng)
				adj := randomFactors(rng, a)
				got, gotErr := tc.run(adj, a)
				want, wantErr := tc.run(nil, prescaled(t, a, adj))
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("trial %d: adjusted err %v, prescaled err %v", trial, gotErr, wantErr)
				}
				if gotErr != nil {
					if !errors.Is(gotErr, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) {
						t.Fatalf("trial %d: adjusted err %v, prescaled err %v", trial, gotErr, wantErr)
					}
					continue
				}
				if !slices.Equal(got.Selected, want.Selected) {
					t.Fatalf("trial %d: selected %v, prescaled %v", trial, got.Selected, want.Selected)
				}
				if got.SocialCost != want.SocialCost {
					t.Fatalf("trial %d: social cost %v, prescaled %v", trial, got.SocialCost, want.SocialCost)
				}
			}
		})
	}
}

func TestAdjusterAllocationMonotoneInDeclaredPoS(t *testing.T) {
	// With an adjuster installed, a winner who raises her declared PoS must
	// keep winning: the adjuster is monotone in the declaration, so the
	// paper's monotone allocation carries over to declared space.
	for _, tc := range adjusterCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRand(62)
			checked := 0
			for trial := 0; trial < 15; trial++ {
				a := tc.instance(rng)
				adj := randomFactors(rng, a)
				out, err := tc.run(adj, a)
				if errors.Is(err, ErrInfeasible) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range out.Selected {
					bid := a.Bids[w]
					for k, raise := range tc.raise {
						pos := make(map[auction.TaskID]float64, len(bid.PoS))
						for id, p := range bid.PoS {
							pos[id] = math.Max(p, raise(p))
						}
						up, err := a.WithBid(w, auction.NewBid(bid.User, bid.Tasks, bid.Cost, pos))
						if err != nil {
							t.Fatal(err)
						}
						upOut, err := tc.run(adj, up)
						if err != nil {
							t.Fatalf("trial %d winner %d raise %d: %v", trial, w, k, err)
						}
						if !upOut.Winner(w) {
							t.Fatalf("trial %d: user %d (factor %g) won declaring %v but lost declaring %v",
								trial, bid.User, adj[bid.User], bid.PoS, pos)
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no winner was checked")
			}
		})
	}
}
