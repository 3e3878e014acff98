package mechanism

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/stats"
)

const testTaskID auction.TaskID = 1

// singleAuction builds a single-task auction from (cost, PoS) pairs.
func singleAuction(t *testing.T, requirement float64, users ...[2]float64) *auction.Auction {
	t.Helper()
	tasks := []auction.Task{{ID: testTaskID, Requirement: requirement}}
	bids := make([]auction.Bid, len(users))
	for i, u := range users {
		bids[i] = auction.NewBid(auction.UserID(i+1), []auction.TaskID{testTaskID},
			u[0], map[auction.TaskID]float64{testTaskID: u[1]})
	}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// randomSingleAuction builds a feasible random single-task instance.
func randomSingleAuction(rng *rand.Rand, n int, requirement float64) *auction.Auction {
	tasks := []auction.Task{{ID: testTaskID, Requirement: requirement}}
	for {
		bids := make([]auction.Bid, n)
		for i := range bids {
			bids[i] = auction.NewBid(auction.UserID(i+1), []auction.TaskID{testTaskID},
				stats.NormalPositive(rng, 15, math.Sqrt(5), 0.5),
				map[auction.TaskID]float64{testTaskID: stats.Uniform(rng, 0.05, 0.5)})
		}
		a, err := auction.New(tasks, bids)
		if err != nil {
			panic(err)
		}
		if a.Feasible(1e-9) {
			return a
		}
	}
}

// trueExpectedUtility computes a user's expected utility given her TRUE PoS
// and the outcome of an auction run on (possibly misreported) declarations.
func trueExpectedUtility(out *Outcome, bidIndex int, truePoS, cost float64) float64 {
	aw, ok := out.AwardFor(bidIndex)
	if !ok {
		return 0
	}
	return truePoS*aw.RewardOnSuccess + (1-truePoS)*aw.RewardOnFailure - cost
}

func TestSingleTaskRejectsMultiTask(t *testing.T) {
	tasks := []auction.Task{{ID: 1, Requirement: 0.5}, {ID: 2, Requirement: 0.5}}
	bids := []auction.Bid{auction.NewBid(1, []auction.TaskID{1, 2}, 3,
		map[auction.TaskID]float64{1: 0.7, 2: 0.7})}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	m := &SingleTask{}
	if _, err := m.Run(a); !errors.Is(err, ErrNotSingleTask) {
		t.Errorf("error = %v, want ErrNotSingleTask", err)
	}
}

func TestSingleTaskInfeasible(t *testing.T) {
	a := singleAuction(t, 0.99, [2]float64{3, 0.2})
	m := &SingleTask{}
	if _, err := m.Run(a); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestSingleTaskNegativeAlpha(t *testing.T) {
	a := singleAuction(t, 0.5, [2]float64{3, 0.7})
	m := &SingleTask{Alpha: -1}
	if _, err := m.Run(a); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestSingleTaskOutcomeShape(t *testing.T) {
	a := singleAuction(t, 0.9,
		[2]float64{3, 0.7}, [2]float64{2, 0.7}, [2]float64{1, 0.5}, [2]float64{4, 0.8})
	m := &SingleTask{Epsilon: 0.1, Alpha: 10}
	out, err := m.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Selected) == 0 {
		t.Fatal("no winners")
	}
	if !a.CoveredBy(out.Selected, 1e-9) {
		t.Error("winners do not cover the requirement")
	}
	if math.Abs(out.SocialCost-a.SocialCost(out.Selected)) > 1e-9 {
		t.Errorf("social cost %g mismatches selection cost", out.SocialCost)
	}
	if len(out.Awards) != len(out.Selected) {
		t.Fatalf("%d awards for %d winners", len(out.Awards), len(out.Selected))
	}
	for _, aw := range out.Awards {
		bid := a.Bids[aw.BidIndex]
		if aw.User != bid.User {
			t.Errorf("award user %d mismatches bid user %d", aw.User, bid.User)
		}
		declared := bid.PoS[testTaskID]
		if aw.CriticalPoS > declared+1e-6 {
			t.Errorf("critical PoS %g exceeds declared %g", aw.CriticalPoS, declared)
		}
		if aw.CriticalPoS < 0 || aw.CriticalPoS >= 1 {
			t.Errorf("critical PoS %g out of range", aw.CriticalPoS)
		}
		wantSuccess := (1-aw.CriticalPoS)*10 + bid.Cost
		wantFailure := -aw.CriticalPoS*10 + bid.Cost
		if math.Abs(aw.RewardOnSuccess-wantSuccess) > 1e-9 ||
			math.Abs(aw.RewardOnFailure-wantFailure) > 1e-9 {
			t.Errorf("EC rewards (%g, %g) mismatch (%g, %g)",
				aw.RewardOnSuccess, aw.RewardOnFailure, wantSuccess, wantFailure)
		}
		// Declared expected utility = (p − p̄)α.
		want := (declared - aw.CriticalPoS) * 10
		if math.Abs(aw.ExpectedUtility-want) > 1e-6 {
			t.Errorf("expected utility %g, want %g", aw.ExpectedUtility, want)
		}
	}
}

func TestSingleTaskIndividualRationality(t *testing.T) {
	rng := stats.NewRand(40)
	for trial := 0; trial < 30; trial++ {
		a := randomSingleAuction(rng, 8+rng.Intn(20), 0.8)
		m := &SingleTask{Epsilon: 0.5, Alpha: 10}
		out, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, aw := range out.Awards {
			if aw.ExpectedUtility < -1e-6 {
				t.Fatalf("trial %d: winner %d has negative expected utility %g",
					trial, aw.BidIndex, aw.ExpectedUtility)
			}
		}
	}
}

func TestSingleTaskCriticalBidIsThreshold(t *testing.T) {
	// Declaring just below the critical PoS must lose; at the declaration
	// (≥ critical) the user wins by construction.
	rng := stats.NewRand(41)
	a := randomSingleAuction(rng, 12, 0.8)
	m := &SingleTask{Epsilon: 0.5, Alpha: 10}
	out, err := m.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	aw := out.Awards[0]
	below := aw.CriticalPoS - 1e-4
	if below > 0 {
		bid := a.Bids[aw.BidIndex]
		misA, err := a.WithBid(aw.BidIndex, auction.NewBid(bid.User, bid.Tasks, bid.Cost,
			map[auction.TaskID]float64{testTaskID: below}))
		if err != nil {
			t.Fatal(err)
		}
		out2, err := m.Run(misA)
		if err == nil && out2.Winner(aw.BidIndex) {
			t.Errorf("user %d won while declaring %g below critical %g",
				aw.BidIndex, below, aw.CriticalPoS)
		}
	}
}

func TestSingleTaskStrategyProof(t *testing.T) {
	// No misreport of the PoS may increase a user's TRUE expected utility
	// (Theorem 1). Checked for winners and losers over random instances.
	rng := stats.NewRand(42)
	m := &SingleTask{Epsilon: 0.5, Alpha: 10}
	for trial := 0; trial < 15; trial++ {
		a := randomSingleAuction(rng, 6+rng.Intn(10), 0.75)
		truthOut, err := m.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, bid := range a.Bids {
			truePoS := bid.PoS[testTaskID]
			truthfulUtility := trueExpectedUtility(truthOut, i, truePoS, bid.Cost)
			for _, misreport := range []float64{
				truePoS * 0.5,
				truePoS * 0.9,
				math.Min(0.99, truePoS*1.5),
				math.Min(0.99, truePoS+0.3),
				0.99,
			} {
				misA, err := a.WithBid(i, auction.NewBid(bid.User, bid.Tasks, bid.Cost,
					map[auction.TaskID]float64{testTaskID: misreport}))
				if err != nil {
					t.Fatal(err)
				}
				misOut, err := m.Run(misA)
				if err != nil {
					if errors.Is(err, ErrInfeasible) {
						continue // lowering own PoS can break feasibility
					}
					t.Fatal(err)
				}
				misUtility := trueExpectedUtility(misOut, i, truePoS, bid.Cost)
				if misUtility > truthfulUtility+1e-4 {
					t.Fatalf("trial %d user %d: misreport %g raises utility %g > truthful %g",
						trial, i, misreport, misUtility, truthfulUtility)
				}
			}
		}
	}
}

func TestSingleTaskOPTMatchesKnownOptimum(t *testing.T) {
	a := singleAuction(t, 0.9,
		[2]float64{3, 0.7}, [2]float64{2, 0.7}, [2]float64{1, 0.5}, [2]float64{4, 0.8})
	in, _, err := singleTaskInstance(a)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := knapsack.SolveBnB(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Cost-5) > 1e-9 {
		t.Errorf("OPT social cost = %g, want 5", opt.Cost)
	}
	if !in.Covered(opt.Selected) {
		t.Errorf("OPT selection %v does not cover the requirement", opt.Selected)
	}
}

func TestSingleTaskFPTASWithinEpsilonOfOPT(t *testing.T) {
	rng := stats.NewRand(43)
	for trial := 0; trial < 20; trial++ {
		a := randomSingleAuction(rng, 6+rng.Intn(10), 0.8)
		fp := &SingleTask{Epsilon: 0.3, Alpha: 10}
		fpOut, err := fp.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		in, _, err := singleTaskInstance(a)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := knapsack.SolveBnB(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fpOut.SocialCost > 1.3*opt.Cost+1e-9 {
			t.Fatalf("trial %d: FPTAS %g exceeds 1.3×OPT %g",
				trial, fpOut.SocialCost, opt.Cost)
		}
	}
}

func TestOutcomeHelpers(t *testing.T) {
	out := &Outcome{
		Selected: []int{1, 3},
		Awards: []Award{
			{BidIndex: 1, User: 2},
			{BidIndex: 3, User: 4},
		},
	}
	if !out.Winner(1) || !out.Winner(3) || out.Winner(2) {
		t.Error("Winner wrong")
	}
	if aw, ok := out.AwardFor(3); !ok || aw.User != 4 {
		t.Error("AwardFor wrong")
	}
	if _, ok := out.AwardFor(9); ok {
		t.Error("AwardFor(9) should miss")
	}
}
