package mechanism

import (
	"errors"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/stats"
)

func TestSTVCGSelectsCheapest(t *testing.T) {
	a := singleAuction(t, 0.9,
		[2]float64{3, 0.7}, [2]float64{2, 0.7}, [2]float64{1, 0.5}, [2]float64{4, 0.8})
	out, err := STVCG{}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Selected) != 1 || out.Selected[0] != 2 {
		t.Errorf("selected %v, want the cheapest user [2]", out.Selected)
	}
	if out.SocialCost != 1 {
		t.Errorf("social cost = %g, want 1", out.SocialCost)
	}
	// Second-price payment: next-lowest cost is 2.
	aw := out.Awards[0]
	if aw.RewardOnSuccess != 2 || aw.RewardOnFailure != 2 {
		t.Errorf("payment = (%g, %g), want (2, 2)", aw.RewardOnSuccess, aw.RewardOnFailure)
	}
	if aw.ExpectedUtility != 1 {
		t.Errorf("utility = %g, want 1", aw.ExpectedUtility)
	}
}

func TestSTVCGSingleBidder(t *testing.T) {
	a := singleAuction(t, 0.5, [2]float64{7, 0.9})
	out, err := STVCG{}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Awards[0].RewardOnSuccess != 7 {
		t.Errorf("lone bidder payment = %g, want own cost 7", out.Awards[0].RewardOnSuccess)
	}
}

func TestSTVCGRejectsMultiTask(t *testing.T) {
	tasks := []auction.Task{{ID: 1, Requirement: 0.5}, {ID: 2, Requirement: 0.5}}
	bids := []auction.Bid{auction.NewBid(1, []auction.TaskID{1, 2}, 3,
		map[auction.TaskID]float64{1: 0.7, 2: 0.7})}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (STVCG{}).Run(a); !errors.Is(err, ErrNotSingleTask) {
		t.Errorf("error = %v, want ErrNotSingleTask", err)
	}
}

func TestSTVCGUnderProvisions(t *testing.T) {
	// The point of Fig. 7: ST-VCG achieves only the single winner's true
	// PoS, far below what the requirement demands.
	rng := stats.NewRand(60)
	a := randomSingleAuction(rng, 20, 0.8)
	out, err := STVCG{}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	achieved := a.Bids[out.Selected[0]].PoS[testTaskID]
	if achieved >= 0.8 {
		t.Skipf("unlucky draw: lone user has PoS %g ≥ 0.8", achieved)
	}
	if a.CoveredBy(out.Selected, 1e-9) {
		t.Error("a single low-PoS user should not satisfy the requirement")
	}
}

func TestMTVCGCoversEveryTaskOnce(t *testing.T) {
	tasks := []auction.Task{
		{ID: 1, Requirement: 0.8}, {ID: 2, Requirement: 0.8}, {ID: 3, Requirement: 0.8},
	}
	bids := []auction.Bid{
		auction.NewBid(1, []auction.TaskID{1, 2}, 4, map[auction.TaskID]float64{1: 0.2, 2: 0.2}),
		auction.NewBid(2, []auction.TaskID{3}, 3, map[auction.TaskID]float64{3: 0.2}),
		auction.NewBid(3, []auction.TaskID{1, 2, 3}, 20, map[auction.TaskID]float64{1: 0.2, 2: 0.2, 3: 0.2}),
	}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MTVCG{}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	// Users 1 and 2 cover all tasks at cost 7; user 3 alone costs 20.
	if len(out.Selected) != 2 || out.Selected[0] != 0 || out.Selected[1] != 1 {
		t.Errorf("selected %v, want [0 1]", out.Selected)
	}
	if out.SocialCost != 7 {
		t.Errorf("social cost = %g, want 7", out.SocialCost)
	}
	// Every task is claimed by at least one selected user.
	claimed := map[auction.TaskID]bool{}
	for _, idx := range out.Selected {
		for _, j := range a.Bids[idx].Tasks {
			claimed[j] = true
		}
	}
	for _, task := range tasks {
		if !claimed[task.ID] {
			t.Errorf("task %d unclaimed", task.ID)
		}
	}
}

func TestMTVCGInfeasibleWhenTaskUnclaimed(t *testing.T) {
	tasks := []auction.Task{{ID: 1, Requirement: 0.5}, {ID: 2, Requirement: 0.5}}
	bids := []auction.Bid{auction.NewBid(1, []auction.TaskID{1}, 3,
		map[auction.TaskID]float64{1: 0.7})}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (MTVCG{}).Run(a); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestMTVCGCheaperThanTruthAwareMechanism(t *testing.T) {
	// Trusting PoS = 1 buys far fewer users, so MT-VCG's social cost is
	// lower — and its achieved PoS falls short (checked in the execution
	// package). Here we only pin the cost relation.
	rng := stats.NewRand(61)
	a := randomMultiAuction(rng, 25, 6, 0.8)
	vcgOut, err := MTVCG{}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	ourOut, err := (&MultiTask{Alpha: 10}).Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if vcgOut.SocialCost > ourOut.SocialCost {
		t.Errorf("MT-VCG cost %g above fault-tolerant mechanism %g",
			vcgOut.SocialCost, ourOut.SocialCost)
	}
}

func TestMechanismNames(t *testing.T) {
	names := map[string]Mechanism{
		"single-task FPTAS(ε=0.5)": &SingleTask{Epsilon: 0.5},
		"multi-task greedy":        &MultiTask{},
		"ST-VCG":                   STVCG{},
		"MT-VCG":                   MTVCG{},
	}
	for want, m := range names {
		if got := m.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
