package experiments

import (
	"fmt"

	"crowdsense/internal/auction"
	"crowdsense/internal/execution"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/reputation"
	"crowdsense/internal/stats"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// RunReputation plays repeated single-task auctions against a fixed cohort
// in which 30% of users systematically over-claim (declaring double their
// true contribution). The mechanism discounts declarations by the learned
// per-user reliability (a reputation.Store installed as its Adjuster, as
// the engine installs it) before allocating, and winners' execution
// outcomes reach the Store as the event sequence the engine emits for a
// settled round. The series show the reliability
// estimates separating the cohorts and the achieved task PoS recovering as
// the platform stops trusting the over-claimers.
//
// This is the repeated-game counterpart of the one-shot mechanisms: the
// paper's strategy-proofness removes the *incentive* to lie, and
// reputation removes the *damage* from users whose declarations are wrong
// anyway (stale models, optimistic devices).
func (e *Env) RunReputation() (*Result, error) {
	const (
		cohort      = 30
		overRatio   = 0.3
		rounds      = 100
		requirement = 0.8
		taskID      = auction.TaskID(1)
		campaign    = "ext-reputation"
	)
	rng := e.rng(108)
	rep, err := reputation.NewStore(reputation.StoreConfig{})
	if err != nil {
		return nil, err
	}
	m := &mechanism.SingleTask{Epsilon: 0.5, Alpha: mechanism.DefaultAlpha, Adjuster: rep}

	overClaimer := make([]bool, cohort)
	for i := range overClaimer {
		overClaimer[i] = float64(i) < overRatio*cohort
	}
	costs := make([]float64, cohort)
	for i := range costs {
		costs[i] = stats.NormalPositive(rng, 15, 2.2, 0.5)
	}

	xs := make([]float64, 0, rounds)
	honestRel := make([]float64, 0, rounds)
	overRel := make([]float64, 0, rounds)
	achieved := make([]float64, 0, rounds)

	for round := 1; round <= rounds; round++ {
		// Fresh task each round: users' true PoS values are redrawn.
		truePoS := make([]float64, cohort)
		declared := make([]float64, cohort)
		for i := range truePoS {
			truePoS[i] = stats.Uniform(rng, 0.15, 0.55)
			declared[i] = truePoS[i]
			if overClaimer[i] {
				// Double the contribution: p → 1 − (1−p)².
				declared[i] = auction.PoS(2 * auction.Contribution(truePoS[i]))
			}
		}

		// The mechanism discounts the declared bids through rep before
		// allocating.
		bids := make([]auction.Bid, cohort)
		for i := range bids {
			bids[i] = auction.NewBid(auction.UserID(i+1), []auction.TaskID{taskID}, costs[i],
				map[auction.TaskID]float64{taskID: declared[i]})
		}
		a, err := auction.New([]auction.Task{{ID: taskID, Requirement: requirement}}, bids)
		if err != nil {
			return nil, err
		}
		out, err := m.Run(a)
		if err != nil {
			// Heavy discounting can make a round infeasible; skip it (no
			// winners, no new evidence).
			continue
		}

		// Execute with the TRUE PoS and let the platform observe.
		trueBids := make([]auction.Bid, cohort)
		for i := range trueBids {
			trueBids[i] = auction.NewBid(auction.UserID(i+1), []auction.TaskID{taskID},
				costs[i], map[auction.TaskID]float64{taskID: truePoS[i]})
		}
		attempts, err := execution.Simulate(rng, trueBids, out.Selected)
		if err != nil {
			return nil, err
		}
		// Declared bids, then outcomes, committed at round_settled.
		rep.Observe(store.Event{Type: store.EventRoundOpened, Campaign: campaign, Round: round})
		for i := range bids {
			rep.Observe(store.Event{Type: store.EventBidAdmitted, Campaign: campaign, Round: round, Bid: &bids[i]})
		}
		for _, at := range attempts {
			rep.Observe(store.Event{Type: store.EventReportReceived, Campaign: campaign, Round: round,
				User: at.BidIndex + 1, Settle: &wire.Settle{Success: at.AnySuccess()}})
		}
		rep.Observe(store.Event{Type: store.EventRoundSettled, Campaign: campaign, Round: round})
		perTask, err := execution.AchievedPoS(a.Tasks, trueBids, out.Selected)
		if err != nil {
			return nil, err
		}

		var hAcc, oAcc stats.Accumulator
		for i := range overClaimer {
			r := rep.Reliability(auction.UserID(i + 1))
			if overClaimer[i] {
				oAcc.Add(r)
			} else {
				hAcc.Add(r)
			}
		}
		xs = append(xs, float64(round))
		honestRel = append(honestRel, hAcc.Mean())
		overRel = append(overRel, oAcc.Mean())
		achieved = append(achieved, perTask[taskID])
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("experiments: reputation: every round infeasible")
	}
	return &Result{
		ID:     "ext-reputation",
		Title:  "Reputation across rounds: estimates separate, coverage recovers",
		XLabel: "round",
		YLabel: "reliability estimate / achieved PoS",
		Series: []Series{
			{Label: "honest reliability", X: xs, Y: honestRel},
			{Label: "over-claimer reliability", X: xs, Y: overRel},
			{Label: "achieved task PoS", X: xs, Y: achieved},
		},
	}, nil
}
