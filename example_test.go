package crowdsense_test

// Runnable walkthroughs of the paper's mechanisms. Each Example pins its
// printed output, so `go test ./...` catches a drift in any number it shows;
// run one with `go test -run '^Example_quickstart$' -v .`.

import (
	"fmt"
	"math/rand"

	"crowdsense/internal/auction"
	"crowdsense/internal/execution"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/stats"
	"crowdsense/internal/trace"
	"crowdsense/internal/workload"
)

// must panics on err; the walkthroughs have no error path worth narrating.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// workedExample is the paper's §III-A auction: one task with PoS
// requirement 0.9 and four users with (cost, PoS) = (3, 0.7), (2, 0.7),
// (1, 0.5), (4, 0.8).
func workedExample() *auction.Auction {
	tasks := []auction.Task{{ID: 1, Requirement: 0.9}}
	bids := []auction.Bid{
		auction.NewBid(1, []auction.TaskID{1}, 3, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(2, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(3, []auction.TaskID{1}, 1, map[auction.TaskID]float64{1: 0.5}),
		auction.NewBid(4, []auction.TaskID{1}, 4, map[auction.TaskID]float64{1: 0.8}),
	}
	a, err := auction.New(tasks, bids)
	must(err)
	return a
}

// syntheticCity learns a mobility population from synthetic taxi traces,
// downsized for a quick walkthrough (the experiments use the paper-scale
// configuration). It returns the population and the generator's rng, which
// the caller keeps drawing auctions from.
func syntheticCity(seed int64) (*workload.Population, *rand.Rand) {
	cfg := trace.DefaultConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.Taxis = 220
	cfg.Days = 14
	cfg.TerritorySize = 20
	cfg.Hotspots = 25
	gen, err := trace.NewGenerator(cfg)
	must(err)
	rng := stats.NewRand(seed)
	tlog, err := gen.Generate(rng)
	must(err)
	pop, err := workload.BuildPopulation(tlog, 1, 2)
	must(err)
	return pop, rng
}

// Example_quickstart runs the paper's worked example (§III-A) through the
// single-task mechanism — four users bidding on one sensing task that must
// be completed with probability at least 0.9 — then simulates execution and
// settles the execution-contingent rewards.
func Example_quickstart() {
	a := workedExample()

	// Run the strategy-proof single-task mechanism (FPTAS winner
	// determination + critical-bid execution-contingent rewards).
	m := &mechanism.SingleTask{Epsilon: 0.1, Alpha: 10}
	out, err := m.Run(a)
	must(err)
	fmt.Printf("%s\n", out.Mechanism)
	fmt.Printf("winners (social cost %.2f):\n", out.SocialCost)
	for _, aw := range out.Awards {
		fmt.Printf("  user %d: critical PoS %.3f, reward %.2f on success / %.2f on failure, E[utility] %.3f\n",
			aw.User, aw.CriticalPoS, aw.RewardOnSuccess, aw.RewardOnFailure, aw.ExpectedUtility)
	}

	// Simulate execution with the users' true PoS and settle.
	rng := stats.NewRand(42)
	attempts, err := execution.Simulate(rng, a.Bids, out.Selected)
	must(err)
	settlements, err := execution.Settle(out, attempts, a.Bids)
	must(err)
	fmt.Println("after execution:")
	for _, s := range settlements {
		fmt.Printf("  user %d: success=%v, paid %.2f, realized utility %+.2f\n",
			s.User, s.Success, s.Reward, s.Utility)
	}

	// The platform's guarantee: the task completes with probability ≥ 0.9.
	achieved, err := execution.AchievedPoS(a.Tasks, a.Bids, out.Selected)
	must(err)
	fmt.Printf("achieved PoS: %.4f (required %.2f)\n", achieved[1], a.Tasks[0].Requirement)

	// Output:
	// single-task FPTAS(ε=0.1)
	// winners (social cost 5.00):
	//   user 1: critical PoS 0.667, reward 6.33 on success / -3.67 on failure, E[utility] 0.333
	//   user 2: critical PoS 0.667, reward 5.33 on success / -4.67 on failure, E[utility] 0.333
	// after execution:
	//   user 1: success=true, paid 6.33, realized utility +3.33
	//   user 2: success=true, paid 5.33, realized utility +3.33
	// achieved PoS: 0.9100 (required 0.90)
}

// Example_singletask learns mobility models from synthetic taxi traces,
// samples a single-task auction per the paper's Table II workload, compares
// the FPTAS winner determination against the exact optimum and the
// Min-Greedy baseline, then runs the full strategy-proof mechanism and shows
// that the achieved PoS meets the requirement while every truthful winner
// has non-negative expected utility.
func Example_singletask() {
	pop, rng := syntheticCity(7)
	fmt.Printf("population: %d users with learned mobility models\n", pop.Size())

	// Sample the paper's default single-task workload with 60 users.
	params := workload.DefaultSingleTaskParams()
	a, err := pop.SampleSingleTask(rng, params, 60)
	must(err)
	fmt.Printf("auction: task %d, requirement %.2f, %d bidders\n\n",
		a.Tasks[0].ID, a.Tasks[0].Requirement, len(a.Bids))

	// Compare the three allocation algorithms of Fig. 5(a) on the
	// auction's knapsack projection.
	task := a.Tasks[0]
	costs := make([]float64, len(a.Bids))
	contribs := make([]float64, len(a.Bids))
	for i, bid := range a.Bids {
		costs[i] = bid.Cost
		contribs[i] = bid.Contribution(task.ID)
	}
	in, err := knapsack.NewInstance(costs, contribs, task.RequiredContribution())
	must(err)
	opt, err := knapsack.SolveBnB(in, 0)
	must(err)
	for _, eps := range []float64{0.1, 0.5} {
		sol, err := knapsack.SolveFPTAS(in, eps)
		must(err)
		fmt.Printf("FPTAS(ε=%.1f): cost %.2f  (%.2f×OPT, %d winners)\n",
			eps, sol.Cost, sol.Cost/opt.Cost, len(sol.Selected))
	}
	greedy, err := knapsack.SolveGreedy(in)
	must(err)
	fmt.Printf("Min-Greedy:   cost %.2f  (%.2f×OPT, %d winners)\n",
		greedy.Cost, greedy.Cost/opt.Cost, len(greedy.Selected))
	fmt.Printf("OPT:          cost %.2f  (%d winners)\n\n", opt.Cost, len(opt.Selected))

	// Run the full mechanism: allocation + critical-bid EC rewards.
	m := &mechanism.SingleTask{Epsilon: 0.5, Alpha: 10}
	out, err := m.Run(a)
	must(err)
	fmt.Printf("%s: %d winners, social cost %.2f\n", out.Mechanism, len(out.Selected), out.SocialCost)
	for _, aw := range out.Awards {
		declared := a.Bids[aw.BidIndex].PoS[task.ID]
		fmt.Printf("  user %-5d declared PoS %.3f  critical %.3f  E[utility] %.3f\n",
			aw.User, declared, aw.CriticalPoS, aw.ExpectedUtility)
		if aw.ExpectedUtility < 0 {
			panic(fmt.Sprintf("individual rationality violated for user %d", aw.User))
		}
	}

	achieved, err := execution.AchievedPoS(a.Tasks, a.Bids, out.Selected)
	must(err)
	fmt.Printf("\nachieved PoS %.4f ≥ required %.2f\n", achieved[task.ID], params.Requirement)

	// Monte-Carlo cross-check of the analytic PoS.
	empirical, err := execution.EmpiricalPoS(rng, a.Tasks, a.Bids, out.Selected, 20000)
	must(err)
	fmt.Printf("empirical PoS %.4f over 20000 simulated campaigns\n", empirical[task.ID])

	// Output:
	// population: 220 users with learned mobility models
	// auction: task 93, requirement 0.80, 60 bidders
	//
	// FPTAS(ε=0.1): cost 88.37  (1.00×OPT, 6 winners)
	// FPTAS(ε=0.5): cost 88.37  (1.00×OPT, 6 winners)
	// Min-Greedy:   cost 88.37  (1.00×OPT, 6 winners)
	// OPT:          cost 88.37  (6 winners)
	//
	// single-task FPTAS(ε=0.5): 6 winners, social cost 88.37
	//   user 6     declared PoS 0.215  critical 0.181  E[utility] 0.341
	//   user 5     declared PoS 0.249  critical 0.199  E[utility] 0.494
	//   user 15    declared PoS 0.177  critical 0.142  E[utility] 0.357
	//   user 153   declared PoS 0.274  critical 0.181  E[utility] 0.930
	//   user 210   declared PoS 0.257  critical 0.161  E[utility] 0.953
	//   user 93    declared PoS 0.268  critical 0.220  E[utility] 0.481
	//
	// achieved PoS 0.8083 ≥ required 0.80
	// empirical PoS 0.8041 over 20000 simulated campaigns
}

// Example_multitask samples a 15-task auction from a learned mobility
// population, runs the greedy strategy-proof mechanism, audits the achieved
// PoS of every task against the naive MT-VCG baseline (which trusts
// declared PoS and under-provisions), and demonstrates misreport
// resistance: a user who inflates or deflates her declared PoS cannot
// improve her true expected utility.
func Example_multitask() {
	pop, rng := syntheticCity(11)
	params := workload.DefaultParams()
	a, err := pop.SampleMultiTask(rng, params, 80, 15)
	must(err)
	fmt.Printf("auction: %d tasks (requirement %.2f each), %d bidders\n\n",
		len(a.Tasks), params.Requirement, len(a.Bids))

	// Our fault-tolerant mechanism.
	ours := &mechanism.MultiTask{Alpha: 10}
	out, err := ours.Run(a)
	must(err)
	fmt.Printf("%s: %d winners, social cost %.2f\n", out.Mechanism, len(out.Selected), out.SocialCost)

	// The naive baseline that trusts PoS declarations.
	vcgOut, err := (mechanism.MTVCG{}).Run(a)
	must(err)
	fmt.Printf("%s: %d winners, social cost %.2f\n\n", vcgOut.Mechanism, len(vcgOut.Selected), vcgOut.SocialCost)

	// Achieved PoS audit (Fig. 7's point).
	oursPoS, err := execution.MeanAchievedPoS(a.Tasks, a.Bids, out.Selected)
	must(err)
	vcgPoS, err := execution.MeanAchievedPoS(a.Tasks, a.Bids, vcgOut.Selected)
	must(err)
	fmt.Printf("mean achieved PoS: ours %.3f vs MT-VCG %.3f (required %.2f)\n",
		oursPoS, vcgPoS, params.Requirement)
	perTask, err := execution.AchievedPoS(a.Tasks, a.Bids, out.Selected)
	must(err)
	short := 0
	for _, task := range a.Tasks {
		if perTask[task.ID] < task.Requirement-1e-9 {
			short++
		}
	}
	fmt.Printf("tasks below requirement under ours: %d/%d\n\n", short, len(a.Tasks))

	// Misreport resistance: take one winner, scale her declared
	// contributions up and down, and compare TRUE expected utilities.
	winner := out.Selected[0]
	trueBid := a.Bids[winner]
	truthful := trueUtility(out, winner, trueBid)
	fmt.Printf("misreport sweep for user %d (truthful E[utility] %.3f):\n", trueBid.User, truthful)
	for _, scale := range []float64{0.25, 0.5, 2.0, 4.0} {
		mis := make(map[auction.TaskID]float64, len(trueBid.PoS))
		for id, p := range trueBid.PoS {
			mis[id] = auction.PoS(scale * auction.Contribution(p))
		}
		misA, err := a.WithBid(winner, auction.NewBid(trueBid.User, trueBid.Tasks, trueBid.Cost, mis))
		must(err)
		misOut, err := ours.Run(misA)
		if err != nil {
			fmt.Printf("  scale %.2f: auction infeasible after deflation\n", scale)
			continue
		}
		u := trueUtility(misOut, winner, trueBid)
		verdict := "no gain"
		if u > truthful+1e-6 {
			verdict = "GAIN (unexpected!)"
		}
		fmt.Printf("  scale %.2f: E[utility] %.3f  -> %s\n", scale, u, verdict)
	}

	// Output:
	// auction: 15 tasks (requirement 0.80 each), 80 bidders
	//
	// multi-task greedy: 8 winners, social cost 109.37
	// MT-VCG: 3 winners, social cost 37.72
	//
	// mean achieved PoS: ours 0.935 vs MT-VCG 0.610 (required 0.80)
	// tasks below requirement under ours: 0/15
	//
	// misreport sweep for user 36 (truthful E[utility] 9.768):
	//   scale 0.25: E[utility] 0.000  -> no gain
	//   scale 0.50: E[utility] 0.000  -> no gain
	//   scale 2.00: E[utility] 9.768  -> no gain
	//   scale 4.00: E[utility] 9.768  -> no gain
}

// trueUtility evaluates the user's expected utility under her TRUE type for
// whatever contract (if any) the outcome granted her.
func trueUtility(out *mechanism.Outcome, bidIndex int, trueBid auction.Bid) float64 {
	aw, ok := out.AwardFor(bidIndex)
	if !ok {
		return 0
	}
	pAny := trueBid.CombinedPoS()
	return pAny*aw.RewardOnSuccess + (1-pAny)*aw.RewardOnFailure - trueBid.Cost
}

// Example_budget follows the paper's note that the reward scale α "can be
// adjusted according to the budget constraint of the platform" (§III-B): it
// runs the worked example, inspects the platform's worst-case liability,
// and reprices the execution-contingent contracts to fit a budget without
// re-running winner determination (allocation and critical bids are
// α-independent, so strategy-proofness and individual rationality are
// preserved at any α > 0).
func Example_budget() {
	m := &mechanism.SingleTask{Epsilon: 0.1, Alpha: 10}
	out, err := m.Run(workedExample())
	must(err)
	fmt.Printf("at α = %.0f: social cost %.2f, worst-case payout %.2f\n",
		out.Alpha, out.SocialCost, out.WorstCasePayment())
	for _, aw := range out.Awards {
		fmt.Printf("  user %d: pays %.2f on success / %.2f on failure\n",
			aw.User, aw.RewardOnSuccess, aw.RewardOnFailure)
	}

	// The platform's round budget is 8: find the largest feasible α.
	const budget = 8
	alpha, err := out.AlphaForBudget(budget)
	must(err)
	fmt.Printf("\nbudget %d admits α up to %.4f\n", budget, alpha)

	repriced, err := out.Reprice(alpha)
	must(err)
	fmt.Printf("repriced worst-case payout: %.2f (within budget)\n", repriced.WorstCasePayment())
	for _, aw := range repriced.Awards {
		fmt.Printf("  user %d: pays %.2f on success / %.2f on failure, E[utility] %.3f\n",
			aw.User, aw.RewardOnSuccess, aw.RewardOnFailure, aw.ExpectedUtility)
		if aw.ExpectedUtility < 0 {
			panic("repricing broke individual rationality")
		}
	}
	fmt.Println("\nallocation, critical bids, IR and truthfulness are unchanged —")
	fmt.Println("only the incentive margin (p − p̄)·α shrinks with the budget.")

	// Output:
	// at α = 10: social cost 5.00, worst-case payout 11.67
	//   user 1: pays 6.33 on success / -3.67 on failure
	//   user 2: pays 5.33 on success / -4.67 on failure
	//
	// budget 8 admits α up to 4.5000
	// repriced worst-case payout: 8.00 (within budget)
	//   user 1: pays 4.50 on success / 0.00 on failure, E[utility] 0.150
	//   user 2: pays 3.50 on success / -1.00 on failure, E[utility] 0.150
	//
	// allocation, critical bids, IR and truthfulness are unchanged —
	// only the incentive margin (p − p̄)·α shrinks with the budget.
}
