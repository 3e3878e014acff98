// Distributed round: the crowdsensing platform and a fleet of mobile-user
// agents running as real network peers over loopback TCP — the reverse
// auction of the paper's Fig. 1 (steps 2–6) as an actual protocol: publish
// tasks, collect sealed bids, award execution-contingent contracts, gather
// execution reports, settle rewards.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/stats"
)

func main() {
	const (
		numAgents   = 12
		numTasks    = 4
		requirement = 0.7
	)

	// Start the platform: an engine serving one single-round campaign.
	// Agents that name no campaign land in it.
	tasks := make([]auction.Task, numTasks)
	for i := range tasks {
		tasks[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: requirement}
	}
	eng := engine.New(engine.Config{ConnTimeout: 10 * time.Second})
	if err := eng.AddCampaign(engine.CampaignConfig{
		ID:              "default",
		Tasks:           tasks,
		ExpectedBidders: numAgents,
		Alpha:           10,
	}); err != nil {
		log.Fatal(err)
	}
	if err := eng.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := eng.Addr().String()
	fmt.Printf("platform listening on %s (%d tasks, requirement %.2f, %d agents)\n\n",
		addr, numTasks, requirement, numAgents)

	served := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		served <- eng.Serve(ctx)
	}()

	// Launch the agent fleet; each agent has a random true type over the
	// published tasks.
	var wg sync.WaitGroup
	results := make([]agent.Result, numAgents)
	for i := 0; i < numAgents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := auction.UserID(i + 1)
			rng := stats.NewRand(int64(100 + i))
			taskIDs := make([]auction.TaskID, 0, numTasks)
			pos := make(map[auction.TaskID]float64, numTasks)
			for j := 1; j <= numTasks; j++ {
				if rng.Float64() < 0.3 && len(taskIDs) > 0 {
					continue // this agent skips some tasks
				}
				taskIDs = append(taskIDs, auction.TaskID(j))
				pos[auction.TaskID(j)] = stats.Uniform(rng, 0.15, 0.6)
			}
			res, err := agent.Run(context.Background(), agent.Config{
				Addr:    addr,
				User:    id,
				TrueBid: auction.NewBid(id, taskIDs, stats.NormalPositive(rng, 15, 2.2, 1), pos),
				Seed:    int64(i + 1),
				Timeout: 10 * time.Second,
			})
			if err != nil {
				log.Fatalf("agent %d: %v", id, err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if err := <-served; err != nil {
		log.Fatal(err)
	}
	round := eng.Results()["default"][0]
	if round.Err != nil {
		log.Fatal(round.Err)
	}
	fmt.Printf("auction complete: %s\n", round.Outcome.Mechanism)
	fmt.Printf("winners %d of %d bidders, social cost %.2f\n\n",
		len(round.Outcome.Selected), len(round.Bids), round.Outcome.SocialCost)
	for i, res := range results {
		if !res.Selected {
			fmt.Printf("  agent %-3d lost\n", i+1)
			continue
		}
		done := 0
		for _, ok := range res.Attempt {
			if ok {
				done++
			}
		}
		fmt.Printf("  agent %-3d WON: critical PoS %.3f, %d/%d tasks done, paid %.2f, utility %+.2f\n",
			i+1, res.Award.CriticalPoS, done, len(res.Attempt), res.Settle.Reward, res.Settle.Utility)
	}
}
