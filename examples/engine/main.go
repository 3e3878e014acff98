// Multi-campaign engine demo: one auction engine multiplexes several
// concurrent campaigns over a single loopback listener, each campaign an
// independent reverse auction with its own task set, bidder pool, and
// multi-round schedule. A legacy campaign-less agent joins too, landing in
// the default (first-registered) campaign. Run with:
//
//	go run ./examples/engine
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/stats"
)

func main() {
	const (
		numCampaigns = 4
		agentsPer    = 5
		rounds       = 2
	)

	var mu sync.Mutex // guards interleaved printing from engine callbacks
	eng := engine.New(engine.Config{
		ConnTimeout: 10 * time.Second,
		OnRound: func(r engine.RoundResult) {
			mu.Lock()
			defer mu.Unlock()
			if r.Err != nil {
				fmt.Printf("[%s] round %d void: %v\n", r.Campaign, r.Round, r.Err)
				return
			}
			fmt.Printf("[%s] round %d: %d bids, %d winners, social cost %.2f (WD %s)\n",
				r.Campaign, r.Round, len(r.Bids), len(r.Outcome.Selected),
				r.Outcome.SocialCost, r.ComputeLatency.Round(time.Microsecond))
		},
	})

	// Each campaign senses a different number of grid cells; the first one
	// registered ("c1") doubles as the default campaign for legacy agents.
	for c := 1; c <= numCampaigns; c++ {
		tasks := make([]auction.Task, c)
		for i := range tasks {
			tasks[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: 0.5}
		}
		err := eng.AddCampaign(engine.CampaignConfig{
			ID:              fmt.Sprintf("c%d", c),
			Tasks:           tasks,
			ExpectedBidders: agentsPer,
			BidWindow:       2 * time.Second,
			Rounds:          rounds,
			Alpha:           10,
			Epsilon:         0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := eng.Addr().String()

	// Live telemetry: /metrics (Prometheus text format), /healthz,
	// /debug/rounds and /debug/spans (both read the engine's span ring), and
	// pprof, the same endpoint platformd exposes with -metrics-addr.
	ops, err := obs.Serve("127.0.0.1:0", obs.Options{
		Gather: eng.MetricFamilies,
		Health: eng.Health,
		Spans:  eng.SpanRecords,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()
	fmt.Printf("engine on %s: %d campaigns × %d rounds, %d agents each\n",
		addr, numCampaigns, rounds, agentsPer)
	fmt.Printf("ops endpoint on http://%s (try curl /metrics, /healthz, /debug/rounds)\n\n", ops.Addr())

	serveErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		serveErr <- eng.Serve(ctx)
	}()

	// Fleet: agentsPer agents per campaign per round. The first agent of
	// campaign c1 omits its campaign ID to demonstrate legacy routing.
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for c := 1; c <= numCampaigns; c++ {
			for a := 0; a < agentsPer; a++ {
				wg.Add(1)
				go func(round, c, a int) {
					defer wg.Done()
					campaign := fmt.Sprintf("c%d", c)
					if c == 1 && a == 0 {
						campaign = "" // legacy agent: default campaign
					}
					user := auction.UserID(100*c + a + 1)
					rng := stats.NewRand(int64(round*1000 + 100*c + a))
					ids := make([]auction.TaskID, c)
					pos := make(map[auction.TaskID]float64, c)
					for i := 0; i < c; i++ {
						ids[i] = auction.TaskID(i + 1)
						pos[ids[i]] = stats.Uniform(rng, 0.4, 0.9)
					}
					bid := auction.NewBid(user, ids,
						stats.NormalPositive(rng, 10, 2, 1), pos)
					_, err := agent.RunWithBackoff(context.Background(), agent.Config{
						Addr:     addr,
						Campaign: campaign,
						User:     user,
						TrueBid:  bid,
						Seed:     int64(round*1000 + 100*c + a),
						Timeout:  20 * time.Second,
					}, agent.Backoff{Attempts: 5})
					if err != nil {
						mu.Lock()
						fmt.Printf("agent %d (campaign %q): %v\n", user, campaign, err)
						mu.Unlock()
					}
				}(round, c, a)
			}
		}
		// Crude round pacing for the demo: campaigns trigger on bidder
		// count, so the next wave can be launched once this one settles.
		wg.Wait()
	}

	if err := <-serveErr; err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-campaign results:")
	results := eng.Results()
	ids := make([]string, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		settled := 0
		for _, r := range results[id] {
			if r.Err == nil {
				settled++
			}
		}
		fmt.Printf("  %s: %d/%d rounds settled\n", id, settled, len(results[id]))
	}
	fmt.Printf("\nengine metrics:\n%s\n", eng.Snapshot())

	// Self-scrape the ops endpoint to show what a Prometheus server would see.
	fmt.Println("\nsample /metrics exposition (counters only):")
	resp, err := http.Get("http://" + ops.Addr().String() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "crowdsense_bids_") || strings.HasPrefix(line, "crowdsense_rounds_") {
			fmt.Println("  " + line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
