package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/buildinfo"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/stats"
)

// Swarm mode drives the engine in-process — no TCP, no codec — through
// engine.SubmitBids: the million-agent fan-in demonstration. Each campaign
// gets its own driver goroutine that synthesizes its agents' types, submits
// them in large batches, simulates execution for the winners, and settles,
// for as many rounds as configured.
//
// Campaigns are multi-task on purpose: winner determination then runs the
// greedy set-cover mechanism (milliseconds at 1000 bidders) instead of the
// single-task FPTAS (whose pseudo-polynomial table is seconds at n=200),
// so the demonstration measures fan-in, not one solver's tail.

type swarmConfig struct {
	agents    int // total agents across all campaigns
	campaigns int
	rounds    int // auction rounds per campaign
	tasksPer  int // tasks per campaign
	batch     int // bids per SubmitBids call

	requirement float64
	alpha       float64
	seed        int64
	quiet       bool   // suppress the per-run report (benchmarks)
	metricsAddr string // serve /metrics, /debug/spans, … during the run (empty = off)
}

// swarmTally is what a swarm run proved: settled rounds, admission verdicts,
// and the fan-in rate.
type swarmTally struct {
	submitted     int64
	admitted      int64
	rejected      int64
	settledRounds int64
	failedRounds  int64
	winners       int64
	elapsed       time.Duration
}

func (t swarmTally) bidsPerSec() float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return float64(t.admitted) / t.elapsed.Seconds()
}

// swarmBids synthesizes one round's bids for a campaign: each agent bids a
// run of 1–3 of the campaign's tasks with PoS ~ Uniform(0.1, 0.6) and cost ~
// NormalPositive(15, 2.2) — the fleet workload, minus the wire.
func swarmBids(rng *rand.Rand, firstUser, n, tasksPer int) []auction.Bid {
	bids := make([]auction.Bid, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(3)
		if k > tasksPer {
			k = tasksPer
		}
		start := rng.Intn(tasksPer)
		ids := make([]auction.TaskID, 0, k)
		pos := make(map[auction.TaskID]float64, k)
		for j := 0; j < k; j++ {
			id := auction.TaskID((start+j)%tasksPer + 1)
			ids = append(ids, id)
			pos[id] = stats.Uniform(rng, 0.1, 0.6)
		}
		bids = append(bids, auction.NewBid(auction.UserID(firstUser+i), ids,
			stats.NormalPositive(rng, 15, 2.2, 1), pos))
	}
	return bids
}

// driveSwarm plays every round of one campaign: submit the round's bids in
// batches, await winner determination, simulate execution with the true PoS,
// settle.
func driveSwarm(ctx context.Context, e *engine.Engine, cfg swarmConfig,
	idx, perCampaign int, tally *swarmTally) error {
	id := swarmCampaignID(idx)
	rng := stats.NewRand(cfg.seed + int64(idx)*7919)
	for round := 0; round < cfg.rounds; round++ {
		firstUser := idx*perCampaign + 1
		bids := swarmBids(rng, firstUser, perCampaign, cfg.tasksPer)
		batches := make([]*engine.DirectBatch, 0, (len(bids)+cfg.batch-1)/cfg.batch)
		for off := 0; off < len(bids); off += cfg.batch {
			end := off + cfg.batch
			if end > len(bids) {
				end = len(bids)
			}
			d, err := e.SubmitBids(ctx, id, bids[off:end])
			for errors.Is(err, engine.ErrNotServing) {
				// ServeLocal's admitter is still starting; the window is
				// microseconds at process start.
				time.Sleep(time.Millisecond)
				d, err = e.SubmitBids(ctx, id, bids[off:end])
			}
			if err != nil {
				return fmt.Errorf("campaign %s round %d: %w", id, round+1, err)
			}
			atomic.AddInt64(&tally.submitted, int64(end-off))
			atomic.AddInt64(&tally.admitted, int64(d.Admitted()))
			atomic.AddInt64(&tally.rejected, int64(end-off-d.Admitted()))
			batches = append(batches, d)
		}
		err := batches[0].Await(ctx)
		if err != nil {
			atomic.AddInt64(&tally.failedRounds, 1)
		} else {
			atomic.AddInt64(&tally.settledRounds, 1)
		}
		// Settle every batch either way: a failed round still completes its
		// sessions so the campaign can move on to the next round.
		for _, d := range batches {
			settled := d.Settle(func(bid auction.Bid, _ mechanism.Award) bool {
				// The winner attempts every bid task, succeeding with the
				// TRUE PoS; the round-level report succeeds if any did —
				// matching the wire path's settlement rule.
				for _, task := range bid.Tasks {
					if stats.Bernoulli(rng, bid.PoS[task]) {
						return true
					}
				}
				return false
			})
			atomic.AddInt64(&tally.winners, int64(len(settled)))
		}
	}
	return nil
}

func swarmCampaignID(idx int) string { return fmt.Sprintf("swarm-%04d", idx) }

// runSwarm builds the engine, starts ServeLocal, fans the configured agent
// population in, and reports the tally.
func runSwarm(cfg swarmConfig) (swarmTally, error) {
	var tally swarmTally
	if cfg.campaigns <= 0 || cfg.agents < cfg.campaigns {
		return tally, fmt.Errorf("swarm: need at least one agent per campaign (agents=%d campaigns=%d)",
			cfg.agents, cfg.campaigns)
	}
	if cfg.tasksPer < 2 {
		cfg.tasksPer = 2 // keep winner determination on the multi-task path
	}
	if cfg.batch <= 0 {
		cfg.batch = 4096
	}
	perCampaign := cfg.agents / cfg.campaigns

	queue := 2 * cfg.campaigns
	if queue < 256 {
		queue = 256
	}
	e := engine.New(engine.Config{QueueDepth: queue})
	tasks := make([]auction.Task, cfg.tasksPer)
	for t := range tasks {
		tasks[t] = auction.Task{ID: auction.TaskID(t + 1), Requirement: cfg.requirement}
	}
	for c := 0; c < cfg.campaigns; c++ {
		if err := e.AddCampaign(engine.CampaignConfig{
			ID:              swarmCampaignID(c),
			Tasks:           tasks,
			ExpectedBidders: perCampaign,
			Rounds:          cfg.rounds,
			Alpha:           cfg.alpha,
		}); err != nil {
			return tally, err
		}
	}

	// The ops endpoint watches the fan-in live: engine metrics (admission,
	// RPC latency, solver histograms) plus the span ring on /debug/spans and
	// its round-level subset on /debug/rounds.
	if cfg.metricsAddr != "" {
		srv, err := obs.Serve(cfg.metricsAddr, obs.Options{
			Gather: func() []obs.Family {
				fams := e.MetricFamilies()
				fams = append(fams, obs.RuntimeFamilies()...)
				return append(fams, buildinfo.Family())
			},
			Health: e.Health,
			Ready:  e.Readiness,
			Spans:  e.SpanRecords,
		})
		if err != nil {
			return tally, err
		}
		defer srv.Close()
		if !cfg.quiet {
			fmt.Printf("swarm: ops endpoint up at http://%s (/metrics /debug/spans /debug/rounds)\n", srv.Addr())
		}
	}

	ctx := context.Background()
	served := make(chan error, 1)
	go func() { served <- e.ServeLocal(ctx) }()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.campaigns)
	for c := 0; c < cfg.campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := driveSwarm(ctx, e, cfg, c, perCampaign, &tally); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	tally.elapsed = time.Since(start)
	close(errs)
	for err := range errs {
		return tally, err
	}
	if err := <-served; err != nil {
		return tally, fmt.Errorf("swarm: engine: %w", err)
	}

	if !cfg.quiet {
		fmt.Printf("swarm: %d agents / %d campaigns / %d round(s), batch %d\n",
			cfg.agents, cfg.campaigns, cfg.rounds, cfg.batch)
		fmt.Printf("  admitted %d bids (%d rejected) in %v — %.0f bids/s\n",
			tally.admitted, tally.rejected, tally.elapsed.Round(time.Millisecond), tally.bidsPerSec())
		fmt.Printf("  settled %d/%d rounds, %d winners paid\n",
			tally.settledRounds, int64(cfg.campaigns)*int64(cfg.rounds), tally.winners)
		fmt.Printf("  engine: %s\n", e.Snapshot())
	}
	return tally, nil
}
