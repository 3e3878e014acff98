package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
)

// BenchmarkEngineThroughput measures end-to-end auction throughput: M
// concurrent campaigns × K agents per round over real loopback TCP, every
// round a full register→bid→award→report→settle exchange. Reported as
// rounds/s and bids/s across the whole engine.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, shape := range []struct{ campaigns, agents int }{
		{1, 5},
		{4, 5},
		{8, 5},
	} {
		b.Run(fmt.Sprintf("campaigns=%d/agents=%d", shape.campaigns, shape.agents), func(b *testing.B) {
			benchEngineThroughput(b, shape.campaigns, shape.agents)
		})
	}
}

func benchEngineThroughput(b *testing.B, campaigns, agentsPer int) {
	// One signal channel per campaign: the driver may only launch the next
	// round's agents after OnRound reports the previous round settled (by
	// which time the campaign is already collecting again).
	roundDone := make(map[string]chan struct{}, campaigns)
	e := New(Config{
		ConnTimeout: 30 * time.Second,
		OnRound: func(r RoundResult) {
			if r.Err != nil {
				b.Errorf("campaign %s round %d: %v", r.Campaign, r.Round, r.Err)
			}
			roundDone[r.Campaign] <- struct{}{}
		},
	})
	for i := 0; i < campaigns; i++ {
		id := fmt.Sprintf("c%d", i+1)
		roundDone[id] = make(chan struct{}, 1)
		err := e.AddCampaign(CampaignConfig{
			ID:              id,
			Tasks:           []auction.Task{{ID: 1, Requirement: 0.5}},
			ExpectedBidders: agentsPer,
			Rounds:          b.N,
			Alpha:           10,
			Epsilon:         0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	addr := e.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- e.Serve(context.Background()) }()

	b.ResetTimer()
	var drivers sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		drivers.Add(1)
		go func(ci int) {
			defer drivers.Done()
			id := fmt.Sprintf("c%d", ci+1)
			for round := 0; round < b.N; round++ {
				var agents sync.WaitGroup
				for a := 0; a < agentsPer; a++ {
					agents.Add(1)
					go func(a int) {
						defer agents.Done()
						user := auction.UserID(1000*ci + a + 1)
						bid := auction.NewBid(user, []auction.TaskID{1},
							float64(a)+1, map[auction.TaskID]float64{1: 0.9})
						_, err := agent.Run(context.Background(), agent.Config{
							Addr:     addr,
							Campaign: id,
							User:     user,
							TrueBid:  bid,
							Seed:     int64(ci*100 + a),
							Timeout:  30 * time.Second,
						})
						if err != nil {
							b.Errorf("campaign %s agent %d: %v", id, user, err)
						}
					}(a)
				}
				agents.Wait()
				<-roundDone[id]
			}
		}(i)
	}
	drivers.Wait()
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		totalRounds := float64(campaigns * b.N)
		b.ReportMetric(totalRounds/elapsed, "rounds/s")
		b.ReportMetric(totalRounds*float64(agentsPer)/elapsed, "bids/s")
	}
	if err := <-serveErr; err != nil {
		b.Fatalf("serve: %v", err)
	}
}

// BenchmarkSpanJournal reports (without asserting) the added cost of a
// durable JSONL journal sink on BenchmarkEngineThroughput's per-campaign
// shape (five agents per round over loopback TCP), against
// Config.DisableObservability. The journal's writer goroutine encodes and
// persists off the round path, but on a small box its CPU and file IO still
// compete with the auction, so its overhead_% tracks the disk more than the
// span layer. The configurations run interleaved (journal, no-op, journal,
// …) so load drift on the box hits both equally, and overhead_% compares
// floors so one-off stalls stay out of it.
func BenchmarkSpanJournal(b *testing.B) {
	const passes = 3
	dir := b.TempDir()
	var inst, noop []time.Duration
	b.ResetTimer()
	for i := 0; i < passes; i++ {
		journal, err := span.OpenJournal(span.JournalConfig{
			Path: filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		inst = append(inst, benchRounds(b, Config{SpanSinks: []span.Sink{journal}}))
		journal.Close()
		noop = append(noop, benchRounds(b, Config{DisableObservability: true}))
	}
	b.StopTimer()

	floor := func(xs []time.Duration) time.Duration {
		lo := xs[0]
		for _, d := range xs[1:] {
			if d < lo {
				lo = d
			}
		}
		return lo
	}
	if base := floor(noop).Seconds(); base > 0 {
		b.ReportMetric((floor(inst).Seconds()-base)/base*100, "overhead_%")
	}
}

// benchRounds drives one engine through b.N single-task rounds with five
// agents each and returns the wall time of the round loop. cfg
// selects the configuration under test; timeouts and the round signal are
// filled in here.
func benchRounds(b *testing.B, cfg Config) time.Duration {
	const agentsPer = 5
	roundDone := make(chan struct{}, 1)
	cfg.ConnTimeout = 30 * time.Second
	cfg.OnRound = func(r RoundResult) {
		if r.Err != nil {
			b.Errorf("round %d: %v", r.Round, r.Err)
		}
		roundDone <- struct{}{}
	}
	e := New(cfg)
	err := e.AddCampaign(CampaignConfig{
		ID:              "c1",
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.5}},
		ExpectedBidders: agentsPer,
		Rounds:          b.N,
		Alpha:           10,
		Epsilon:         0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	addr := e.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- e.Serve(context.Background()) }()

	start := time.Now()
	for round := 0; round < b.N; round++ {
		var agents sync.WaitGroup
		for a := 0; a < agentsPer; a++ {
			agents.Add(1)
			go func(a int) {
				defer agents.Done()
				user := auction.UserID(a + 1)
				bid := auction.NewBid(user, []auction.TaskID{1},
					float64(a)+1, map[auction.TaskID]float64{1: 0.9})
				_, err := agent.Run(context.Background(), agent.Config{
					Addr:     addr,
					Campaign: "c1",
					User:     user,
					TrueBid:  bid,
					Seed:     int64(a),
					Timeout:  30 * time.Second,
				})
				if err != nil {
					b.Errorf("agent %d: %v", user, err)
				}
			}(a)
		}
		agents.Wait()
		<-roundDone
	}
	elapsed := time.Since(start)
	if err := <-serveErr; err != nil {
		b.Fatalf("serve: %v", err)
	}
	return elapsed
}
