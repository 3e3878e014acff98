package platform

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
)

func TestRunRoundsServesMultipleRounds(t *testing.T) {
	cfg := singleTaskConfig(2)
	cfg.Tasks[0].Requirement = 0.5
	const rounds = 3
	cfg.Rounds = rounds
	p := startPlatform(t, context.Background(), cfg, engine.Config{})

	var firstAddr string
	for round := 0; round < rounds; round++ {
		select {
		case addr := <-p.open:
			if round == 0 {
				firstAddr = addr
			} else if addr != firstAddr {
				t.Errorf("round %d moved to %s (first round used %s)", round+1, addr, firstAddr)
			}
			runPair(t, addr, round)
		case err := <-p.done:
			t.Fatalf("server: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("round did not become ready")
		}
	}

	results := p.wait(t)
	if len(results) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(results), rounds)
	}
	for i, r := range results {
		if len(r.Bids) != 2 {
			t.Errorf("round %d had %d bids", i+1, len(r.Bids))
		}
		if len(r.Outcome.Selected) == 0 {
			t.Errorf("round %d had no winners", i+1)
		}
	}
}

// TestRunRoundsCancelledMidRunReturnsCompletedRounds cancels the service
// while a later round is still collecting bids: Serve returns the context
// error and the rounds that settled before the cancellation stay in the
// engine's results.
func TestRunRoundsCancelledMidRunReturnsCompletedRounds(t *testing.T) {
	cfg := singleTaskConfig(2)
	cfg.Tasks[0].Requirement = 0.5
	cfg.Rounds = 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := startPlatform(t, ctx, cfg, engine.Config{
		OnRound: func(r engine.RoundResult) {
			if r.Round == 1 {
				cancel() // round 2 is collecting by now; kill the service
			}
		},
	})

	select {
	case addr := <-p.open:
		runPair(t, addr, 0)
	case <-time.After(30 * time.Second):
		t.Fatal("service did not become ready")
	}

	select {
	case err := <-p.done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error = %v, want context.Canceled", err)
		}
		results := p.eng.Results()["default"]
		if len(results) != 1 {
			t.Fatalf("returned %d completed rounds, want 1", len(results))
		}
		if len(results[0].Bids) != 2 || results[0].Outcome == nil {
			t.Errorf("round 1 result = %+v", results[0])
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine did not return after cancellation")
	}
}

// TestRunRoundsBidWindowExpiry: the service's bid window elapses with only
// part of the expected bidders present, and the auction runs on what it has.
func TestRunRoundsBidWindowExpiry(t *testing.T) {
	cfg := singleTaskConfig(5) // expects 5, only 2 will come
	cfg.Tasks[0].Requirement = 0.5
	cfg.BidWindow = 300 * time.Millisecond
	p := startPlatform(t, context.Background(), cfg, engine.Config{})

	addr := <-p.open
	for id := auction.UserID(1); id <= 2; id++ {
		go func(id auction.UserID) {
			bid := auction.NewBid(id, []auction.TaskID{1}, 2,
				map[auction.TaskID]float64{1: 0.8})
			_, _ = agent.Run(context.Background(), agent.Config{
				Addr: addr, User: id, TrueBid: bid,
				Seed: int64(id), Timeout: 10 * time.Second,
			})
		}(id)
	}

	results := p.wait(t)
	if len(results) != 1 {
		t.Fatalf("completed %d rounds, want 1", len(results))
	}
	if len(results[0].Bids) != 2 {
		t.Errorf("auction ran with %d bids, want 2", len(results[0].Bids))
	}
	if results[0].Outcome == nil || len(results[0].Outcome.Selected) == 0 {
		t.Errorf("partial-bid round had no winners: %+v", results[0])
	}
}

// runPair drives two agents through one round.
func runPair(t *testing.T, addr string, round int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := auction.UserID(10*round + i + 1)
			bid := auction.NewBid(id, []auction.TaskID{1}, float64(2+i),
				map[auction.TaskID]float64{1: 0.8})
			if _, err := agent.Run(context.Background(), agent.Config{
				Addr: addr, User: id, TrueBid: bid,
				Seed: int64(round*10 + i), Timeout: 10 * time.Second,
			}); err != nil {
				t.Errorf("round %d agent %d: %v", round+1, id, err)
			}
		}(i)
	}
	wg.Wait()
}
