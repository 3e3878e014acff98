package platform

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/wire"
)

// testPlatform is one single-campaign platform under test: an engine serving
// campaign "default" on a loopback port, the way platformd runs without
// -campaigns. Every TCP test in this package drives the engine through it.
type testPlatform struct {
	eng  *engine.Engine
	addr string
	open chan string // the bound address, once per round as it opens; buffered for every round
	done chan error  // Serve's result
}

// startPlatform registers cc as campaign "default" on a fresh engine, binds
// it to a loopback port and serves it until the campaign's rounds finish,
// ctx is cancelled, or a minute passes. A zero ecfg.ConnTimeout means 10 s.
func startPlatform(t *testing.T, ctx context.Context, cc engine.CampaignConfig, ecfg engine.Config) *testPlatform {
	t.Helper()
	cc.ID = "default"
	if ecfg.ConnTimeout == 0 {
		ecfg.ConnTimeout = 10 * time.Second
	}
	p := &testPlatform{open: make(chan string, cc.Rounds+1), done: make(chan error, 1)}
	ecfg.OnRoundOpen = func(string, int) {
		select {
		case p.open <- p.addr:
		default:
		}
	}
	p.eng = engine.New(ecfg)
	if err := p.eng.AddCampaign(cc); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	p.addr = p.eng.Addr().String()
	go func() {
		ctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		p.done <- p.eng.Serve(ctx)
	}()
	return p
}

// wait blocks until Serve returns and yields the campaign's settled rounds.
// A Serve error or a failed round fails the test.
func (p *testPlatform) wait(t *testing.T) []engine.RoundResult {
	t.Helper()
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server timed out")
	}
	rounds := p.eng.Results()["default"]
	for _, r := range rounds {
		if r.Err != nil {
			t.Fatalf("server: round %d: %v", r.Round, r.Err)
		}
	}
	return rounds
}

func singleTaskConfig(n int) engine.CampaignConfig {
	return engine.CampaignConfig{
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.9}},
		ExpectedBidders: n,
		Alpha:           10,
		Epsilon:         0.5,
	}
}

func TestSingleTaskRoundOverTCP(t *testing.T) {
	// The paper's §III-A example: four users, requirement 0.9.
	p := startPlatform(t, context.Background(), singleTaskConfig(4), engine.Config{})
	addr := p.addr

	users := []struct {
		id   auction.UserID
		cost float64
		pos  float64
	}{
		{1, 3, 0.7}, {2, 2, 0.7}, {3, 1, 0.5}, {4, 4, 0.8},
	}
	var wg sync.WaitGroup
	agentResults := make([]agent.Result, len(users))
	agentErrs := make([]error, len(users))
	for i, u := range users {
		wg.Add(1)
		go func(i int, id auction.UserID, cost, pos float64) {
			defer wg.Done()
			res, err := agent.Run(context.Background(), agent.Config{
				Addr: addr,
				User: id,
				TrueBid: auction.NewBid(id, []auction.TaskID{1}, cost,
					map[auction.TaskID]float64{1: pos}),
				Seed:    int64(id),
				Timeout: 10 * time.Second,
			})
			agentResults[i] = res
			agentErrs[i] = err
		}(i, u.id, u.cost, u.pos)
	}
	wg.Wait()
	for i, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", i+1, err)
		}
	}
	round := p.wait(t)[0]

	// The mechanism's selection covers the requirement at minimum cost
	// (±ε); the known optimum is 5.
	if round.Outcome.SocialCost > 5*(1+0.5)+1e-9 {
		t.Errorf("social cost %g above FPTAS bound", round.Outcome.SocialCost)
	}
	winners := 0
	for i, res := range agentResults {
		if !res.Selected {
			continue
		}
		winners++
		if res.Award.RewardOnSuccess <= res.Award.RewardOnFailure {
			t.Errorf("agent %d: EC rewards not ordered: %+v", i+1, res.Award)
		}
		// Settlement matches the award contract.
		want := res.Award.RewardOnFailure
		if res.Settle.Success {
			want = res.Award.RewardOnSuccess
		}
		if math.Abs(res.Settle.Reward-want) > 1e-9 {
			t.Errorf("agent %d: settle reward %g, want %g", i+1, res.Settle.Reward, want)
		}
	}
	if winners == 0 {
		t.Fatal("no winners")
	}
	if len(round.Settlements) != winners {
		t.Errorf("settlements = %d, winners = %d", len(round.Settlements), winners)
	}
}

func TestMultiTaskRoundOverTCP(t *testing.T) {
	cfg := engine.CampaignConfig{
		Tasks: []auction.Task{
			{ID: 1, Requirement: 0.6},
			{ID: 2, Requirement: 0.6},
		},
		ExpectedBidders: 3,
		Alpha:           10,
	}
	p := startPlatform(t, context.Background(), cfg, engine.Config{})
	addr := p.addr

	bids := []auction.Bid{
		auction.NewBid(1, []auction.TaskID{1, 2}, 5, map[auction.TaskID]float64{1: 0.5, 2: 0.6}),
		auction.NewBid(2, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(3, []auction.TaskID{2}, 3, map[auction.TaskID]float64{2: 0.8}),
	}
	var wg sync.WaitGroup
	for i, bid := range bids {
		wg.Add(1)
		go func(i int, bid auction.Bid) {
			defer wg.Done()
			if _, err := agent.Run(context.Background(), agent.Config{
				Addr:    addr,
				User:    bid.User,
				TrueBid: bid,
				Seed:    int64(i + 1),
				Timeout: 10 * time.Second,
			}); err != nil {
				t.Errorf("agent %d: %v", i+1, err)
			}
		}(i, bid)
	}
	wg.Wait()
	if round := p.wait(t)[0]; len(round.Outcome.Selected) == 0 {
		t.Error("no winners")
	}
}

func TestBidWindowRunsWithPartialBidders(t *testing.T) {
	cfg := singleTaskConfig(5) // expects 5, only 2 will come
	cfg.Tasks[0].Requirement = 0.5
	cfg.BidWindow = 300 * time.Millisecond
	p := startPlatform(t, context.Background(), cfg, engine.Config{})
	addr := p.addr

	for id := auction.UserID(1); id <= 2; id++ {
		go func(id auction.UserID) {
			_, _ = agent.Run(context.Background(), agent.Config{
				Addr: addr,
				User: id,
				TrueBid: auction.NewBid(id, []auction.TaskID{1}, 2,
					map[auction.TaskID]float64{1: 0.8}),
				Seed:    int64(id),
				Timeout: 10 * time.Second,
			})
		}(id)
	}
	if round := p.wait(t)[0]; len(round.Bids) != 2 {
		t.Errorf("auction ran with %d bids, want 2", len(round.Bids))
	}
}

func TestDuplicateUserRejected(t *testing.T) {
	cfg := singleTaskConfig(2)
	cfg.Tasks[0].Requirement = 0.5
	p := startPlatform(t, context.Background(), cfg, engine.Config{})
	addr := p.addr

	bid := auction.NewBid(7, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8})
	// First connection with user 7 succeeds through bidding; second one
	// with the same ID must be rejected.
	first := make(chan error, 1)
	go func() {
		_, err := agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 7, TrueBid: bid, Seed: 1, Timeout: 10 * time.Second,
		})
		first <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the first bid land
	_, err := agent.Run(context.Background(), agent.Config{
		Addr: addr, User: 7, TrueBid: bid, Seed: 2, Timeout: 2 * time.Second,
	})
	if err == nil {
		t.Error("duplicate user should be rejected")
	}
	// Unblock the round: a second distinct user completes it.
	go func() {
		bid2 := auction.NewBid(8, []auction.TaskID{1}, 3, map[auction.TaskID]float64{1: 0.9})
		_, _ = agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 8, TrueBid: bid2, Seed: 3, Timeout: 10 * time.Second,
		})
	}()
	p.wait(t)
	if err := <-first; err != nil {
		t.Errorf("first agent failed: %v", err)
	}
}

func TestServerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := startPlatform(t, ctx, singleTaskConfig(3), engine.Config{})
	cancel()
	select {
	case err := <-p.done:
		if err == nil {
			t.Error("cancelled Serve should return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

func TestMalformedClientGetsError(t *testing.T) {
	cfg := singleTaskConfig(1)
	cfg.Tasks[0].Requirement = 0.5
	p := startPlatform(t, context.Background(), cfg, engine.Config{})
	addr := p.addr

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := wire.NewCodec(conn)
	// Send a bid before registering: protocol violation.
	if err := codec.Write(&wire.Envelope{Type: wire.TypeBid, Bid: &wire.Bid{
		User: 1, Tasks: []int{1}, Cost: 1, PoS: map[int]float64{1: 0.9},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Expect(wire.TypeTasks); err == nil {
		t.Error("protocol violation should produce an error")
	}

	// Clean up: a well-behaved agent completes the round.
	go func() {
		bid := auction.NewBid(9, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.9})
		_, _ = agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 9, TrueBid: bid, Seed: 4, Timeout: 10 * time.Second,
		})
	}()
	p.wait(t)
}
