package platform

import (
	"context"
	"net"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/wire"
)

// TestWinnerDisconnectsBeforeReport drives a raw wire client through
// register/bid/award and then drops the connection without sending an
// execution report. The round must still complete: the vanished winner is
// simply not settled.
func TestWinnerDisconnectsBeforeReport(t *testing.T) {
	cfg := engine.CampaignConfig{
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.5}},
		ExpectedBidders: 2,
		Alpha:           10,
		Epsilon:         0.5,
	}
	p := startPlatform(t, context.Background(), cfg, engine.Config{
		ConnTimeout: 2 * time.Second, // short: the dead session must expire fast
	})
	addr := p.addr

	// The rude client: guaranteed to win (very high PoS, low cost).
	rude := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			rude <- err
			return
		}
		codec := wire.NewCodec(conn)
		if err := codec.Write(&wire.Envelope{Type: wire.TypeRegister,
			Register: &wire.Register{User: 1}}); err != nil {
			rude <- err
			return
		}
		if _, err := codec.Expect(wire.TypeTasks); err != nil {
			rude <- err
			return
		}
		if err := codec.Write(&wire.Envelope{Type: wire.TypeBid, Bid: &wire.Bid{
			User: 1, Tasks: []int{1}, Cost: 1, PoS: map[int]float64{1: 0.9},
		}}); err != nil {
			rude <- err
			return
		}
		if _, err := codec.Expect(wire.TypeAward); err != nil {
			rude <- err
			return
		}
		rude <- conn.Close() // vanish without reporting
	}()

	// A polite agent completes the round.
	polite := make(chan error, 1)
	go func() {
		bid := auction.NewBid(2, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8})
		_, err := agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 2, TrueBid: bid, Seed: 1, Timeout: 10 * time.Second,
		})
		polite <- err
	}()

	round := p.wait(t)[0]
	if err := <-rude; err != nil {
		t.Fatalf("rude client: %v", err)
	}
	if err := <-polite; err != nil {
		t.Fatalf("polite agent: %v", err)
	}
	// The rude winner has an award but no settlement.
	if _, settled := round.Settlements[1]; settled {
		t.Error("vanished winner should not be settled")
	}
	if !round.Outcome.Winner(0) && !round.Outcome.Winner(1) {
		t.Error("expected at least one winner")
	}
}
