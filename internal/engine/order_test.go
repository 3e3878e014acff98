package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/store"
)

// slowSettleStore records events and stalls on the settlement events
// (report_received, round_settled) before recording them, widening any window
// in which a session answers its client before its round is settled.
type slowSettleStore struct {
	mu     sync.Mutex
	events []store.Event
}

func (s *slowSettleStore) Append(ev store.Event) error {
	if ev.Type == store.EventReportReceived || ev.Type == store.EventRoundSettled {
		time.Sleep(50 * time.Millisecond)
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	return nil
}

func (s *slowSettleStore) Commit() error { return nil }
func (s *slowSettleStore) Close() error  { return nil }

func (s *slowSettleStore) settled(campaign string, round int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range s.events {
		if ev.Type == store.EventRoundSettled && ev.Campaign == campaign && ev.Round == round {
			return true
		}
	}
	return false
}

// TestSessionSettlesBeforeTerminalWrite pins the session ordering invariant:
// every sessionDone runs before the session's terminal envelope is written.
// So once the round's last client has returned, the store already holds the
// round's round_settled event and the next round accepts a bid — for a
// per-bid winner, a per-bid loser, and a bid_batch session.
func TestSessionSettlesBeforeTerminalWrite(t *testing.T) {
	bid := func(user auction.UserID, cost, pos float64) auction.Bid {
		return auction.NewBid(user, []auction.TaskID{1}, cost, map[auction.TaskID]float64{1: pos})
	}
	run := func(addr string, b auction.Bid) func() error {
		return func() error {
			_, err := agent.Run(context.Background(), agent.Config{Addr: addr, Campaign: "main",
				User: b.User, TrueBid: b, Seed: int64(b.User), Timeout: 10 * time.Second})
			return err
		}
	}
	cases := []struct {
		name    string
		bidders int
		clients func(addr string) []func() error
	}{
		{"per-bid winner", 1, func(addr string) []func() error {
			return []func() error{run(addr, bid(1, 2, 0.9))}
		}},
		{"per-bid loser", 2, func(addr string) []func() error {
			// Either bidder alone meets the requirement: the cheaper one
			// wins, the other loses.
			return []func() error{run(addr, bid(1, 2, 0.9)), run(addr, bid(2, 8, 0.9))}
		}},
		{"bid_batch", 3, func(addr string) []func() error {
			return []func() error{func() error {
				_, err := agent.RunBatch(context.Background(), agent.BatchConfig{Addr: addr,
					Campaign: "main", Aggregator: 1000, Binary: true, Seed: 7, Timeout: 10 * time.Second,
					Bids: []auction.Bid{bid(1, 1, 0.9), bid(2, 2, 0.8), bid(3, 7, 0.7)}})
				return err
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &slowSettleStore{}
			e := New(Config{ConnTimeout: 10 * time.Second, Store: st})
			cc := singleTaskCampaign("main", tc.bidders)
			cc.Rounds = 2
			if err := e.AddCampaign(cc); err != nil {
				t.Fatal(err)
			}
			if err := e.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- e.Serve(ctx) }()

			clients := tc.clients(e.Addr().String())
			errs := make(chan error, len(clients))
			for _, c := range clients {
				go func() { errs <- c() }()
			}
			for range clients {
				if err := <-errs; err != nil {
					t.Fatalf("round 1 client: %v", err)
				}
			}
			if !st.settled("main", 1) {
				t.Error("round 1's last client returned before round_settled reached the store")
			}

			next := make([]auction.Bid, tc.bidders)
			for i := range next {
				next[i] = bid(auction.UserID(101+i), float64(2+i), 0.9)
			}
			d, err := e.SubmitBids(ctx, "main", next)
			if err != nil {
				t.Fatal(err)
			}
			if d.Admitted() != len(next) {
				cancel()
				<-done
				t.Fatalf("round 2 admitted %d of %d bids right after round 1's clients returned; verdicts = %v",
					d.Admitted(), len(next), d.Verdicts)
			}
			if err := d.Await(ctx); err != nil {
				t.Fatal(err)
			}
			d.Settle(func(auction.Bid, mechanism.Award) bool { return true })
			if err := <-done; err != nil {
				t.Fatalf("engine: %v", err)
			}
		})
	}
}
