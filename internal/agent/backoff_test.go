package agent

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs/span"
)

// client is one of the two agent clients, driven from a one-bid Config: Run
// and RunWithBackoff directly, RunBatch and RunBatchWithBackoff as an
// aggregator carrying the config's bid. The session and retry tests run
// every case against both.
type client struct {
	name string
	// once runs one session and reports whether it got past registration.
	once func(ctx context.Context, cfg Config) (registered bool, err error)
	// retry runs the session under the backoff policy and reports how many
	// redials the final attempt needed.
	retry func(ctx context.Context, cfg Config, b Backoff) (redials int, err error)
}

var clients = []client{
	{
		name: "per-bid",
		once: func(ctx context.Context, cfg Config) (bool, error) {
			res, err := Run(ctx, cfg)
			return res.Registered, err
		},
		retry: func(ctx context.Context, cfg Config, b Backoff) (int, error) {
			res, err := RunWithBackoff(ctx, cfg, b)
			return res.Redials, err
		},
	},
	{
		name: "batch",
		once: func(ctx context.Context, cfg Config) (bool, error) {
			res, err := RunBatch(ctx, asBatch(cfg))
			return len(res.Results) > 0, err
		},
		retry: func(ctx context.Context, cfg Config, b Backoff) (int, error) {
			// A BatchResult carries no redial count: count the redial spans.
			ring := span.NewRing(64)
			bc := asBatch(cfg)
			bc.Spans = span.New(ring)
			_, err := RunBatchWithBackoff(ctx, bc, b)
			redials := 0
			for _, rec := range ring.Recent(64) {
				if rec.Name == span.NameAgentRedial {
					redials++
				}
			}
			return redials, err
		},
	},
}

// asBatch carries a one-bid Config's bid in an aggregator session that
// registers as the same user.
func asBatch(cfg Config) BatchConfig {
	return BatchConfig{Addr: cfg.Addr, Campaign: cfg.Campaign, Aggregator: cfg.User,
		Bids: []auction.Bid{cfg.TrueBid}, Seed: cfg.Seed, Timeout: cfg.Timeout, Binary: cfg.Binary}
}

func TestBackoffDelayBoundedWithJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20; n++ {
		d := b.delay(n, rng)
		exp := b.Base << uint(n)
		if exp <= 0 || exp > b.Max {
			exp = b.Max
		}
		if d < exp/2 || d > exp {
			t.Errorf("delay(%d) = %v outside [%v, %v]", n, d, exp/2, exp)
		}
	}
}

// TestRetryJitterSchedulePinned pins the delays of one seeded retry
// schedule. The jitter RNG is seeded from the endpoint's seed and user, so
// an agent backs off by the same delays on every run; the literals below
// were drawn from that seed and must not move.
func TestRetryJitterSchedulePinned(t *testing.T) {
	ring := span.NewRing(16)
	ep := endpoint{who: "agent 7", user: 7, seed: 42, spans: span.New(ring)}
	b := Backoff{Attempts: 6, Base: time.Millisecond, Max: 4 * time.Millisecond}
	// Attempt 3 gets as far as registering, so attempt 4's delay restarts
	// from Base.
	_, err := retry(context.Background(), b, ep, func(attempt int) (struct{}, bool, error) {
		return struct{}{}, attempt == 3, ErrDial
	})
	if !errors.Is(err, ErrDial) {
		t.Fatalf("retry err = %v, want exhausted ErrDial", err)
	}
	var got []int64
	for _, rec := range ring.Recent(16) {
		if rec.Name == span.NameAgentRedial {
			got = append(got, rec.Attrs.Get("delay_ns").(int64))
		}
	}
	want := []int64{637261, 1085670, 3731970, 890553, 1081334}
	if !slices.Equal(got, want) {
		t.Fatalf("redial delays = %v, want %v", got, want)
	}
}

func TestRunWithBackoffExhaustsAttempts(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			_, err := c.retry(context.Background(), Config{
				Addr:    "127.0.0.1:1", // nothing listens there
				User:    1,
				TrueBid: auction.NewBid(1, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.5}),
				Timeout: 500 * time.Millisecond,
			}, Backoff{Attempts: 3, Base: 10 * time.Millisecond, Max: 50 * time.Millisecond})
			if !errors.Is(err, ErrDial) {
				t.Fatalf("error = %v, want ErrDial", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("exhausting 3 fast attempts took %v", elapsed)
			}
		})
	}
}

func TestRunWithBackoffRespectsContext(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := c.retry(ctx, Config{
				Addr:    "127.0.0.1:1",
				User:    1,
				TrueBid: auction.NewBid(1, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.5}),
				Timeout: 500 * time.Millisecond,
			}, Backoff{Attempts: 100, Base: time.Second, Max: time.Second})
			if err == nil {
				t.Fatal("cancelled backoff should fail")
			}
		})
	}
}

// TestRunWithBackoffConvergesOnLatePlatform starts the agent before the
// platform exists: the agent must retry until the engine comes up and then
// complete the round.
func TestRunWithBackoffConvergesOnLatePlatform(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			// Reserve an address, then release it for the engine to take later.
			probe, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := probe.Addr().String()
			probe.Close()

			resCh := make(chan error, 1)
			go func() {
				_, err := c.retry(context.Background(), Config{
					Addr:    addr,
					User:    1,
					TrueBid: auction.NewBid(1, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8}),
					Seed:    1,
					Timeout: 10 * time.Second,
				}, Backoff{Attempts: 20, Base: 50 * time.Millisecond, Max: 250 * time.Millisecond})
				resCh <- err
			}()

			time.Sleep(300 * time.Millisecond) // a few refused dials happen here

			e := engine.New(engine.Config{ConnTimeout: 10 * time.Second})
			if err := e.AddCampaign(engine.CampaignConfig{
				ID:              "main",
				Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
				ExpectedBidders: 1,
				Alpha:           10,
				Epsilon:         0.5,
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Listen(addr); err != nil {
				t.Skipf("reserved address was taken: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				done <- e.Serve(ctx)
			}()

			select {
			case err := <-resCh:
				if err != nil {
					t.Fatalf("agent did not converge: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("agent did not finish")
			}
			if err := <-done; err != nil {
				t.Fatalf("engine: %v", err)
			}
		})
	}
}
