package agent

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/wire"
)

func lostSessionConfig(addr string) Config {
	return Config{
		Addr:    addr,
		User:    1,
		TrueBid: auction.NewBid(1, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8}),
		Seed:    1,
		Timeout: 5 * time.Second,
	}
}

// dropAfterBid serves n sessions that die mid-round: register and tasks
// succeed, then the connection closes before any award — the signature of a
// platform crash.
func dropAfterBid(t *testing.T, ln net.Listener, n int, done chan<- struct{}) {
	t.Helper()
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			codec := wire.NewCodec(conn)
			if _, err := codec.Read(); err != nil { // register
				conn.Close()
				continue
			}
			_ = codec.Write(&wire.Envelope{Type: wire.TypeTasks,
				Tasks: &wire.Tasks{Tasks: []wire.TaskSpec{{ID: 1, Requirement: 0.6}}}})
			_, _ = codec.Read() // bid
			conn.Close()        // die before the award
		}
	}()
}

// TestRunLostSessionTyped: a connection dying after registration surfaces as
// ErrLostSession with the session marked registered — the two facts the
// retry loop needs to retry with a reset delay.
func TestRunLostSessionTyped(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			dropAfterBid(t, ln, 1, done)

			registered, err := c.once(context.Background(), lostSessionConfig(ln.Addr().String()))
			if !errors.Is(err, ErrLostSession) {
				t.Fatalf("error = %v, want ErrLostSession", err)
			}
			if !registered {
				t.Error("session not registered after the platform published tasks")
			}
			<-done
		})
	}
}

// TestRunPeerRejectionNotLostSession: an error the peer articulated is not a
// lost session — it must not be retried as one.
func TestRunPeerRejectionNotLostSession(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				codec := wire.NewCodec(conn)
				_, _ = codec.Read() // register
				_ = codec.Write(&wire.Envelope{Type: wire.TypeTasks,
					Tasks: &wire.Tasks{Tasks: []wire.TaskSpec{{ID: 1, Requirement: 0.6}}}})
				_, _ = codec.Read() // bid
				codec.WriteError("bid rejected: duplicate")
				conn.Close()
			}()

			_, err = c.once(context.Background(), lostSessionConfig(ln.Addr().String()))
			if !errors.Is(err, wire.ErrPeer) {
				t.Fatalf("error = %v, want ErrPeer", err)
			}
			if errors.Is(err, ErrLostSession) {
				t.Error("peer rejection misclassified as lost session")
			}
		})
	}
}

// TestRunWithBackoffLostSessionResetsDelay: every dropped session got as far
// as registering, so the retry delay must restart from Base each time rather
// than compounding. With Base = 250 ms and 4 retries, reset delays total at
// most 1 s; compounding would need ≥ 1.875 s — the elapsed time tells the
// two policies apart.
func TestRunWithBackoffLostSessionResetsDelay(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			dropAfterBid(t, ln, 5, done)

			start := time.Now()
			_, err = c.retry(context.Background(), lostSessionConfig(ln.Addr().String()),
				Backoff{Attempts: 5, Base: 250 * time.Millisecond, Max: 8 * time.Second})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrLostSession) {
				t.Fatalf("error = %v, want ErrLostSession after exhaustion", err)
			}
			if elapsed >= 1500*time.Millisecond {
				t.Errorf("5 attempts took %v: delays compounded instead of resetting after registration", elapsed)
			}
			<-done
		})
	}
}

// TestRunWithBackoffRecoversAcrossPlatformRestart is the agent side of crash
// recovery: sessions dropped mid-round are retried until a restarted
// platform serves the round to completion.
func TestRunWithBackoffRecoversAcrossPlatformRestart(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			done := make(chan struct{})
			dropAfterBid(t, ln, 2, done)

			type outcome struct {
				redials int
				err     error
			}
			resCh := make(chan outcome, 1)
			go func() {
				redials, err := c.retry(context.Background(), lostSessionConfig(addr),
					Backoff{Attempts: 20, Base: 50 * time.Millisecond, Max: 250 * time.Millisecond})
				resCh <- outcome{redials, err}
			}()

			<-done // both crashy sessions served and dropped
			ln.Close()

			// The "restarted" platform takes over the address.
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
				t.Skipf("released address was taken: %v", err)
			}
			engineDone := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				engineDone <- e.Serve(ctx)
			}()

			select {
			case res := <-resCh:
				if res.err != nil {
					t.Fatalf("agent did not recover: %v", res.err)
				}
				if res.redials < 2 {
					t.Errorf("redials = %d, want ≥ 2 (two sessions were dropped)", res.redials)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("agent did not finish")
			}
			if err := <-engineDone; err != nil {
				t.Fatalf("engine: %v", err)
			}
		})
	}
}
