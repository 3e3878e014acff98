package agent

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"crowdsense/internal/wire"
)

// rejectShardMoved serves n sessions that answer the register with a
// shard-moved error — the router's voice during a failover window — then
// serves real sessions from the engine-shaped handler in dropAfterBid's
// style but completing the round.
func rejectShardMoved(t *testing.T, ln net.Listener, n int, done chan<- struct{}) {
	t.Helper()
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			codec := wire.NewCodec(conn)
			_, _ = codec.Read() // register
			codec.WriteError(wire.ShardMovedMessage + ": no live member for shard s1")
			conn.Close()
		}
	}()
}

// TestRunShardMovedTyped: a shard-moved rejection surfaces as ErrShardMoved
// (and still as ErrPeer underneath) so the retry loop can retry it.
func TestRunShardMovedTyped(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			rejectShardMoved(t, ln, 1, done)

			_, err = c.once(context.Background(), lostSessionConfig(ln.Addr().String()))
			if !errors.Is(err, ErrShardMoved) {
				t.Fatalf("error = %v, want ErrShardMoved", err)
			}
			if !errors.Is(err, wire.ErrPeer) {
				t.Errorf("error = %v, should still wrap ErrPeer", err)
			}
			<-done
		})
	}
}

// TestRunOtherPeerErrorNotShardMoved: an ordinary rejection must not be
// promoted to a retryable shard move.
func TestRunOtherPeerErrorNotShardMoved(t *testing.T) {
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
				_, _ = codec.Read()
				codec.WriteError("unknown campaign \"nope\"")
				conn.Close()
			}()

			_, err = c.once(context.Background(), lostSessionConfig(ln.Addr().String()))
			if errors.Is(err, ErrShardMoved) {
				t.Fatalf("plain rejection misclassified as shard moved: %v", err)
			}
			if !errors.Is(err, wire.ErrPeer) {
				t.Fatalf("error = %v, want ErrPeer", err)
			}
		})
	}
}

// TestRunWithBackoffShardMovedResetsDelay mirrors the lost-session reset
// test: every attempt is rejected with shard-moved, so the delay must
// restart from Base each time. With Base = 250 ms and 4 retries, reset
// delays total ≤ 1 s; compounding would need ≥ 1.875 s.
func TestRunWithBackoffShardMovedResetsDelay(t *testing.T) {
	for _, c := range clients {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			rejectShardMoved(t, ln, 5, done)

			start := time.Now()
			_, err = c.retry(context.Background(), lostSessionConfig(ln.Addr().String()),
				Backoff{Attempts: 5, Base: 250 * time.Millisecond, Max: 8 * time.Second})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrShardMoved) {
				t.Fatalf("error = %v, want ErrShardMoved after exhaustion", err)
			}
			if elapsed >= 1500*time.Millisecond {
				t.Errorf("5 attempts took %v: delays compounded instead of resetting on shard-moved", elapsed)
			}
			<-done
		})
	}
}
