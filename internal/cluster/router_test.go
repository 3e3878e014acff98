package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/wire"
)

// runClusterAgentBinary is runClusterAgent over the binary codec.
func runClusterAgentBinary(addr, campaign string, user int, cost, pos float64, b agent.Backoff) error {
	_, err := agent.RunWithBackoff(context.Background(), agent.Config{
		Addr:     addr,
		Campaign: campaign,
		User:     auction.UserID(user),
		TrueBid: auction.NewBid(auction.UserID(user), []auction.TaskID{1}, cost,
			map[auction.TaskID]float64{1: pos}),
		Seed:    int64(user),
		Timeout: 10 * time.Second,
		Binary:  true,
	}, b)
	return err
}

// TestRouterBinarySplice proves the router negotiates per session: a binary
// agent and a legacy JSON agent share round 1 through the same router, and a
// binary aggregator batch carries round 2 — all spliced to the same backend.
func TestRouterBinarySplice(t *testing.T) {
	ring := NewRing([]string{"s1"}, 0)
	camp := pickCampaign(t, ring, "s1")

	n, err := StartNode(NodeConfig{
		Name:      "n1",
		Shard:     "s1",
		StateDir:  t.TempDir(),
		AgentAddr: "127.0.0.1:0",
		Campaigns: []engine.CampaignConfig{clusterCampaign(camp, 2)},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Halt()

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring:    ring,
		Members: map[string][]string{"s1": {n.AgentAddr("s1")}},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	b := agent.Backoff{Attempts: 10, Base: 50 * time.Millisecond, Max: time.Second}

	// Round 1: one binary and one JSON session, same round.
	errs := make(chan error, 2)
	go func() { errs <- runClusterAgentBinary(router.Addr(), camp, 1, 2, 0.7, b) }()
	go func() { errs <- runClusterAgent(router.Addr(), camp, 2, 3, 0.8, b) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("round 1 agent: %v", err)
		}
	}

	// Round 2: a binary aggregator batch through the router.
	batch, err := agent.RunBatchWithBackoff(context.Background(), agent.BatchConfig{
		Addr:       router.Addr(),
		Campaign:   camp,
		Aggregator: 1000,
		Binary:     true,
		Seed:       7,
		Timeout:    10 * time.Second,
		Bids: []auction.Bid{
			auction.NewBid(11, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.7}),
			auction.NewBid(12, []auction.TaskID{1}, 3, map[auction.TaskID]float64{1: 0.8}),
		},
	}, b)
	if err != nil {
		t.Fatalf("aggregator through router: %v", err)
	}
	if batch.Admitted != 2 {
		t.Errorf("aggregator admitted %d bids, want 2; results %+v", batch.Admitted, batch.Results)
	}

	routed, rejected, _ := router.Stats()
	if routed["s1"] != 3 {
		t.Errorf("routed sessions = %v, want 3 on s1", routed)
	}
	if rejected != 0 {
		t.Errorf("rejected sessions = %d, want 0", rejected)
	}
}

// TestRouterBinaryClientShardMoved: router-originated errors are JSON lines;
// a binary client must still surface them as retryable shard-moved errors.
func TestRouterBinaryClientShardMoved(t *testing.T) {
	ring := NewRing([]string{"s1"}, 0)
	camp := pickCampaign(t, ring, "s1")

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring:    ring,
		Members: map[string][]string{"s1": {reserveAddr(t)}}, // nobody home
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	_, err = agent.Run(context.Background(), agent.Config{
		Addr:     router.Addr(),
		Campaign: camp,
		User:     1,
		TrueBid: auction.NewBid(1, []auction.TaskID{1}, 2,
			map[auction.TaskID]float64{1: 0.7}),
		Timeout: 5 * time.Second,
		Binary:  true,
	})
	if !errors.Is(err, agent.ErrShardMoved) {
		t.Fatalf("binary agent error = %v, want ErrShardMoved", err)
	}
}

// bracePayload pads an envelope's campaign until its binary payload is 123
// bytes, the length whose canonical uvarint prefix is '{'.
func bracePayload(t *testing.T, mk func(campaign string) *wire.Envelope) *wire.Envelope {
	t.Helper()
	for n := 1; n < 200; n++ {
		env := mk(strings.Repeat("c", n))
		var buf bytes.Buffer
		c := wire.NewBinaryCodec(&buf)
		if err := c.Write(env); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if size, _ := binary.Uvarint(buf.Bytes()[1:]); size == '{' {
			return env
		}
	}
	t.Fatal("no campaign length gives a 123-byte payload")
	return nil
}

// TestRouterRelays123BytePayloadFrames: binary frames with a 123-byte payload
// cross the router intact in both directions — the client's first frame to
// the backend and the backend's first reply back to the client.
func TestRouterRelays123BytePayloadFrames(t *testing.T) {
	register := bracePayload(t, func(c string) *wire.Envelope {
		return &wire.Envelope{Type: wire.TypeRegister, Campaign: c, Register: &wire.Register{User: 1}}
	})
	tasks := bracePayload(t, func(c string) *wire.Envelope {
		return &wire.Envelope{Type: wire.TypeTasks, Campaign: c,
			Tasks: &wire.Tasks{Tasks: []wire.TaskSpec{{ID: 1, Requirement: 0.5}}}}
	})

	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	received := make(chan *wire.Envelope, 1)
	go func() {
		conn, err := backend.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		codec, err := wire.NewServerCodec(conn)
		if err != nil {
			received <- nil
			return
		}
		env, err := codec.Read()
		if err != nil {
			t.Errorf("backend read: %v", err)
		}
		received <- env
		if err := codec.Write(tasks); err == nil {
			_ = codec.Flush()
		}
		_, _ = codec.Read() // hold the session until the client hangs up
	}()

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring:    NewRing([]string{"s1"}, 0),
		Members: map[string][]string{"s1": {backend.Addr().String()}},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	conn, err := net.Dial("tcp", router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	client := wire.NewBinaryCodec(conn)
	if err := client.Write(register); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Expect(wire.TypeTasks)
	if err != nil {
		t.Fatalf("client read through router: %v", err)
	}
	if !reflect.DeepEqual(reply, tasks) {
		t.Errorf("relayed reply:\n got %+v\nwant %+v", reply, tasks)
	}
	if got := <-received; !reflect.DeepEqual(got, register) {
		t.Errorf("relayed first frame:\n got %+v\nwant %+v", got, register)
	}
}

// TestRouterSkipsSilentMember: a member that accepts the connection but
// never sends its first reply must not pin the session. The router gives up
// on it after DialTimeout and finishes the session through the next member,
// long before the silent member would hang up on its own.
func TestRouterSkipsSilentMember(t *testing.T) {
	const silentHold = 20 * time.Second
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(silentHold))
				_, _ = io.Copy(io.Discard, conn) // read everything, answer nothing
			}()
		}
	}()

	ring := NewRing([]string{"s1"}, 0)
	camp := pickCampaign(t, ring, "s1")
	cc := clusterCampaign(camp, 1)
	cc.ExpectedBidders = 1
	eng := engine.New(engine.Config{})
	if err := eng.AddCampaign(cc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- eng.Serve(ctx) }()

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring:        ring,
		Members:     map[string][]string{"s1": {silent.Addr().String(), eng.Addr().String()}},
		DialTimeout: 200 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	start := time.Now()
	if err := runClusterAgent(router.Addr(), camp, 1, 2, 0.7, agent.Backoff{Attempts: 1}); err != nil {
		t.Fatalf("session through the router: %v", err)
	}
	if elapsed := time.Since(start); elapsed > silentHold/4 {
		t.Errorf("session took %v; the silent member pinned it", elapsed)
	}
	if err := <-served; err != nil {
		t.Fatalf("engine: %v", err)
	}
	if routed, _, rerouted := router.Stats(); routed["s1"] != 1 || rerouted != 1 {
		t.Errorf("routed %v, rerouted %d; want 1 session on s1, rerouted past the silent member", routed, rerouted)
	}
}
