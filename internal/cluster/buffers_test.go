package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// socketBuffer is the size of every socket buffer a session allocates
// (bufio's default); the messages below are several times larger.
const socketBuffer = 4 << 10

func largeBidBatch(campaign string, user0, n int) *wire.Envelope {
	bids := make([]wire.Bid, n)
	for i := range bids {
		bids[i] = wire.Bid{User: user0 + i, Tasks: []int{1, 2}, Cost: 1 + float64(i)/7,
			PoS: map[int]float64{1: 0.5, 2: 0.25 + float64(i%50)/100}}
	}
	return &wire.Envelope{Type: wire.TypeBidBatch, Campaign: campaign, BidBatch: &wire.BidBatch{Bids: bids}}
}

func largeAwardBatch(campaign string, n int) *wire.Envelope {
	awards := make([]wire.UserAward, n)
	for i := range awards {
		awards[i] = wire.UserAward{User: i + 1, Award: wire.Award{Selected: true,
			CriticalPoS: 0.4, RewardOnSuccess: 3 + float64(i)/9, RewardOnFailure: -1 - float64(i)/11}}
	}
	return &wire.Envelope{Type: wire.TypeAwardBatch, Campaign: campaign, AwardBatch: &wire.AwardBatch{Awards: awards}}
}

// encodedLen is env's size on the wire in the given codec.
func encodedLen(t *testing.T, env *wire.Envelope, binary bool) int {
	t.Helper()
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)
	if binary {
		c = wire.NewBinaryCodec(&buf)
	}
	if err := c.Write(env); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestLargeMessagesRoundTrip sends messages several times the socket
// buffer's size over loopback TCP, in both codecs, both straight to an
// engine-side NewServerCodec and through the router: a bid_batch as the
// session's first envelope (which the router parses to route it), an
// award_batch as the backend's first reply (which the router parses for
// trace context), then a second bid_batch and a 20 KiB error envelope
// across the spliced session.
func TestLargeMessagesRoundTrip(t *testing.T) {
	const camp = "camp-large"
	first := largeBidBatch(camp, 1, 500)
	reply := largeAwardBatch(camp, 500)
	second := largeBidBatch(camp, 1001, 400)
	fail := &wire.Envelope{Type: wire.TypeError, Error: &wire.ErrorMsg{Message: strings.Repeat("e", 20<<10)}}

	for _, codec := range []struct {
		name   string
		binary bool
	}{{"json", false}, {"binary", true}} {
		for _, env := range []*wire.Envelope{first, reply, second, fail} {
			if n := encodedLen(t, env, codec.binary); n < 3*socketBuffer {
				t.Fatalf("%s %s is %d bytes on the wire, want at least %d", codec.name, env.Type, n, 3*socketBuffer)
			}
		}
		for _, viaRouter := range []bool{false, true} {
			name := codec.name + "/direct"
			if viaRouter {
				name = codec.name + "/router"
			}
			t.Run(name, func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				backendDone := make(chan error, 1)
				go func() { backendDone <- serveLarge(ln, first, reply, second, fail) }()

				addr := ln.Addr().String()
				if viaRouter {
					router, err := StartRouter("127.0.0.1:0", RouterConfig{
						Ring:    NewRing([]string{"s1"}, 0),
						Members: map[string][]string{"s1": {addr}},
						Logf:    t.Logf,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer router.Close()
					addr = router.Addr()
				}

				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				client := wire.NewCodec(conn)
				if codec.binary {
					client = wire.NewBinaryCodec(conn)
				}
				if err := client.Write(first); err != nil {
					t.Fatal(err)
				}
				got, err := client.Read()
				if err != nil || !reflect.DeepEqual(got, reply) {
					t.Fatalf("first reply: %v; equal to the award_batch sent: %v", err, reflect.DeepEqual(got, reply))
				}
				if err := client.Write(second); err != nil {
					t.Fatal(err)
				}
				got, err = client.Read()
				if err != nil || !reflect.DeepEqual(got, fail) {
					t.Fatalf("second reply: %v; equal to the error sent: %v", err, reflect.DeepEqual(got, fail))
				}
				conn.Close()
				if err := <-backendDone; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// serveLarge is TestLargeMessagesRoundTrip's backend: one session that
// checks both bid_batches arrive intact and answers each.
func serveLarge(ln net.Listener, first, reply, second, fail *wire.Envelope) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	codec, err := wire.NewServerCodec(conn)
	if err != nil {
		return err
	}
	for _, step := range []struct{ want, answer *wire.Envelope }{{first, reply}, {second, fail}} {
		got, err := codec.Read()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, step.want) {
			return fmt.Errorf("backend read a %s that differs from the one sent", got.Type)
		}
		if err := codec.Write(step.answer); err != nil {
			return err
		}
		if err := codec.Flush(); err != nil {
			return err
		}
	}
	if _, err := codec.Read(); err != io.EOF {
		return err
	}
	return nil
}

// TestRepConnLargeFramesSplitReads feeds repConn a hello, an events frame
// larger than 32 KiB and an ack, through readers that hand over one byte,
// half a buffer, or everything the buffer holds per Read. The last kind
// delivers the ack in the same Read as the events frame's tail. Every
// message must decode intact, and stay intact after later reads reuse the
// buffer it was decoded from.
func TestRepConnLargeFramesSplitReads(t *testing.T) {
	bid := auction.NewBid(1, []auction.TaskID{1}, 5, map[auction.TaskID]float64{1: 0.8})
	events := make([]store.Event, 300)
	for i := range events {
		events[i] = store.Event{Seq: uint64(10 + i), Type: store.EventBidAdmitted, Campaign: "camp-large", Round: 1, Bid: &bid}
	}
	msgs := []*RepMsg{
		{Type: RepHello, Node: "n2", Shard: "s1", FromSeq: 9},
		{Type: RepEvents, Events: events, TraceNode: "n1", SentUnixNanos: 42},
		{Type: RepAck, Seq: 309},
	}
	var stream []byte
	for _, m := range msgs {
		data, err := EncodeRep(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == RepEvents && len(data) <= 32<<10 {
			t.Fatalf("events frame is %d bytes, want more than 32 KiB", len(data))
		}
		stream = append(stream, data...)
	}
	for _, r := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"one-byte", iotest.OneByteReader},
	} {
		t.Run(r.name, func(t *testing.T) {
			c := newRepConn(struct {
				io.Reader
				io.Writer
			}{r.wrap(bytes.NewReader(stream)), io.Discard})
			var got []*RepMsg
			for range msgs {
				m, err := c.read()
				if err != nil {
					t.Fatalf("read message %d: %v", len(got), err)
				}
				got = append(got, m)
			}
			if _, err := c.read(); err != io.EOF {
				t.Fatalf("read past the stream = %v, want io.EOF", err)
			}
			for i := range msgs {
				if !reflect.DeepEqual(got[i], msgs[i]) {
					t.Errorf("message %d (%s) did not round-trip intact", i, msgs[i].Type)
				}
			}
		})
	}
}

// frameReader hands out one replication frame per Read, the pattern of a
// leader's acks or a follower's small events batches.
type frameReader struct {
	frame []byte
	left  int
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.left == 0 {
		return 0, io.EOF
	}
	f.left--
	return copy(p, f.frame), nil
}

func (f *frameReader) Write(p []byte) (int, error) { return len(p), nil }

// bytesPerRepRead is the heap bytes one repConn.read of a small frame
// allocates, averaged over n reads.
func bytesPerRepRead(t *testing.T, frame []byte, n int) float64 {
	t.Helper()
	c := newRepConn(&frameReader{frame: frame, left: n})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := c.read(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRepConnReadAllocFlat: reading a small frame allocates its decoded
// message, not a fresh read buffer, and the cost per read does not grow
// with the number of reads. A repConn that allocates a 32 KiB chunk per
// Read fails the budget.
func TestRepConnReadAllocFlat(t *testing.T) {
	const budget = 4 << 10 // bytes per read; one 32 KiB chunk per Read is far over
	frame, err := EncodeRep(&RepMsg{Type: RepAck, Seq: 12345})
	if err != nil {
		t.Fatal(err)
	}
	few, many := bytesPerRepRead(t, frame, 100), bytesPerRepRead(t, frame, 2000)
	t.Logf("bytes per read: %.0f over 100 reads, %.0f over 2000", few, many)
	if many > budget {
		t.Errorf("repConn.read allocates %.0f bytes per small frame, budget %d", many, budget)
	}
	if many > 2*few+256 {
		t.Errorf("bytes per read grew with the number of reads: %.0f over 100, %.0f over 2000", few, many)
	}
}

// sessionAllocBudget bounds the heap bytes one loopback round allocates in
// TestSessionAllocBudget, across agents, router and engine together. It is
// about twice the 127 kB measured with bufio-default socket buffers; with
// 64 KiB buffers per codec and splice reader a round allocated 875 kB.
const sessionAllocBudget = 256 << 10

// TestSessionAllocBudget plays loopback rounds through a router and one
// node (two JSON agents per round, as in BenchmarkClusterRounds) and fails
// if the bytes allocated per round climb back towards fixed-size socket
// buffers per session.
func TestSessionAllocBudget(t *testing.T) {
	const warm, rounds = 3, 30
	ring := NewRing([]string{"s1"}, 0)
	camp := pickCampaign(t, ring, "s1")
	n, err := StartNode(NodeConfig{
		Name: "n1", Shard: "s1", StateDir: t.TempDir(),
		AgentAddr: "127.0.0.1:0",
		Campaigns: []engine.CampaignConfig{clusterCampaign(camp, warm+rounds)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring: ring, Members: map[string][]string{"s1": {n.AgentAddr("s1")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	b := agent.Backoff{Attempts: 10, Base: 25 * time.Millisecond, Max: time.Second}

	for r := 1; r <= warm; r++ {
		playClusterRound(t, router.Addr(), camp, r, b)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := warm + 1; r <= warm+rounds; r++ {
		playClusterRound(t, router.Addr(), camp, r, b)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d rounds: %d bytes allocated per round (budget %d)", rounds, perRound, sessionAllocBudget)
	if perRound > sessionAllocBudget {
		t.Errorf("a round allocates %d bytes, budget %d: are socket buffers sized per session again?", perRound, sessionAllocBudget)
	}
}
