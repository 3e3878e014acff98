package wire

import (
	"bytes"
	"testing"
)

// benchBid builds the canonical hot-path shape: one bid covering n tasks
// with an n-entry PoS map.
func benchBid(n int) *Envelope {
	bid := &Bid{User: 4821, Tasks: make([]int, 0, n), Cost: 17.25,
		PoS: make(map[int]float64, n)}
	for i := 1; i <= n; i++ {
		bid.Tasks = append(bid.Tasks, i)
		bid.PoS[i] = float64(i) / float64(n+1)
	}
	return &Envelope{Type: TypeBid, Campaign: "bench", Bid: bid}
}

// BenchmarkWireCodec measures one full envelope round trip (encode, frame,
// decode) per op for each codec on the bid shape. The JSON/Binary pair is
// the before/after of the fan-in transport overhaul; measure the ratio with
// go test -run '^$' -bench 'BenchmarkWireCodec(Batch)?$' -benchtime 1000x
// ./internal/wire. perfbench's wire.* metrics attribute codec time and
// bytes per round on real sockets (bash perfbench/run.sh).
func BenchmarkWireCodec(b *testing.B) {
	env := benchBid(16)
	b.Run("JSON", func(b *testing.B) {
		var buf bytes.Buffer
		client := NewCodec(&buf)
		server := NewCodec(&buf)
		benchRoundTrip(b, client, server, env)
	})
	b.Run("Binary", func(b *testing.B) {
		var buf bytes.Buffer
		client := NewBinaryCodec(&buf)
		if err := client.Flush(); err != nil {
			b.Fatal(err)
		}
		server, err := NewServerCodec(&buf)
		if err != nil {
			b.Fatal(err)
		}
		benchRoundTrip(b, client, server, env)
	})
}

// BenchmarkWireCodecBatch is the aggregated path: one frame carrying 256
// bids, amortizing framing and syscall costs across the batch.
func BenchmarkWireCodecBatch(b *testing.B) {
	const batch = 256
	bids := make([]Bid, 0, batch)
	for u := 0; u < batch; u++ {
		bids = append(bids, *benchBid(16).Bid)
		bids[u].User = u + 1
	}
	env := &Envelope{Type: TypeBidBatch, Campaign: "bench", BidBatch: &BidBatch{Bids: bids}}
	for _, codec := range []string{"JSON", "Binary"} {
		b.Run(codec, func(b *testing.B) {
			var buf bytes.Buffer
			var client, server *Codec
			if codec == "Binary" {
				client = NewBinaryCodec(&buf)
				if err := client.Flush(); err != nil {
					b.Fatal(err)
				}
				var err error
				if server, err = NewServerCodec(&buf); err != nil {
					b.Fatal(err)
				}
			} else {
				client = NewCodec(&buf)
				server = NewCodec(&buf)
			}
			benchRoundTrip(b, client, server, env)
		})
	}
}

func benchRoundTrip(b *testing.B, client, server *Codec, env *Envelope) {
	b.SetBytes(encodedSize(b, env, client.Binary()))
	// One warm-up pass sizes the scratch buffers.
	if err := client.Write(env); err != nil {
		b.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := server.Read(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Write(env); err != nil {
			b.Fatal(err)
		}
		if err := client.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// encodedSize measures one envelope's on-wire frame size for SetBytes.
func encodedSize(b *testing.B, env *Envelope, binary bool) int64 {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if binary {
		c = NewBinaryCodec(&buf)
	}
	if err := c.Write(env); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	n := buf.Len()
	if binary {
		n-- // version byte is per connection, not per frame
	}
	return int64(n)
}
