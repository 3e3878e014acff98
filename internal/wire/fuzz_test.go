package wire

import (
	"bytes"
	"testing"
)

// FuzzCodecRead feeds arbitrary bytes to the codec: it must never panic,
// and anything it does accept must survive a write/read round trip.
func FuzzCodecRead(f *testing.F) {
	seedEnvelopes := []*Envelope{
		{Type: TypeRegister, Register: &Register{User: 1}},
		{Type: TypeBid, Bid: &Bid{User: 2, Tasks: []int{1}, Cost: 3, PoS: map[int]float64{1: 0.5}}},
		{Type: TypeSettle, Settle: &Settle{Success: true, Reward: 9, Utility: 1}},
	}
	for _, env := range seedEnvelopes {
		var buf bytes.Buffer
		if err := NewCodec(&buf).Write(env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"type":"award"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, '\n'})
	// An oversized frame: one line past MaxMessageBytes must be rejected
	// with ErrMessageTooLarge, not buffered until the process OOMs.
	f.Add(append(bytes.Repeat([]byte{'a'}, MaxMessageBytes+2), '\n'))

	f.Fuzz(func(t *testing.T, data []byte) {
		codec := NewCodec(readerOnly{bytes.NewReader(data)})
		env, err := codec.Read()
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := env.Validate(); err != nil {
			t.Fatalf("Read returned invalid envelope: %v", err)
		}
		// Round trip what was accepted.
		var buf bytes.Buffer
		out := NewCodec(&buf)
		if err := out.Write(env); err != nil {
			t.Fatalf("re-encode accepted envelope: %v", err)
		}
		back, err := out.Read()
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.Type != env.Type {
			t.Fatalf("round trip changed type: %q -> %q", env.Type, back.Type)
		}
	})
}

// FuzzBinaryCodecRead feeds arbitrary bytes into the negotiated binary
// read path: it must never panic or over-allocate, and any frame it
// accepts must re-encode to the exact same bytes (the byte-stability
// invariant the differential tests rely on).
func FuzzBinaryCodecRead(f *testing.F) {
	// The 123-byte payload's length prefix is the non-minimal 0xFB 0x00.
	for _, env := range append(testEnvelopes(), bracePayloadEnvelope(f)) {
		var buf bytes.Buffer
		c := NewBinaryCodec(&buf)
		if err := c.Write(env); err != nil {
			f.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[1:]) // frame without the version byte
	}
	f.Add([]byte{0x00})                                                   // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff})                                       // unterminated uvarint
	f.Add([]byte(`{"type":"error","error":{"message":"legacy"}}` + "\n")) // JSON fallback

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append([]byte{BinaryVersion}, data...)
		codec, err := NewServerCodec(bytes.NewBuffer(stream))
		if err != nil {
			return
		}
		env, err := codec.Read()
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := env.Validate(); err != nil {
			t.Fatalf("Read returned invalid envelope: %v", err)
		}
		// Accepted envelopes must re-encode deterministically and decode
		// back to the same struct.
		var first, second bytes.Buffer
		c1 := NewBinaryCodec(&first)
		if err := c1.Write(env); err != nil {
			t.Fatal(err)
		}
		if err := c1.Flush(); err != nil {
			t.Fatal(err)
		}
		c2 := NewBinaryCodec(&second)
		if err := c2.Write(env); err != nil {
			t.Fatal(err)
		}
		if err := c2.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("binary encoding not byte-stable:\n %x\n %x", first.Bytes(), second.Bytes())
		}
	})
}
