package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func newTestBufioReader(r io.Reader) *bufio.Reader { return bufio.NewReader(r) }

// testEnvelopes covers every message type, including the batch envelopes,
// with populated map fields so encoding order matters.
func testEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: TypeRegister, Register: &Register{User: 7}},
		{Type: TypeRegister, Campaign: "air-quality", Register: &Register{User: 12}},
		{Type: TypeTasks, Tasks: &Tasks{Tasks: []TaskSpec{{ID: 1, Requirement: 0.8}, {ID: 2, Requirement: 0.25}}}},
		{Type: TypeBid, Bid: &Bid{User: 7, Tasks: []int{1, 2}, Cost: 15.5,
			PoS: map[int]float64{1: 0.3, 2: 0.4}}},
		{Type: TypeAward, Award: &Award{Selected: true, CriticalPoS: 0.2,
			RewardOnSuccess: 23, RewardOnFailure: 13}},
		{Type: TypeAward, Award: &Award{Selected: false}},
		{Type: TypeReport, Report: &Report{User: 7, Succeeded: map[int]bool{1: true, 2: false}}},
		{Type: TypeSettle, Settle: &Settle{Success: true, Reward: 23, Utility: 7.5}},
		{Type: TypeError, Error: &ErrorMsg{Message: "boom"}},
		{Type: TypeBidBatch, Campaign: "noise", BidBatch: &BidBatch{Bids: []Bid{
			{User: 1, Tasks: []int{1}, Cost: 2, PoS: map[int]float64{1: 0.9}},
			{User: 2, Tasks: []int{1, 3}, Cost: 4.5, PoS: map[int]float64{1: 0.5, 3: 0.75}},
		}}},
		{Type: TypeAwardBatch, AwardBatch: &AwardBatch{Awards: []UserAward{
			{User: 1, Award: Award{Selected: true, CriticalPoS: 0.4, RewardOnSuccess: 8, RewardOnFailure: 2}},
			{User: 2, Error: "campaign closed"},
		}}},
		{Type: TypeReportBatch, ReportBatch: &ReportBatch{Reports: []Report{
			{User: 1, Succeeded: map[int]bool{1: true}},
		}}},
		{Type: TypeSettleBatch, SettleBatch: &SettleBatch{Settles: []UserSettle{
			{User: 1, Settle: Settle{Success: true, Reward: 8, Utility: 6}},
			{User: 2, Settle: Settle{Success: false, Reward: 2, Utility: 0}},
		}}},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	envelopes := testEnvelopes()
	var buf bytes.Buffer
	client := NewBinaryCodec(&buf)
	for _, env := range envelopes {
		if err := client.Write(env); err != nil {
			t.Fatalf("write %s: %v", env.Type, err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	server, err := NewServerCodec(&buf)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	if !server.Binary() {
		t.Fatal("server did not negotiate binary")
	}
	for _, want := range envelopes {
		got, err := server.Read()
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := server.Read(); err != io.EOF {
		t.Errorf("after drain: %v, want EOF", err)
	}
}

// TestCrossCodecDifferential pins codec equivalence: every envelope decoded
// from the JSON wire form and from the binary wire form must be the same
// struct, and binary encoding must be deterministic byte for byte.
func TestCrossCodecDifferential(t *testing.T) {
	for _, env := range testEnvelopes() {
		var jbuf bytes.Buffer
		jc := NewCodec(&jbuf)
		if err := jc.Write(env); err != nil {
			t.Fatalf("%s: json write: %v", env.Type, err)
		}
		fromJSON, err := jc.Read()
		if err != nil {
			t.Fatalf("%s: json read: %v", env.Type, err)
		}

		var bbuf bytes.Buffer
		bc := NewBinaryCodec(&bbuf)
		if err := bc.Write(env); err != nil {
			t.Fatalf("%s: binary write: %v", env.Type, err)
		}
		if err := bc.Flush(); err != nil {
			t.Fatal(err)
		}
		firstFrame := append([]byte(nil), bbuf.Bytes()...)
		sc, err := NewServerCodec(&bbuf)
		if err != nil {
			t.Fatalf("%s: negotiate: %v", env.Type, err)
		}
		fromBinary, err := sc.Read()
		if err != nil {
			t.Fatalf("%s: binary read: %v", env.Type, err)
		}

		if !reflect.DeepEqual(fromJSON, fromBinary) {
			t.Errorf("%s: codecs disagree:\n json   %+v\n binary %+v", env.Type, fromJSON, fromBinary)
		}
		if !reflect.DeepEqual(fromJSON, env) {
			t.Errorf("%s: json round trip changed envelope:\n got %+v\nwant %+v", env.Type, fromJSON, env)
		}

		// Byte stability: re-encoding the decoded envelope must reproduce
		// the original frame exactly (sorted map emit).
		var rebuf bytes.Buffer
		rc := NewBinaryCodec(&rebuf)
		if err := rc.Write(fromBinary); err != nil {
			t.Fatal(err)
		}
		if err := rc.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuf.Bytes(), firstFrame) {
			t.Errorf("%s: binary encoding is not byte-stable:\n first  %x\n second %x",
				env.Type, firstFrame, rebuf.Bytes())
		}
	}
}

// duplex is an in-memory bidirectional link for negotiation tests: each side
// reads what the other wrote.
type duplex struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (d duplex) Read(p []byte) (int, error)  { return d.in.Read(p) }
func (d duplex) Write(p []byte) (int, error) { return d.out.Write(p) }

func newDuplexPair() (client, server duplex) {
	a, b := &bytes.Buffer{}, &bytes.Buffer{}
	return duplex{in: a, out: b}, duplex{in: b, out: a}
}

func TestNegotiationLegacyJSONAgent(t *testing.T) {
	// A legacy agent's first byte is '{'. The server must fall back to the
	// JSON codec without consuming anything.
	clientSide, serverSide := newDuplexPair()
	client := NewCodec(clientSide)
	if err := client.Write(&Envelope{Type: TypeRegister, Register: &Register{User: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	server, err := NewServerCodec(serverSide)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	if server.Binary() {
		t.Fatal("JSON agent negotiated binary")
	}
	env, err := server.Read()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeRegister || env.Register.User != 3 {
		t.Errorf("envelope = %+v", env)
	}

	// And the reply path is plain JSON the legacy agent can parse.
	if err := server.Write(&Envelope{Type: TypeTasks, Tasks: &Tasks{Tasks: []TaskSpec{{ID: 1, Requirement: 1}}}}); err != nil {
		t.Fatal(err)
	}
	if err := server.Flush(); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeTasks {
		t.Errorf("reply type = %q", reply.Type)
	}
}

func TestNegotiationBinaryAgentJSONPlatform(t *testing.T) {
	// A binary agent talking to a JSON-only platform: the platform ignores
	// the version byte it cannot parse and answers with a JSON error line.
	// The binary codec's read path must still surface that error envelope.
	clientSide, _ := newDuplexPair()
	client := NewBinaryCodec(clientSide)
	clientSide.in.WriteString(`{"type":"error","error":{"message":"unsupported protocol"}}` + "\n")
	if _, err := client.Expect(TypeTasks); err == nil || !strings.Contains(err.Error(), "unsupported protocol") {
		t.Errorf("error envelope not surfaced through binary codec: %v", err)
	}
}

func TestNegotiationTruncatedVersionByte(t *testing.T) {
	// Connection closed before the first byte: negotiation reports EOF, not
	// a phantom codec.
	var empty bytes.Buffer
	if _, err := NewServerCodec(&empty); err != io.EOF {
		t.Errorf("empty stream: %v, want EOF", err)
	}
}

func TestBinaryFrameTooLarge(t *testing.T) {
	// Inbound: a frame header advertising an oversized payload must be
	// rejected before any allocation.
	var buf bytes.Buffer
	buf.WriteByte(BinaryVersion)
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(MaxBinaryMessageBytes)+1)
	buf.Write(head[:n])
	codec, err := NewServerCodec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Read(); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("oversized frame: %v, want ErrMessageTooLarge", err)
	}
}

func TestBinaryFrameCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	client := NewBinaryCodec(&buf)
	if err := client.Write(&Envelope{Type: TypeRegister, Register: &Register{User: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // corrupt the payload tail
	codec, err := NewServerCodec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Read(); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("corrupt frame: %v, want ErrBadEnvelope", err)
	}
}

func TestRawBinaryFrameHelpers(t *testing.T) {
	// The router forwards frames without re-encoding: ReadRawBinaryFrame +
	// DecodeBinaryFrame must agree with the codec's own encoding.
	env := &Envelope{Type: TypeBid, Campaign: "air", Bid: &Bid{
		User: 5, Tasks: []int{2, 4}, Cost: 7.5, PoS: map[int]float64{2: 0.5, 4: 0.25}}}
	var buf bytes.Buffer
	client := NewBinaryCodec(&buf)
	if err := client.Write(env); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	version, _ := buf.ReadByte()
	if version != BinaryVersion {
		t.Fatalf("version byte = %#x", version)
	}
	br := newTestBufioReader(&buf)
	frame, err := ReadRawBinaryFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBinaryFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, env) {
		t.Errorf("decoded frame:\n got %+v\nwant %+v", decoded, env)
	}
	// CRC must be checked on the raw path too.
	frame[len(frame)-1] ^= 0xff
	if _, err := DecodeBinaryFrame(frame); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("corrupt raw frame: %v, want ErrBadEnvelope", err)
	}
}

func TestBinaryTruncatedPayload(t *testing.T) {
	// Every prefix of a valid frame must fail cleanly, never panic.
	env := testEnvelopes()[9] // bid batch: exercises nested decoding
	var buf bytes.Buffer
	client := NewBinaryCodec(&buf)
	if err := client.Write(env); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	for cut := 1; cut < len(full); cut++ {
		stream := bytes.NewBuffer(full[:cut])
		codec, err := NewServerCodec(stream)
		if err != nil {
			continue // truncated inside the version byte
		}
		if _, err := codec.Read(); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(full))
		}
	}
}

// bracePayloadEnvelope pads a tasks envelope's campaign until its binary
// payload is exactly 123 bytes: the one frame length whose canonical uvarint
// prefix is '{', the byte a binary reader takes for a JSON line.
func bracePayloadEnvelope(tb testing.TB) *Envelope {
	for n := 0; n < 200; n++ {
		env := &Envelope{Type: TypeTasks, Campaign: strings.Repeat("c", n),
			Tasks: &Tasks{Tasks: []TaskSpec{{ID: 1, Requirement: 0.5}}}}
		payload, err := appendEnvelope(nil, env)
		if err != nil {
			tb.Fatal(err)
		}
		if len(payload) == '{' {
			return env
		}
	}
	tb.Fatal("no campaign length gives a 123-byte payload")
	return nil
}

// TestBinaryFrame123BytePayload: a frame whose payload is 123 bytes must
// not begin with '{', must decode through the codec, and must survive the
// raw relay path byte for byte.
func TestBinaryFrame123BytePayload(t *testing.T) {
	env := bracePayloadEnvelope(t)
	var buf bytes.Buffer
	client := NewBinaryCodec(&buf)
	if err := client.Write(env); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	wireBytes := append([]byte(nil), buf.Bytes()...)
	if IsJSONLine(wireBytes[1]) {
		t.Fatalf("frame starts with %#x, which reads as a JSON line", wireBytes[1])
	}

	server, err := NewServerCodec(bytes.NewBuffer(wireBytes))
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Expect(TypeTasks)
	if err != nil {
		t.Fatalf("codec read: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("codec round trip:\n got %+v\nwant %+v", got, env)
	}

	frame, err := ReadRawBinaryFrame(newTestBufioReader(bytes.NewReader(wireBytes[1:])))
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	if !bytes.Equal(frame, wireBytes[1:]) {
		t.Errorf("raw frame re-encoded:\n got %x\nwant %x", frame, wireBytes[1:])
	}
	if got, err := DecodeBinaryFrame(frame); err != nil || !reflect.DeepEqual(got, env) {
		t.Errorf("raw decode = %+v, %v", got, err)
	}
}
