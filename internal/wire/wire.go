// Package wire defines the message protocol between the crowdsensing
// platform and mobile-user agents. Two codecs share one envelope
// vocabulary:
//
//   - JSON lines (the legacy codec): newline-delimited JSON envelopes.
//   - Binary (the fan-in codec): varint length-prefixed, CRC32-checked
//     frames with hand-written, reflection-free payload encoders — see
//     binary.go.
//
// The codec is negotiated by the first byte an agent sends at connection
// open: BinaryVersion selects the binary codec; anything else (in practice
// '{', the first byte of a JSON envelope) selects JSON, so legacy agents
// keep working unchanged against a binary-capable platform. Servers
// negotiate with NewServerCodec; binary clients open with NewBinaryCodec.
//
// The message flow mirrors steps 2–6 of the paper's Fig. 1:
//
//	agent → platform  register
//	platform → agent  tasks        (task publication)
//	agent → platform  bid          (sealed bid: task set, cost, PoS)
//	platform → agent  award        (selection + EC reward contract)
//	agent → platform  report       (execution results; winners only)
//	platform → agent  settle       (realized reward)
//
// An aggregator session carries many agents on one connection with the
// batch envelopes: bid_batch replaces bid, and the platform answers with
// award_batch / settle_batch keyed by user (report_batch carries the
// winners' results back). Either side may send an error envelope at any
// point and close.
//
// Writes are buffered: Write stages an envelope and Flush sends the batch
// in one syscall. Read flushes pending writes first (a read turnaround
// always implies the peer must see our previous messages to answer), so
// request/response callers never deadlock; callers whose final envelope is
// not followed by a read must Flush before closing.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxMessageBytes bounds a single JSON message line; a peer exceeding it is
// protocol-broken. Binary frames have their own, larger bound
// (MaxBinaryMessageBytes) because one frame may batch thousands of bids.
const MaxMessageBytes = 1 << 20

// MsgType tags an envelope.
type MsgType string

// Protocol message types.
const (
	TypeRegister    MsgType = "register"
	TypeTasks       MsgType = "tasks"
	TypeBid         MsgType = "bid"
	TypeAward       MsgType = "award"
	TypeReport      MsgType = "report"
	TypeSettle      MsgType = "settle"
	TypeError       MsgType = "error"
	TypeBidBatch    MsgType = "bid_batch"
	TypeAwardBatch  MsgType = "award_batch"
	TypeReportBatch MsgType = "report_batch"
	TypeSettleBatch MsgType = "settle_batch"
)

// ShardMovedMessage prefixes error envelopes meaning "the shard owning this
// campaign has no live member right now" — typically the window between a
// leader dying and its follower finishing promotion. It is shared protocol
// vocabulary: the cluster router emits it and agents classify it as
// retryable (the platform is mid-failover, not gone).
const ShardMovedMessage = "shard moved"

// Protocol errors.
var (
	ErrMessageTooLarge = errors.New("wire: message exceeds size limit")
	ErrBadEnvelope     = errors.New("wire: malformed envelope")
	// ErrPeer marks an error envelope the peer sent: the connection worked
	// and the peer answered — with a rejection. Callers use it to separate
	// "the platform said no" from "the platform went away".
	ErrPeer = errors.New("wire: peer error")
)

// Register announces an agent to the platform.
type Register struct {
	User int `json:"user"`
}

// TaskSpec is one published task.
type TaskSpec struct {
	ID          int     `json:"id"`
	Requirement float64 `json:"requirement"`
}

// Tasks publishes the auction's tasks to an agent.
type Tasks struct {
	Tasks []TaskSpec `json:"tasks"`
}

// Bid is an agent's sealed bid.
type Bid struct {
	User  int             `json:"user"`
	Tasks []int           `json:"tasks"`
	Cost  float64         `json:"cost"`
	PoS   map[int]float64 `json:"pos"`
}

// Award tells an agent whether she won and, if so, her execution-contingent
// reward contract.
type Award struct {
	Selected        bool    `json:"selected"`
	CriticalPoS     float64 `json:"critical_pos,omitempty"`
	RewardOnSuccess float64 `json:"reward_on_success,omitempty"`
	RewardOnFailure float64 `json:"reward_on_failure,omitempty"`
}

// Report carries a winner's realized execution results.
type Report struct {
	User      int          `json:"user"`
	Succeeded map[int]bool `json:"succeeded"`
}

// Settle closes a winner's session with her realized reward.
type Settle struct {
	Success bool    `json:"success"`
	Reward  float64 `json:"reward"`
	Utility float64 `json:"utility"`
}

// ErrorMsg reports a protocol or application failure to the peer.
type ErrorMsg struct {
	Message string `json:"message"`
}

// TraceContext is the distributed-tracing context an envelope may carry: the
// identity of the sender-side span the receiver should parent its own spans
// under, plus the sender's wall clock at send time (for clock-offset
// estimation across nodes). The engine is the trace authority — its round
// span's context rides the server→agent envelopes (tasks, award, settle and
// their batch forms) — so a legacy agent that never sends context still
// lands inside the server's trace.
//
// The field is optional in both codecs: JSON peers that predate it ignore
// the extra key, and the binary codec appends it after the typed payload,
// where old-format frames simply end (see binary.go).
type TraceContext struct {
	TraceID       uint64 `json:"trace_id"`
	SpanID        uint64 `json:"span_id"`
	Node          string `json:"node,omitempty"`
	SentUnixNanos int64  `json:"sent_unix_ns,omitempty"`
}

// BidBatch carries many agents' sealed bids in one frame — the aggregator
// fan-in path. Bids are independent; the platform admits each on its own
// and reports per-user verdicts in the answering AwardBatch.
type BidBatch struct {
	Bids []Bid `json:"bids"`
}

// UserAward is one agent's slot in an AwardBatch: her award, or the reason
// her bid was rejected at admission.
type UserAward struct {
	User  int    `json:"user"`
	Error string `json:"error,omitempty"` // admission rejection; award fields are zero
	Award
}

// AwardBatch answers a BidBatch with one entry per submitted bid, in
// submission order.
type AwardBatch struct {
	Awards []UserAward `json:"awards"`
}

// ReportBatch carries the batch's winning agents' execution results. Only
// selected users report; an empty batch is not sent.
type ReportBatch struct {
	Reports []Report `json:"reports"`
}

// UserSettle is one agent's slot in a SettleBatch.
type UserSettle struct {
	User int `json:"user"`
	Settle
}

// SettleBatch closes an aggregator session's winners, one entry per report
// received, in report order.
type SettleBatch struct {
	Settles []UserSettle `json:"settles"`
}

// Envelope is the wire representation: a type tag plus exactly one payload
// field populated.
//
// Campaign optionally routes the message to one campaign of a multi-campaign
// engine. An absent campaign means the legacy single-campaign protocol: the
// receiver routes the session to its default campaign, so agents predating
// the field keep working unchanged.
type Envelope struct {
	Type        MsgType       `json:"type"`
	Campaign    string        `json:"campaign,omitempty"`
	Trace       *TraceContext `json:"trace,omitempty"`
	Register    *Register     `json:"register,omitempty"`
	Tasks       *Tasks        `json:"tasks,omitempty"`
	Bid         *Bid          `json:"bid,omitempty"`
	Award       *Award        `json:"award,omitempty"`
	Report      *Report       `json:"report,omitempty"`
	Settle      *Settle       `json:"settle,omitempty"`
	Error       *ErrorMsg     `json:"error,omitempty"`
	BidBatch    *BidBatch     `json:"bid_batch,omitempty"`
	AwardBatch  *AwardBatch   `json:"award_batch,omitempty"`
	ReportBatch *ReportBatch  `json:"report_batch,omitempty"`
	SettleBatch *SettleBatch  `json:"settle_batch,omitempty"`
}

// Validate checks that the envelope's tag matches its populated payload.
func (e *Envelope) Validate() error {
	var want bool
	switch e.Type {
	case TypeRegister:
		want = e.Register != nil
	case TypeTasks:
		want = e.Tasks != nil
	case TypeBid:
		want = e.Bid != nil
	case TypeAward:
		want = e.Award != nil
	case TypeReport:
		want = e.Report != nil
	case TypeSettle:
		want = e.Settle != nil
	case TypeError:
		want = e.Error != nil
	case TypeBidBatch:
		want = e.BidBatch != nil && len(e.BidBatch.Bids) > 0
	case TypeAwardBatch:
		want = e.AwardBatch != nil
	case TypeReportBatch:
		want = e.ReportBatch != nil && len(e.ReportBatch.Reports) > 0
	case TypeSettleBatch:
		want = e.SettleBatch != nil
	default:
		return fmt.Errorf("%w: unknown type %q", ErrBadEnvelope, e.Type)
	}
	if !want {
		return fmt.Errorf("%w: %q envelope missing payload", ErrBadEnvelope, e.Type)
	}
	return nil
}

// Codec frames envelopes over a stream in one of the two negotiated
// encodings. A codec is not safe for concurrent use; readers must not
// retain Read results' backing memory past the next Read (payload structs
// are freshly allocated and safe to keep — only internal scratch is
// reused).
//
// Its read and write buffers have bufio's default size (4 KiB): a
// session's envelopes are small, so a larger buffer would only be
// allocated and never filled. Bigger messages still pass: readLine
// reassembles a long JSON line, a binary frame is read with io.ReadFull,
// and the writer hands a payload larger than its buffer straight to the
// stream.
type Codec struct {
	r      *bufio.Reader
	w      *bufio.Writer
	binary bool

	line []byte // JSON line scratch, reused across Reads
	enc  []byte // binary encode scratch, reused across Writes
}

// NewCodec wraps a stream with the JSON-lines codec. The caller retains
// ownership of rw (deadlines, closing).
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// NewBinaryCodec wraps a stream with the binary codec, staging the protocol
// version byte so the peer's NewServerCodec negotiates binary on the first
// flush. Used by the connection-opening side (agents, the router's backend
// legs); servers use NewServerCodec.
func NewBinaryCodec(rw io.ReadWriter) *Codec {
	c := &Codec{r: bufio.NewReader(rw), w: bufio.NewWriter(rw), binary: true}
	_ = c.w.WriteByte(BinaryVersion)
	return c
}

// NewServerCodec negotiates the codec from the first byte the peer sends:
// BinaryVersion (consumed) selects binary, anything else (left in the
// stream) selects JSON — a legacy agent's '{' lands here. Blocks until the
// peer sends its first byte; a stream closed before that returns io.EOF
// ("truncated version byte").
func NewServerCodec(rw io.ReadWriter) (*Codec, error) {
	c := &Codec{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
	first, err := c.r.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] == BinaryVersion {
		_, _ = c.r.Discard(1)
		c.binary = true
	}
	return c, nil
}

// Binary reports the codec's negotiated encoding.
func (c *Codec) Binary() bool { return c.binary }

// Write validates, marshals, and stages one envelope in the write buffer.
// Nothing hits the wire until Flush — or the next Read, which flushes
// first. Batched sends therefore coalesce into one syscall.
func (c *Codec) Write(env *Envelope) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if c.binary {
		return c.writeBinary(env)
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("wire: marshal %s: %w", env.Type, err)
	}
	if len(data)+1 > MaxMessageBytes {
		return ErrMessageTooLarge
	}
	if _, err := c.w.Write(data); err != nil {
		return fmt.Errorf("wire: write %s: %w", env.Type, err)
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("wire: write %s: %w", env.Type, err)
	}
	return nil
}

// Flush sends every staged envelope. Callers must Flush after a final
// write that no Read follows (e.g. before closing the connection).
func (c *Codec) Flush() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Read flushes staged writes (the peer must see them to answer), then
// receives and validates one envelope. io.EOF is returned unchanged on a
// cleanly closed stream.
//
// A binary codec that receives a '{' where a frame should start parses the
// message as a JSON line instead (see IsJSONLine): that is a JSON-only peer
// answering a binary opening — typically with an error envelope — and
// surfacing it beats failing with a framing error.
func (c *Codec) Read() (*Envelope, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	if c.binary {
		if first, err := c.r.Peek(1); err == nil && IsJSONLine(first[0]) {
			return c.readJSON()
		}
		return c.readBinary()
	}
	return c.readJSON()
}

func (c *Codec) readJSON() (*Envelope, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return &env, nil
}

// readLine reads one newline-terminated line into the codec's scratch
// buffer, which is reused across calls: callers must not retain the
// returned slice past the next Read.
func (c *Codec) readLine() ([]byte, error) {
	line := c.line[:0]
	for {
		chunk, isPrefix, err := c.r.ReadLine()
		if err != nil {
			if err == io.EOF && len(line) > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		line = append(line, chunk...)
		if len(line) > MaxMessageBytes {
			c.line = line[:0]
			return nil, ErrMessageTooLarge
		}
		if !isPrefix {
			c.line = line
			return line, nil
		}
	}
}

// Expect reads one envelope and requires the given type, unwrapping error
// envelopes into Go errors.
func (c *Codec) Expect(t MsgType) (*Envelope, error) {
	env, err := c.Read()
	if err != nil {
		return nil, err
	}
	if env.Type == TypeError {
		return nil, fmt.Errorf("%w: %s", ErrPeer, env.Error.Message)
	}
	if env.Type != t {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrBadEnvelope, env.Type, t)
	}
	return env, nil
}

// WriteError sends an error envelope and flushes (error envelopes are
// terminal; the peer must see them now). Failures to send are ignored (the
// peer is already suspect).
func (c *Codec) WriteError(msg string) {
	_ = c.Write(&Envelope{Type: TypeError, Error: &ErrorMsg{Message: msg}})
	_ = c.Flush()
}
