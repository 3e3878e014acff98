package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"crowdsense/internal/store"
)

// Replication wire protocol: length-prefixed CRC-framed JSON messages over a
// TCP stream, the same framing shape as WAL records so a replica verifies
// integrity end to end:
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload JSON
//
// Session flow:
//
//	follower → leader  hello     (shard + seq the replica is durable to)
//	leader → follower  snapshot  (only when the follower's position was
//	                              compacted away: full state to bootstrap)
//	leader → follower  events    (durable WAL events, in seq order)
//	follower → leader  ack       (highest seq the replica has fsynced)
//
// Acks are at record granularity: the follower acks only what its own WAL
// reports durable, so the leader's lag gauge measures true replica
// durability, not bytes in flight.
const (
	repHeaderLen = 8
	// maxRepBytes bounds one replication frame. A frame carries at most one
	// snapshot or one batch of events; both are bounded by the WAL's own
	// record limit times a small batch factor.
	maxRepBytes = 64 << 20
)

// Replication message types.
const (
	RepHello    = "hello"
	RepSnapshot = "snapshot"
	RepEvents   = "events"
	RepAck      = "ack"
)

// Replication protocol errors.
var (
	ErrRepFrameTooLarge = errors.New("cluster: replication frame exceeds size limit")
	ErrRepCorrupt       = errors.New("cluster: replication frame corrupt")
	ErrRepBadMessage    = errors.New("cluster: malformed replication message")
)

// RepMsg is one replication protocol message. Exactly the fields its type
// requires are populated.
type RepMsg struct {
	Type string `json:"type"`

	// hello
	Node    string `json:"node,omitempty"`  // follower's name, for logs/metrics
	Shard   string `json:"shard,omitempty"` // shard being replicated
	FromSeq uint64 `json:"from_seq,omitempty"`

	// snapshot
	Snapshot    *store.State `json:"snapshot,omitempty"`
	SnapshotSeq uint64       `json:"snapshot_seq,omitempty"`

	// events
	Events []store.Event `json:"events,omitempty"`

	// events trace annotation (optional; absent from legacy leaders): the
	// round trace context of the frame's newest event plus the leader's send
	// time, so the follower's apply span joins the round's distributed trace
	// and stitching can estimate the leader↔follower clock offset.
	TraceID       uint64 `json:"trace_id,omitempty"`
	SpanID        uint64 `json:"span_id,omitempty"`
	TraceNode     string `json:"trace_node,omitempty"`
	SentUnixNanos int64  `json:"sent_unix_ns,omitempty"`

	// ack
	Seq uint64 `json:"seq,omitempty"` // highest seq durable on the replica
}

// Validate checks the tag/payload pairing.
func (m *RepMsg) Validate() error {
	switch m.Type {
	case RepHello:
		if m.Shard == "" {
			return fmt.Errorf("%w: hello missing shard", ErrRepBadMessage)
		}
	case RepSnapshot:
		if m.Snapshot == nil {
			return fmt.Errorf("%w: snapshot missing state", ErrRepBadMessage)
		}
	case RepEvents:
		if len(m.Events) == 0 {
			return fmt.Errorf("%w: events message carries none", ErrRepBadMessage)
		}
		for i, ev := range m.Events {
			if ev.Seq == 0 {
				return fmt.Errorf("%w: event %d missing seq", ErrRepBadMessage, i)
			}
			if i > 0 && ev.Seq != m.Events[i-1].Seq+1 {
				return fmt.Errorf("%w: events not contiguous (%d then %d)",
					ErrRepBadMessage, m.Events[i-1].Seq, ev.Seq)
			}
		}
	case RepAck:
		// Seq 0 is a valid ack from an empty replica.
	default:
		return fmt.Errorf("%w: unknown type %q", ErrRepBadMessage, m.Type)
	}
	return nil
}

// EncodeRep frames one message.
func EncodeRep(m *RepMsg) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal %s: %w", m.Type, err)
	}
	if len(payload) > maxRepBytes {
		return nil, ErrRepFrameTooLarge
	}
	out := make([]byte, repHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[repHeaderLen:], payload)
	return out, nil
}

// DecodeRep parses one framed message from data, returning it and the bytes
// consumed. Distinguishes "need more bytes" (io.ErrUnexpectedEOF) from real
// corruption (ErrRepCorrupt, ErrRepFrameTooLarge, ErrRepBadMessage) so a
// stream reader can keep buffering on the former and tear down on the
// latter.
func DecodeRep(data []byte) (*RepMsg, int, error) {
	if len(data) < repHeaderLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n > maxRepBytes {
		return nil, 0, ErrRepFrameTooLarge
	}
	if len(data) < repHeaderLen+n {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := data[repHeaderLen : repHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrRepCorrupt)
	}
	var m RepMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrRepBadMessage, err)
	}
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	return &m, repHeaderLen + n, nil
}

// repConn reads and writes framed messages on a stream.
//
// Reads land in the spare capacity of one buffer per connection; buf[off:]
// holds the received bytes not yet decoded. The buffer starts at
// repReadSize and grows only while a frame does not fit. Decoded messages
// never alias it (DecodeRep's json.Unmarshal copies every string and slice
// out of its input), so the buffer is reused as soon as a frame is decoded.
type repConn struct {
	rw  io.ReadWriter
	buf []byte
	off int
}

const (
	// repReadSize is a repConn's first read buffer: room for acks, hellos
	// and a typical events batch.
	repReadSize = 4 << 10
	// repKeepBytes caps the buffer a drained repConn keeps: one grown for a
	// snapshot is dropped rather than held for the session's small frames.
	repKeepBytes = 1 << 20
)

func newRepConn(rw io.ReadWriter) *repConn {
	return &repConn{rw: rw}
}

// write sends one message.
func (c *repConn) write(m *RepMsg) error {
	data, err := EncodeRep(m)
	if err != nil {
		return err
	}
	if _, err := c.rw.Write(data); err != nil {
		return fmt.Errorf("cluster: write %s: %w", m.Type, err)
	}
	return nil
}

// read receives one message, buffering partial frames across reads.
func (c *repConn) read() (*RepMsg, error) {
	for {
		if m, n, err := DecodeRep(c.buf[c.off:]); err == nil {
			c.off += n
			if c.off == len(c.buf) { // drained: the next frame starts at the front
				c.buf, c.off = c.buf[:0], 0
				if cap(c.buf) > repKeepBytes {
					c.buf = nil
				}
			}
			return m, nil
		} else if err != io.ErrUnexpectedEOF {
			return nil, err
		}
		if len(c.buf) == cap(c.buf) {
			c.makeRoom()
		}
		n, err := c.rw.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if n > 0 {
			continue
		}
		if err != nil {
			if err == io.EOF && len(c.buf) > c.off {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// makeRoom frees space past the buffered bytes for the next Read: it moves
// a partial frame to the front of the buffer, or, when the partial frame
// already starts there, doubles the buffer. Growth thus follows the bytes
// received, never the length a frame header claims.
func (c *repConn) makeRoom() {
	pending := c.buf[c.off:]
	if c.off > 0 {
		c.buf, c.off = c.buf[:copy(c.buf, pending)], 0
		return
	}
	grown := make([]byte, len(pending), max(2*cap(c.buf), repReadSize))
	copy(grown, pending)
	c.buf = grown
}
