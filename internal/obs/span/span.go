// Package span is the platform's lifecycle-tracing layer: low-overhead
// hierarchical spans (campaign → round → phase → solver probe) with
// monotonic timestamps, typed attributes, and pluggable sinks.
//
// A Tracer hands out spans; ending a span renders it into an immutable
// Record and fans the record out to every sink. Two sinks ship with the
// package: Ring, a bounded lock-free buffer backing the /debug/spans ops
// endpoint, and Journal, a durable append-only JSONL stream with size-based
// rotation that cmd/obsctl tails, summarizes, and converts to Chrome
// trace-event JSON (Perfetto / chrome://tracing).
//
// The disabled path is a nil pointer: every method of Tracer and Span is
// nil-safe, so producers thread one *Span through their call graph and pay a
// single nil check when tracing is off. The package deliberately depends on
// nothing inside crowdsense, mirroring internal/obs: the engine, mechanisms,
// and solvers are producers, not dependencies.
package span

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Span names recorded by the engine and mechanism instrumentation. They are
// part of the journal format consumed by obsctl; keep them stable.
const (
	// NameCampaign is the root span of one campaign's whole life.
	NameCampaign = "campaign"
	// NameRound covers one auction round, open → settled.
	NameRound = "round"
	// NamePhaseCollecting / NamePhaseComputing / NamePhaseSettling are the
	// round's state-machine phases.
	NamePhaseCollecting = "phase.collecting"
	NamePhaseComputing  = "phase.computing"
	NamePhaseSettling   = "phase.settling"
	// NameWD covers one winner-determination call (mechanism run).
	NameWD = "wd"
	// NameAllocate is the mechanism's allocation (the auction's solve on
	// declared types).
	NameAllocate = "wd.allocate"
	// NameCriticalBid is one winner's critical-bid search; its children are
	// the individual solver probes.
	NameCriticalBid = "wd.critical_bid"
	// NameKnapsackSolve is one knapsack.Solver solve — the allocation or one
	// critical-bid probe.
	NameKnapsackSolve = "knapsack.solve"
	// NameGreedyCover is one setcover.Greedy cover — the allocation or one
	// critical-bid rerun.
	NameGreedyCover = "setcover.greedy"
	// NameRecovery covers one startup replay of durable state (snapshot +
	// WAL) into a restored engine.
	NameRecovery = "recovery"
	// NameReplication covers one leader→follower WAL replication session,
	// connect → disconnect.
	NameReplication = "replication"
	// NameAuditViolation marks one mechanism-invariant violation found by
	// the live auditor (zero-duration event span).
	NameAuditViolation = "audit.violation"
	// NameReputationUpdate covers one post-settlement reputation commit +
	// checkpoint: the round's execution reports folded into learned
	// reliability and snapshotted into the log.
	NameReputationUpdate = "reputation.update"
	// NameSLOBreach marks one latency-SLO burn-rate breach rising edge
	// (zero-duration event span).
	NameSLOBreach = "slo.breach"
	// NameFailover covers one follower promotion: leader declared dead →
	// replica replayed → serving agents.
	NameFailover = "failover"
	// NameAgentSession is the client-side root of one agent wire session,
	// dial → settle. It adopts the engine's round trace context from the
	// tasks envelope, so it parents under the server's round span.
	NameAgentSession = "agent.session"
	// NameAgentDial / NameAgentSubmit / NameAgentAward / NameAgentSettle are
	// the session's client-side phases: TCP dial, register→tasks→bid write,
	// award wait, and report→settle.
	NameAgentDial   = "agent.dial"
	NameAgentSubmit = "agent.submit"
	NameAgentAward  = "agent.award_wait"
	NameAgentSettle = "agent.settle"
	// NameAgentRedial marks one retryable session failure inside
	// RunWithBackoff (attrs: attempt, error class, backoff delay).
	NameAgentRedial = "agent.redial"
	// NameRouterHop covers one routed agent session at the shard router,
	// first envelope → splice end. It adopts the round trace context from
	// the backend's first reply.
	NameRouterHop = "router.hop"
	// NameRepApply covers one replicated event frame applied by a follower,
	// receive → fsync → ack. It adopts the round trace context the leader
	// annotated the frame with.
	NameRepApply = "replication.apply"
)

// attrKind discriminates the typed attribute payloads.
type attrKind uint8

const (
	kindInt attrKind = iota + 1
	kindFloat
	kindStr
)

// Attr is one typed span attribute. Construct with Int, Float, or Str.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, s: v} }

// Value returns the attribute's payload as an interface value.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return a.i
	case kindFloat:
		return a.f
	case kindStr:
		return a.s
	}
	return nil
}

// Attrs is an ordered attribute list. It marshals as a JSON object in
// first-occurrence key order, last write winning on a duplicate key, with
// non-finite floats as null; unmarshalling restores entries in sorted-key
// order (JSON objects carry no order) and drops the nulls.
type Attrs []Attr

// Get returns the value of the named attribute, or nil.
func (as Attrs) Get(key string) any {
	for _, a := range as {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// Int returns the named attribute as an int64 (converting a float), with ok
// false when absent or non-numeric.
func (as Attrs) Int(key string) (int64, bool) {
	switch v := as.Get(key).(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// MarshalJSON renders the attributes as one JSON object with the journal's
// encoder (appendAttrs).
func (as Attrs) MarshalJSON() ([]byte, error) { return appendAttrs(nil, as), nil }

// UnmarshalJSON decodes a JSON object into typed attributes. Numbers with no
// fractional part become Int attrs, other numbers Float, strings Str; other
// value types are rendered through fmt as strings (the journal writer never
// produces them).
func (as *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(Attrs, 0, len(m))
	for _, k := range keys {
		raw := m[k]
		if string(raw) == "null" {
			continue // what the writer emits for non-finite floats
		}
		var n json.Number
		if err := json.Unmarshal(raw, &n); err == nil {
			if i, err := n.Int64(); err == nil {
				out = append(out, Int(k, i))
				continue
			}
			f, err := n.Float64()
			if err != nil {
				return fmt.Errorf("span: attr %q: %w", k, err)
			}
			out = append(out, Float(k, f))
			continue
		}
		var s string
		if err := json.Unmarshal(raw, &s); err == nil {
			out = append(out, Str(k, s))
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("span: attr %q: %w", k, err)
		}
		out = append(out, Str(k, fmt.Sprint(v)))
	}
	*as = out
	return nil
}

// Record is one completed span, the unit every sink consumes and every
// journal line carries. Start is wall-clock; DurNanos is derived from the
// monotonic clock, so durations stay exact across wall-clock adjustments.
//
// Span IDs are per-process counters, so cross-node parent edges cannot be
// resolved by ID alone: a record is globally identified by (TraceID, Node,
// ID), and Parent names a span on ParentNode when set, on Node otherwise.
type Record struct {
	ID         uint64    `json:"id"`
	Parent     uint64    `json:"parent,omitempty"`
	TraceID    uint64    `json:"trace_id,omitempty"`
	Node       string    `json:"node,omitempty"`
	ParentNode string    `json:"parent_node,omitempty"` // empty: parent lives on Node
	Name       string    `json:"name"`
	Campaign   string    `json:"campaign,omitempty"`
	Round      int       `json:"round,omitempty"` // 1-based
	Start      time.Time `json:"start"`
	DurNanos   int64     `json:"dur_ns"`
	Attrs      Attrs     `json:"attrs,omitempty"`
}

// MarshalJSON renders the record with the journal's encoder (appendRecord),
// so /debug/spans and a journal line carry the same bytes for one record.
func (r Record) MarshalJSON() ([]byte, error) { return appendRecord(nil, &r), nil }

// Duration returns the span's length.
func (r Record) Duration() time.Duration { return time.Duration(r.DurNanos) }

// TraceContext is the compact trace identity one process hands another: the
// trace a span belongs to, the span itself, and the node it lives on. It is
// what travels inside wire envelopes and replication frames; a received
// context is attached to a local span with Adopt (or StartRemote).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Node    string
}

// Valid reports whether the context identifies a real remote span. The zero
// value — what a disabled tracer or a legacy peer produces — is invalid and
// is never propagated.
func (c TraceContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// newTraceID mints a random 64-bit trace identity. Roots are rare (one per
// campaign, replication session, or failover), so the crypto/rand read is
// never on a hot path. Zero is reserved for "no trace".
func newTraceID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to the wall clock; uniqueness only has to hold across
		// the handful of journals one stitch call merges.
		return uint64(time.Now().UnixNano()) | 1
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

// Sink consumes completed spans. Emit runs on the producer's goroutine —
// often inside the engine's hot path — so implementations must be fast and
// must never call back into their producers.
type Sink interface {
	Emit(rec *Record)
}

// Tracer hands out spans and fans completed ones to its sinks. A nil
// *Tracer is the no-op tracer: Start returns a nil span and every
// downstream operation is a nil check.
type Tracer struct {
	sinks []Sink
	next  atomic.Uint64
	node  string
}

// New builds a tracer over the given sinks; nil sinks are dropped. With no
// sinks remaining it returns nil — the no-op tracer — so "no sink attached"
// costs exactly one nil check per span operation.
func New(sinks ...Sink) *Tracer {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return &Tracer{sinks: kept}
}

// SetNode names the node whose spans this tracer records; the name is
// stamped into every subsequent span. Call it once at process start, before
// spans are handed out — it is not synchronized against concurrent Start.
// Returns the tracer for chaining; nil-safe.
func (t *Tracer) SetNode(node string) *Tracer {
	if t == nil {
		return nil
	}
	t.node = node
	return t
}

// Start opens a root span with a fresh trace identity. Nil-safe: a nil
// tracer returns a nil span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t}
	s.rec = Record{ID: t.next.Add(1), TraceID: newTraceID(), Node: t.node, Name: name, Start: time.Now()}
	s.setAttrs(attrs)
	return s
}

// StartRemote opens a root span parented under a span on another node — the
// receive side of trace-context propagation. An invalid context degrades to
// a plain Start, beginning a fresh trace. Nil-safe.
func (t *Tracer) StartRemote(ctx TraceContext, name string, attrs ...Attr) *Span {
	s := t.Start(name, attrs...)
	s.Adopt(ctx)
	return s
}

// Span is one in-flight operation. A span is owned by a single goroutine;
// concurrent children each get their own span via Child. All methods are
// nil-safe, making a nil *Span the disabled path.
//
// The span embeds its eventual Record and inline storage for the first
// spanInlineAttrs attributes, so the emit path — which runs once per solver
// probe inside winner determination — allocates one flat object per span
// and the variadic attr slices never escape to the heap. Keeping each
// completed span a single allocation also keeps the ring's retained history
// cheap for the garbage collector to mark. After End the record is
// immutable and shared with every sink.
type Span struct {
	tr    *Tracer
	rec   Record
	ended bool
	buf   [spanInlineAttrs]Attr
}

// spanInlineAttrs covers every span the engine emits (the widest, a solver
// probe, carries seven attributes); busier spans spill to a heap slice.
const spanInlineAttrs = 4

// setAttrs seeds rec.Attrs from the span's inline buffer. The capacity is
// pinned to the buffer so a spill past it reallocates instead of walking
// off the array.
func (s *Span) setAttrs(attrs []Attr) {
	n := copy(s.buf[:], attrs)
	s.rec.Attrs = s.buf[:n:spanInlineAttrs]
	if n < len(attrs) {
		s.rec.Attrs = append(s.rec.Attrs, attrs[n:]...)
	}
}

// Child opens a sub-span inheriting the campaign/round tag and the trace
// identity. The child lives on the local node even when its parent adopted a
// remote context — only the adopting span carries a cross-node parent edge.
// Nil-safe.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr}
	c.rec = Record{
		ID:       s.tr.next.Add(1),
		Parent:   s.rec.ID,
		TraceID:  s.rec.TraceID,
		Node:     s.rec.Node,
		Name:     name,
		Campaign: s.rec.Campaign,
		Round:    s.rec.Round,
		Start:    time.Now(),
	}
	c.setAttrs(attrs)
	return c
}

// ChildSpanning emits an already-completed sub-span covering [start,
// start+dur]. Clients use it for phases that finish before the span's trace
// identity is settled — an agent's dial completes before the server's trace
// context arrives on the tasks envelope, so the child must be recorded after
// the parent adopts to inherit the right trace. Nil-safe.
func (s *Span) ChildSpanning(start time.Time, dur time.Duration, name string, attrs ...Attr) {
	c := s.Child(name, attrs...)
	if c == nil {
		return
	}
	c.rec.Start = start
	c.ended = true
	c.rec.DurNanos = int64(dur)
	for _, sink := range c.tr.sinks {
		sink.Emit(&c.rec)
	}
}

// Adopt reparents an open span under a remote context: the span joins the
// remote trace and its parent edge points at ctx's span on ctx's node.
// Children opened afterwards inherit the adopted trace. An invalid context
// is ignored. Nil-safe.
func (s *Span) Adopt(ctx TraceContext) {
	if s == nil || !ctx.Valid() {
		return
	}
	s.rec.TraceID = ctx.TraceID
	s.rec.Parent = ctx.SpanID
	if ctx.Node != s.rec.Node {
		s.rec.ParentNode = ctx.Node
	} else {
		s.rec.ParentNode = ""
	}
}

// Context returns the span's trace identity, ready to hand to another
// process. A nil span returns the zero (invalid) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.ID, Node: s.rec.Node}
}

// Tag sets the span's campaign/round locus (inherited by later children) and
// returns the span for chaining. Nil-safe.
func (s *Span) Tag(campaign string, round int) *Span {
	if s == nil {
		return nil
	}
	s.rec.Campaign = campaign
	s.rec.Round = round
	return s
}

// Set appends attributes. Nil-safe.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// End closes the span and emits its record to every sink. Ending twice is a
// no-op. Nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.DurNanos = int64(time.Since(s.rec.Start))
	for _, sink := range s.tr.sinks {
		sink.Emit(&s.rec)
	}
}

// EndWith appends attributes and ends the span. Nil-safe.
func (s *Span) EndWith(attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
	s.End()
}
