// Package agent implements a mobile-user client for the crowdsensing
// platform: it registers, receives the published tasks, composes a sealed
// bid from the user's (private) type — optionally derived from her mobility
// model — submits it, and, if selected, simulates task execution with her
// TRUE probabilities of success and reports the results for settlement.
package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/mobility"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/stats"
	"crowdsense/internal/wire"
)

// Config parameterizes one agent.
type Config struct {
	Addr string // platform address

	// Campaign targets one campaign of a multi-campaign engine. Empty means
	// the legacy single-campaign protocol: the platform routes the session
	// to its default campaign.
	Campaign string

	User auction.UserID

	// TrueBid is the agent's true type: task set, cost, and true PoS. The
	// agent bids on the intersection of TrueBid.Tasks with the published
	// tasks.
	TrueBid auction.Bid

	// AutoType, when set, derives the agent's true type from the published
	// tasks instead of TrueBid — used by fleet tooling where types are
	// sampled per round.
	AutoType func(tasks []wire.TaskSpec) auction.Bid

	// Seed drives the execution simulation.
	Seed int64

	// Timeout bounds each I/O step; zero means 30 seconds.
	Timeout time.Duration

	// Binary selects the length-prefixed binary wire codec instead of the
	// legacy JSON lines. The platform auto-negotiates from the first byte,
	// so a binary agent works against any binary-capable platform; leave
	// false for JSON-only peers.
	Binary bool

	// Spans, when non-nil, records client-side spans for the session: an
	// agent.session root with dial / submit / award_wait / settle children.
	// The root adopts the engine's round trace context from the tasks
	// envelope, so client spans parent under the server's round span in a
	// stitched timeline. Nil disables tracing at zero cost.
	Spans *span.Tracer
}

func (c Config) timeout() time.Duration { return ioTimeout(c.Timeout) }

// ioTimeout applies the 30-second default to a per-step I/O bound.
func ioTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 30 * time.Second
	}
	return d
}

func (c Config) endpoint() endpoint {
	return endpoint{who: fmt.Sprintf("agent %d", c.User), addr: c.Addr, campaign: c.Campaign,
		user: c.User, binary: c.Binary, timeout: c.timeout(), seed: c.Seed, spans: c.Spans}
}

// Result is the agent's view of a completed round.
type Result struct {
	Selected bool
	Award    wire.Award
	Settle   wire.Settle
	Attempt  map[auction.TaskID]bool // execution outcomes (winners only)

	// Registered reports that the platform accepted this session's
	// registration and published its tasks — evidence the platform is up
	// even if the round later failed, which RunWithBackoff uses to reset
	// its delay instead of compounding it.
	Registered bool

	// Redials counts the dial retries RunWithBackoff needed before this
	// round's connection opened (0 = first dial worked; Run always leaves
	// it 0).
	Redials int
}

// BidFromModel derives a user's true type from her mobility model the way
// the evaluation workload does: task set = top-k predicted next locations
// from the current cell, PoS = predicted transition probability lifted to
// the campaign horizon.
func BidFromModel(rng *rand.Rand, user auction.UserID, m *mobility.Model, taskSetSize int, horizon int, cost float64) auction.Bid {
	current := m.SampleCurrent(rng)
	predicted := m.Predict(current, taskSetSize)
	tasks := make([]auction.TaskID, 0, len(predicted))
	pos := make(map[auction.TaskID]float64, len(predicted))
	for _, c := range predicted {
		p := m.Prob(current, c)
		if horizon > 1 {
			p = 1 - math.Pow(1-p, float64(horizon))
		}
		id := auction.TaskID(c)
		tasks = append(tasks, id)
		pos[id] = p
	}
	return auction.NewBid(user, tasks, cost, pos)
}

// adoptTrace parents a client-side root span under the engine's round span
// using the trace context a server envelope carried, and records the
// send/receive wall-clock pair that obsctl stitch uses for pairwise
// clock-offset estimation. Nil-safe on both sides; a legacy envelope with no
// context leaves the span a fresh local trace root.
func adoptTrace(s *span.Span, tc *wire.TraceContext) {
	if s == nil || tc == nil {
		return
	}
	s.Adopt(span.TraceContext{TraceID: tc.TraceID, SpanID: tc.SpanID, Node: tc.Node})
	if tc.SentUnixNanos != 0 {
		s.Set(span.Int("peer_send_unix_ns", tc.SentUnixNanos),
			span.Int("recv_unix_ns", time.Now().UnixNano()))
	}
}

// Run executes one auction round against the platform.
func Run(ctx context.Context, cfg Config) (Result, error) {
	sess := cfg.Spans.Start(span.NameAgentSession, span.Int("user", int64(cfg.User)))
	sess.Tag(cfg.Campaign, 0)
	defer sess.End()

	s, err := openSession(ctx, cfg.endpoint(), sess)
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	res := Result{Registered: true}
	if cfg.AutoType != nil {
		cfg.TrueBid = cfg.AutoType(s.tasks)
	}

	// Compose the sealed bid on the intersection with the published tasks.
	taskIDs, pos := s.intersect(cfg.TrueBid)
	if len(taskIDs) == 0 {
		s.submitSpan(span.Str("error", "no_overlap"))
		return res, errors.New("agent: no published task intersects the user's task set")
	}
	if err := s.submit(&wire.Envelope{Type: wire.TypeBid, Campaign: cfg.Campaign, Bid: &wire.Bid{
		User:  int(cfg.User),
		Tasks: taskIDs,
		Cost:  cfg.TrueBid.Cost,
		PoS:   pos,
	}}, span.Int("tasks", int64(len(taskIDs)))); err != nil {
		return res, err
	}

	env, awaitSpan, err := s.award(wire.TypeAward)
	if err != nil {
		return res, err
	}
	res.Award = *env.Award
	res.Selected = env.Award.Selected
	selected := int64(0)
	if res.Selected {
		selected = 1
	}
	awaitSpan.EndWith(span.Int("selected", selected))
	if !res.Selected {
		return res, nil
	}

	attempt, succeeded := execute(stats.NewRand(cfg.Seed), cfg.TrueBid, taskIDs)
	res.Attempt = attempt
	env, err = s.report(&wire.Envelope{Type: wire.TypeReport, Report: &wire.Report{
		User:      int(cfg.User),
		Succeeded: succeeded,
	}}, wire.TypeSettle)
	if err != nil {
		return res, err
	}
	res.Settle = *env.Settle
	return res, nil
}

// endpoint is what both clients (Run and RunBatch) share: where and as whom
// to open a session, and the seed and tracer of its retry policy.
type endpoint struct {
	who      string // error prefix, e.g. "agent 3" or "aggregator 1000"
	addr     string
	campaign string
	user     auction.UserID // registration identity
	binary   bool
	timeout  time.Duration
	seed     int64
	spans    *span.Tracer
}

// session is one platform connection that got past registration.
type session struct {
	conn        net.Conn
	codec       *wire.Codec
	stop        func() bool
	span        *span.Span // the client-side agent.session root
	ep          endpoint
	tasks       []wire.TaskSpec
	published   map[auction.TaskID]bool
	submitStart time.Time
}

// openSession dials the platform, registers and reads the published tasks.
// The dial and submit phases complete before the server's trace context
// arrives on the tasks envelope, so their spans are recorded backdated
// (ChildSpanning) once sess has adopted the round's trace. A failed dial is
// ErrDial; a shard-moved rejection of the registration is ErrShardMoved.
func openSession(ctx context.Context, ep endpoint, sess *span.Span) (*session, error) {
	dialStart := time.Now()
	dialer := net.Dialer{Timeout: ep.timeout}
	conn, err := dialer.DialContext(ctx, "tcp", ep.addr)
	if err != nil {
		sess.ChildSpanning(dialStart, time.Since(dialStart), span.NameAgentDial,
			span.Str("error", "dial"))
		return nil, fmt.Errorf("%s: %w: %w", ep.who, ErrDial, err)
	}
	dialDur := time.Since(dialStart)
	s := &session{conn: conn, span: sess, ep: ep,
		// Honour context cancellation by closing the connection.
		stop: context.AfterFunc(ctx, func() { conn.Close() })}
	s.codec = wire.NewCodec(conn)
	if ep.binary {
		s.codec = wire.NewBinaryCodec(conn)
	}

	s.submitStart = time.Now()
	s.setDeadline()
	err = s.codec.Write(&wire.Envelope{Type: wire.TypeRegister, Campaign: ep.campaign,
		Register: &wire.Register{User: int(ep.user)}})
	step := "register"
	var env *wire.Envelope
	if err == nil {
		s.setDeadline()
		env, err = s.codec.Expect(wire.TypeTasks)
		step = "tasks"
	}
	if err != nil {
		sess.ChildSpanning(dialStart, dialDur, span.NameAgentDial)
		s.submitSpan(span.Str("error", step))
		s.close()
		if shardMoved(err) {
			err = fmt.Errorf("%w: %w", ErrShardMoved, err)
		}
		return nil, fmt.Errorf("%s: %s: %w", ep.who, step, err)
	}
	adoptTrace(sess, env.Trace)
	sess.ChildSpanning(dialStart, dialDur, span.NameAgentDial)
	s.tasks = env.Tasks.Tasks
	s.published = make(map[auction.TaskID]bool, len(s.tasks))
	for _, spec := range s.tasks {
		s.published[auction.TaskID(spec.ID)] = true
	}
	return s, nil
}

func (s *session) close() {
	s.stop()
	s.conn.Close()
}

func (s *session) setDeadline() { _ = s.conn.SetDeadline(time.Now().Add(s.ep.timeout)) }

// submitSpan records the backdated submit phase, register write to bid sent.
func (s *session) submitSpan(attrs ...span.Attr) {
	s.span.ChildSpanning(s.submitStart, time.Since(s.submitStart), span.NameAgentSubmit, attrs...)
}

// intersect composes a sealed bid's task list and PoS on the intersection of
// bid's task set with the published tasks.
func (s *session) intersect(bid auction.Bid) ([]int, map[int]float64) {
	var taskIDs []int
	pos := make(map[int]float64, len(bid.Tasks))
	for _, id := range bid.Tasks {
		if !s.published[id] {
			continue
		}
		taskIDs = append(taskIDs, int(id))
		pos[int(id)] = bid.PoS[id]
	}
	return taskIDs, pos
}

// label names a message type in error strings ("bid batch").
func label(t wire.MsgType) string { return strings.ReplaceAll(string(t), "_", " ") }

// submit sends the sealed bid (or bid batch) and ends the submit phase.
func (s *session) submit(env *wire.Envelope, done span.Attr) error {
	s.setDeadline()
	if err := s.codec.Write(env); err != nil {
		s.submitSpan(span.Str("error", string(env.Type)))
		return fmt.Errorf("%s: %s: %w", s.ep.who, label(env.Type), lostSession(err))
	}
	s.submitSpan(done)
	return nil
}

// award awaits the award envelope of type t inside an award_wait span, which
// the caller ends on success. The platform may take a while to gather all
// bids, so this step uses a generous deadline.
func (s *session) award(t wire.MsgType) (*wire.Envelope, *span.Span, error) {
	wait := s.span.Child(span.NameAgentAward)
	_ = s.conn.SetDeadline(time.Now().Add(10 * s.ep.timeout))
	env, err := s.codec.Expect(t)
	if err != nil {
		wait.EndWith(span.Str("error", string(t)))
		return nil, nil, fmt.Errorf("%s: %s: %w", s.ep.who, label(t), lostSession(err))
	}
	return env, wait, nil
}

// report sends the winners' execution reports and reads the settlement
// envelope of type settle, inside the settle span.
func (s *session) report(env *wire.Envelope, settle wire.MsgType, attrs ...span.Attr) (*wire.Envelope, error) {
	sp := s.span.Child(span.NameAgentSettle, attrs...)
	s.setDeadline()
	if err := s.codec.Write(env); err != nil {
		sp.EndWith(span.Str("error", string(env.Type)))
		return nil, fmt.Errorf("%s: %s: %w", s.ep.who, label(env.Type), err)
	}
	s.setDeadline()
	reply, err := s.codec.Expect(settle)
	if err != nil {
		sp.EndWith(span.Str("error", string(settle)))
		return nil, fmt.Errorf("%s: %s: %w", s.ep.who, label(settle), err)
	}
	sp.End()
	return reply, nil
}

// execute simulates a winner attempting every task it bid on, each
// succeeding with the TRUE PoS: one Bernoulli draw per task, in bid order.
func execute(rng *rand.Rand, truth auction.Bid, taskIDs []int) (map[auction.TaskID]bool, map[int]bool) {
	attempt := make(map[auction.TaskID]bool, len(taskIDs))
	succeeded := make(map[int]bool, len(taskIDs))
	for _, id := range taskIDs {
		ok := stats.Bernoulli(rng, truth.PoS[auction.TaskID(id)])
		attempt[auction.TaskID(id)] = ok
		succeeded[id] = ok
	}
	return attempt, succeeded
}
