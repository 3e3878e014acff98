// Package engine implements a long-lived, multi-campaign auction engine: a
// single listener multiplexing many concurrent task campaigns, each running
// the paper's sealed-bid fault-tolerant auction over the wire protocol of
// internal/wire.
//
// Architecture:
//
//   - a campaign registry keyed by campaign ID; each campaign owns its task
//     set, bid window, and per-round state machine
//     (collecting → computing → settling → closed);
//   - a bid-ingestion queue with explicit backpressure: sessions enqueue
//     admissions and are rejected with a reason when the queue is full or
//     the campaign is not collecting;
//   - a bounded worker pool that runs winner determination off the accept
//     path, so a slow mechanism never blocks bid intake for other campaigns;
//   - counters and latency histograms exposed through an expvar-style
//     Snapshot.
//
// Wire compatibility: agents route to a campaign with the optional campaign
// field on wire envelopes; a legacy agent that sends no campaign is served
// by the engine's default (first-registered) campaign.
package engine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// Config parameterizes an engine.
type Config struct {
	// NodeID names this engine's node in distributed traces: it is stamped
	// into every lifecycle span and rides outgoing wire envelopes as the
	// trace context's node, so obsctl stitch can join this engine's journal
	// with agent, router, and follower journals. Empty means anonymous
	// (single-node deployments keep their old journals byte-for-byte).
	NodeID string

	// Workers sizes the winner-determination pool. Zero means
	// min(GOMAXPROCS, 8).
	Workers int

	// QueueDepth caps the bid-ingestion queue; a session whose bid cannot
	// be enqueued is rejected with a "queue full" reason. Zero means 256.
	QueueDepth int

	// ConnTimeout bounds per-message I/O with one agent. Zero means
	// 30 seconds.
	ConnTimeout time.Duration

	// Store, if set, receives every campaign state transition as a typed
	// event (see internal/store). Append runs under the engine lock, so the
	// store must be quick and must never call back into the engine; the
	// engine calls Commit once per settled round, outside the lock. Nil
	// keeps today's in-memory-only behaviour at zero cost.
	Store store.Store

	// OnRound, if set, observes every settled round. It may be called
	// concurrently for different campaigns and must be quick.
	OnRound func(RoundResult)

	// OnRoundOpen, if set, is called when a campaign round opens for bids
	// (round is 1-based). Initial rounds are reported when Serve starts.
	OnRoundOpen func(campaign string, round int)

	// SpanSinks attaches additional sinks (typically a durable span.Journal)
	// to the engine's lifecycle tracer. The in-memory ring behind
	// /debug/spans (span.DefaultRingCapacity records) is always attached;
	// sinks listed here receive the same records. Ignored when
	// DisableObservability is set.
	SpanSinks []span.Sink

	// DisableObservability turns the metrics and tracing layer into a no-op
	// sink: no counters, histograms, or spans are recorded. Exists
	// so the overhead of the instrumented path can be benchmarked against a
	// true baseline; production engines should leave it false.
	DisableObservability bool

	// Reputation, if set, closes the learning loop: the engine feeds it
	// every emitted event (before the durable store, so in-memory engines
	// learn too), uses it as the winner-determination PoS adjuster (see
	// mechanism.PoSAdjuster), and emits a durable reputation_checkpoint
	// event after every settled round so recovery and failover resume with
	// identical learned state. Observe runs under the engine lock; the
	// store's own RWMutex is a leaf, so the ordering is safe. Nil runs
	// winner determination on declared PoS unchanged.
	Reputation *reputation.Store

	// AuditStatus, if set, supplies the live auditor's summary for the
	// engine's Readiness report: degraded campaigns are flagged and the
	// status rides along so /readyz can answer 503 on a violated invariant
	// or breaching SLO. The engine deliberately takes a closure, not an
	// auditor — the auditor lives above the engine in the import graph
	// (it replays platform rules) and is wired in by platformd or a
	// cluster node. Must be quick and safe to call concurrently.
	AuditStatus func() *obs.AuditStatus
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 256
}

// adjuster resolves the PoS adjuster for winner determination: the
// reputation store, else none. A nil store must come back as a nil
// interface, not a non-nil PoSAdjuster wrapping a nil *reputation.Store.
func (c Config) adjuster() mechanism.PoSAdjuster {
	if c.Reputation != nil {
		return c.Reputation
	}
	return nil
}

func (c Config) connTimeout() time.Duration {
	if c.ConnTimeout <= 0 {
		return 30 * time.Second
	}
	return c.ConnTimeout
}

// ingestReq asks the admitter to record a batch of bids into its campaign's
// current round under one lock acquisition. The admitter fills in the
// batch's round and verdicts, then signals done (buffered, never blocks the
// admitter). Single-bid sessions send a one-element batch.
type ingestReq struct {
	batch *DirectBatch
	done  chan struct{}
}

// computeJob hands one full round to the winner-determination pool.
type computeJob struct {
	camp *campaign
	rd   *round
}

// Engine multiplexes many concurrent campaigns over one listener. Configure
// with New, register campaigns with AddCampaign, bind with Listen, then run
// Serve; Serve returns when every campaign has closed or the context is
// cancelled.
type Engine struct {
	cfg      Config
	listener net.Listener

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // registration order; order[0] is the default campaign
	open      int      // campaigns not yet closed
	serving   bool

	storeErr error // first error from cfg.Store; emission stops once set

	ingest    chan ingestReq
	compute   chan computeJob
	allClosed chan struct{}
	closeOnce sync.Once // guards close(allClosed): campaigns may all be closed before Serve

	metrics  metrics
	spans    *span.Tracer // nil when DisableObservability is set
	spanRing *span.Ring   // backs /debug/spans and /debug/rounds; nil when disabled
	wg       sync.WaitGroup
}

// New creates an empty engine. Add at least one campaign before Serve.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:       cfg,
		campaigns: make(map[string]*campaign),
		allClosed: make(chan struct{}),
	}
	if !cfg.DisableObservability {
		e.spanRing = span.NewRing(span.DefaultRingCapacity)
		sinks := append([]span.Sink{e.spanRing}, cfg.SpanSinks...)
		e.spans = span.New(sinks...).SetNode(cfg.NodeID)
	}
	return e
}

// AddCampaign registers a campaign. All campaigns must be added before
// Serve; the first one added is the default for legacy campaign-less agents.
func (e *Engine) AddCampaign(cc CampaignConfig) error {
	if cc.ID == "" {
		return errors.New("engine: campaign ID must be non-empty")
	}
	if len(cc.Tasks) == 0 {
		return fmt.Errorf("engine: campaign %q: no tasks configured", cc.ID)
	}
	seen := make(map[auction.TaskID]bool, len(cc.Tasks))
	for _, task := range cc.Tasks {
		if task.Requirement <= 0 || task.Requirement >= 1 {
			return fmt.Errorf("engine: campaign %q: task %d requirement %g outside (0, 1)",
				cc.ID, task.ID, task.Requirement)
		}
		if seen[task.ID] {
			return fmt.Errorf("engine: campaign %q: duplicate task %d", cc.ID, task.ID)
		}
		seen[task.ID] = true
	}
	if cc.ExpectedBidders < 1 {
		return fmt.Errorf("engine: campaign %q: expected bidders %d must be positive",
			cc.ID, cc.ExpectedBidders)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.serving {
		return fmt.Errorf("engine: campaign %q: cannot add campaigns while serving", cc.ID)
	}
	if _, dup := e.campaigns[cc.ID]; dup {
		return fmt.Errorf("engine: duplicate campaign %q", cc.ID)
	}
	c := &campaign{cfg: cc, eng: e, roundsLeft: cc.rounds()}
	c.span = e.spans.Start(span.NameCampaign,
		span.Int("tasks", int64(len(cc.Tasks))),
		span.Int("rounds", int64(cc.rounds())),
		span.Int("expected_bidders", int64(cc.ExpectedBidders)),
	).Tag(cc.ID, 0)
	e.emitLocked(store.Event{Type: store.EventCampaignRegistered, Campaign: cc.ID,
		Spec: specFromConfig(cc)})
	c.openRoundLocked()
	e.campaigns[cc.ID] = c
	e.order = append(e.order, cc.ID)
	e.open++
	return nil
}

// Listen binds the engine to addr (e.g. "127.0.0.1:0").
func (e *Engine) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("engine: listen %s: %w", addr, err)
	}
	e.listener = l
	return nil
}

// Addr reports the bound address; Listen must have succeeded.
func (e *Engine) Addr() net.Addr {
	return e.listener.Addr()
}

// Serve accepts agent connections and runs every campaign to completion. It
// returns nil once all campaigns have closed, or the context's error on
// cancellation. Listen must be called first; Serve may be called once.
func (e *Engine) Serve(ctx context.Context) error {
	if e.listener == nil {
		return errors.New("engine: Serve before Listen")
	}
	return e.run(ctx, true)
}

// ServeLocal runs the engine without a listener: the admitter and the
// compute pool start, but bids arrive only through SubmitBids (in-process
// fan-in, no TCP). Same completion semantics as Serve.
func (e *Engine) ServeLocal(ctx context.Context) error {
	return e.run(ctx, false)
}

func (e *Engine) run(ctx context.Context, accept bool) error {
	e.mu.Lock()
	if e.serving {
		e.mu.Unlock()
		return errors.New("engine: Serve called twice")
	}
	if len(e.order) == 0 {
		e.mu.Unlock()
		return errors.New("engine: no campaigns registered")
	}
	e.serving = true
	// One slot per campaign: a campaign has at most one round in flight, so
	// handing a round to the pool never blocks (see startComputeLocked).
	e.compute = make(chan computeJob, len(e.order))
	e.ingest = make(chan ingestReq, e.cfg.queueDepth())
	// Report each campaign's actually-open round: 1 for fresh campaigns,
	// later after Restore. Restored-finished campaigns have no open round.
	type openRound struct {
		id    string
		round int
	}
	var initial []openRound
	for _, id := range e.order {
		if c := e.campaigns[id]; c.cur != nil {
			initial = append(initial, openRound{id: id, round: c.cur.index + 1})
		}
	}
	openCount := e.open
	e.mu.Unlock()
	if accept {
		defer e.listener.Close()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if openCount == 0 {
		// Every restored campaign was already finished; nothing to serve.
		e.closeOnce.Do(func() { close(e.allClosed) })
	}

	if e.cfg.OnRoundOpen != nil {
		for _, or := range initial {
			e.cfg.OnRoundOpen(or.id, or.round)
		}
	}

	// The admitter serializes bid ingestion: FIFO admission with the queue
	// as the buffer, backpressure at the caller (see admit).
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.admitLoop(ctx)
	}()
	for i := 0; i < e.cfg.workers(); i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.computeLoop(ctx)
		}()
	}

	acceptErr := make(chan error, 1)
	if accept {
		go func() {
			select {
			case <-ctx.Done():
			case <-e.allClosed:
			}
			e.listener.Close() // unblock Accept
		}()

		go func() {
			for {
				conn, err := e.listener.Accept()
				if err != nil {
					acceptErr <- err
					return
				}
				e.wg.Add(1)
				go func() {
					defer e.wg.Done()
					e.handle(ctx, conn)
				}()
			}
		}()
	}

	var retErr error
	select {
	case <-ctx.Done():
		retErr = ctx.Err()
	case <-e.allClosed:
	}
	cancel()
	if accept {
		<-acceptErr
	}
	e.stopTimers()
	e.wg.Wait()
	if retErr == nil {
		retErr = e.StoreErr() // a durable campaign that silently lost its log did not succeed
	}
	return retErr
}

func (e *Engine) admitLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case req := <-e.ingest:
			b := req.batch
			e.mu.Lock()
			b.rd, b.Verdicts = b.camp.admitBatchLocked(b.bids)
			e.mu.Unlock()
			req.done <- struct{}{}
		}
	}
}

func (e *Engine) computeLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-e.compute:
			job.camp.runWinnerDetermination(job.rd)
		}
	}
}

// handle serves one agent session as a codec adapter over admit and settle.
// It negotiates the codec from the first byte (binary version byte or legacy
// JSON '{'), registers the session (resolving the campaign), publishes the
// tasks, and reads the sealed bid — a `bid`, or a `bid_batch` from an
// aggregator; a single bid is a batch of one. It admits the batch, awaits
// the round, writes the awards in the session's framing, reads the winners'
// reports and settles. Every sessionDone call (inside settle) happens before
// the session's terminal envelope is written, so a client that has read its
// last message finds its round settled and, if rounds remain, the next one
// open.
func (e *Engine) handle(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	// Honour engine shutdown by closing the connection under the session.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	timeout := e.cfg.connTimeout()
	setDeadline := func() { _ = conn.SetDeadline(time.Now().Add(timeout)) }

	setDeadline()
	codec, err := wire.NewServerCodec(conn)
	if err != nil {
		return // connection died before the first byte
	}
	e.recordWireSession(codec.Binary())

	env, err := codec.Expect(wire.TypeRegister)
	if err != nil {
		codec.WriteError(fmt.Sprintf("expected register: %v", err))
		return
	}
	rpcStart := time.Now()
	user := auction.UserID(env.Register.User)
	camp := e.lookup(env.Campaign)
	if camp == nil {
		codec.WriteError(fmt.Sprintf("unknown campaign %q", env.Campaign))
		return
	}
	campID := camp.cfg.ID

	// Publish the campaign's tasks, carrying the open round's trace context
	// so the agent's client-side session span parents under the round.
	specs := make([]wire.TaskSpec, len(camp.cfg.Tasks))
	for i, task := range camp.cfg.Tasks {
		specs[i] = wire.TaskSpec{ID: int(task.ID), Requirement: task.Requirement}
	}
	setDeadline()
	if err := codec.Write(&wire.Envelope{Type: wire.TypeTasks, Campaign: campID,
		Trace: e.curRoundWireTrace(camp),
		Tasks: &wire.Tasks{Tasks: specs}}); err != nil {
		return
	}
	e.recordRPC(&e.metrics.rpcRegister, rpcStart)

	// Collect the sealed bid — or a whole batch from an aggregator.
	setDeadline()
	env, err = codec.Read()
	if err != nil {
		codec.WriteError(fmt.Sprintf("expected bid: %v", err))
		return
	}
	if env.Campaign != "" && env.Campaign != campID {
		codec.WriteError(fmt.Sprintf("bid campaign %q mismatches session campaign %q",
			env.Campaign, campID))
		return
	}
	bids, err := sessionBids(env, user)
	if err != nil {
		codec.WriteError(err.Error())
		return
	}
	batched := env.Type == wire.TypeBidBatch
	rpcBid, rpcReport := &e.metrics.rpcBid, &e.metrics.rpcReport
	if batched {
		rpcBid, rpcReport = &e.metrics.rpcBidBatch, &e.metrics.rpcReportBatch
		e.recordBidBatch(len(bids))
	}

	rpcStart = time.Now()
	d, err := e.admit(ctx, camp, bids, false)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			codec.WriteError(err.Error())
		}
		return
	}
	e.recordRPC(rpcBid, rpcStart)
	if !batched && d.Verdicts[0] != nil {
		codec.WriteError(fmt.Sprintf("bid rejected: %v", d.Verdicts[0]))
		return
	}

	// From settlement on, engine shutdown must not cut the session off: the
	// settlement that closes the last campaign also ends Serve, and the
	// session still owes its client the terminal write, which the connection
	// deadline bounds.
	settle := func(report func(auction.Bid, mechanism.Award) (bool, bool)) []wire.UserSettle {
		stop()
		return d.settle(report)
	}

	// Await the round outcome. A batch with nothing admitted has no round:
	// its award_batch carries only the inline verdicts.
	if err := d.Await(ctx); err != nil {
		if ctx.Err() != nil {
			return
		}
		settle(nil)
		codec.WriteError(fmt.Sprintf("auction failed: %v", err))
		return
	}
	awards, winners := d.awards()
	awardEnv := &wire.Envelope{Type: wire.TypeAwardBatch, Campaign: campID,
		AwardBatch: &wire.AwardBatch{Awards: awards}}
	if !batched {
		awardEnv = &wire.Envelope{Type: wire.TypeAward, Campaign: campID, Award: &awards[0].Award}
	}
	// send writes and flushes an envelope of the round, stamping the round's
	// trace context at send time.
	send := func(env *wire.Envelope) error {
		if d.rd != nil {
			env.Trace = wireTrace(d.rd.span.Context())
		}
		setDeadline()
		if err := codec.Write(env); err != nil {
			return err
		}
		return codec.Flush()
	}
	if winners == 0 {
		settle(nil) // no reports owed: the awards are the terminal write
		_ = send(awardEnv)
		return
	}
	if send(awardEnv) != nil {
		settle(nil)
		return
	}

	// Collect the winners' execution reports and settle.
	setDeadline()
	reports, err := readReports(codec, bids, batched)
	if err != nil {
		settle(nil)
		return
	}
	rpcStart = time.Now()
	settles := settle(func(bid auction.Bid, _ mechanism.Award) (bool, bool) {
		success, reported := reports[bid.User]
		return success, reported
	})
	settleEnv := &wire.Envelope{Type: wire.TypeSettleBatch, Campaign: campID,
		SettleBatch: &wire.SettleBatch{Settles: settles}}
	if !batched {
		settleEnv = &wire.Envelope{Type: wire.TypeSettle, Campaign: campID, Settle: &settles[0].Settle}
	}
	_ = send(settleEnv)
	e.recordRPC(rpcReport, rpcStart)
}

// sessionBids converts a session's bid frame into the batch it admits: a
// `bid` is a batch of one and must name the registered user; a `bid_batch`
// carries an aggregator's agents, each bid naming its own.
func sessionBids(env *wire.Envelope, user auction.UserID) ([]auction.Bid, error) {
	switch env.Type {
	case wire.TypeBid:
		bid, err := bidFromWire(env.Bid)
		if err != nil {
			return nil, err
		}
		if bid.User != user {
			return nil, errors.New("bid user mismatches registration")
		}
		return []auction.Bid{bid}, nil
	case wire.TypeBidBatch:
		bids := make([]auction.Bid, len(env.BidBatch.Bids))
		for i := range env.BidBatch.Bids {
			var err error
			if bids[i], err = bidFromWire(&env.BidBatch.Bids[i]); err != nil {
				return nil, fmt.Errorf("bid %d: %v", i, err)
			}
		}
		return bids, nil
	}
	return nil, fmt.Errorf("expected bid, got %q", env.Type)
}

// readReports reads the winners' execution reports in the session's framing
// — one `report` for a per-bid session, which settles the session's own bid,
// or one `report_batch` — and maps each reporting user to whether any of its
// tasks succeeded. The first report for a user counts; reports from users
// that did not win are ignored by settle.
func readReports(codec *wire.Codec, bids []auction.Bid, batched bool) (map[auction.UserID]bool, error) {
	if !batched {
		env, err := codec.Expect(wire.TypeReport)
		if err != nil {
			return nil, err
		}
		return map[auction.UserID]bool{bids[0].User: anySucceeded(env.Report.Succeeded)}, nil
	}
	env, err := codec.Expect(wire.TypeReportBatch)
	if err != nil {
		return nil, err
	}
	reports := make(map[auction.UserID]bool, len(env.ReportBatch.Reports))
	for i := range env.ReportBatch.Reports {
		r := &env.ReportBatch.Reports[i]
		if _, dup := reports[auction.UserID(r.User)]; !dup {
			reports[auction.UserID(r.User)] = anySucceeded(r.Succeeded)
		}
	}
	return reports, nil
}

func anySucceeded(succeeded map[int]bool) bool {
	for _, ok := range succeeded {
		if ok {
			return true
		}
	}
	return false
}

// wireTrace converts a span's trace context for the wire, stamping the send
// time for cross-node clock-offset estimation. Invalid contexts (tracing
// disabled) become nil, so the envelope encodes exactly as before.
func wireTrace(ctx span.TraceContext) *wire.TraceContext {
	if !ctx.Valid() {
		return nil
	}
	return &wire.TraceContext{
		TraceID:       ctx.TraceID,
		SpanID:        ctx.SpanID,
		Node:          ctx.Node,
		SentUnixNanos: time.Now().UnixNano(),
	}
}

// curRoundWireTrace snapshots the campaign's open round's trace context for
// an outgoing envelope; nil when tracing is off or no round is open.
func (e *Engine) curRoundWireTrace(c *campaign) *wire.TraceContext {
	if e.spans == nil {
		return nil
	}
	e.mu.Lock()
	var ctx span.TraceContext
	if c.cur != nil {
		ctx = c.cur.span.Context()
	}
	e.mu.Unlock()
	return wireTrace(ctx)
}

// RoundTrace resolves a round's trace context — what the replication layer
// stamps onto event frames so a follower's apply spans join the round's
// trace. Contexts stay resolvable after the round settles; ok is false for
// unknown campaigns/rounds or when tracing is disabled.
func (e *Engine) RoundTrace(campaign string, round int) (span.TraceContext, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.campaigns[campaign]
	if c == nil {
		return span.TraceContext{}, false
	}
	ctx, ok := c.roundCtx[round]
	return ctx, ok
}

// lookup resolves a campaign ID; the empty ID (legacy agents) resolves to
// the default campaign.
func (e *Engine) lookup(id string) *campaign {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id == "" {
		if len(e.order) == 0 {
			return nil
		}
		return e.campaigns[e.order[0]]
	}
	return e.campaigns[id]
}

// campaignFinished is called (outside the lock) when a campaign closes; the
// last one completes Serve.
func (e *Engine) campaignFinished() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.open--
	if e.open == 0 {
		e.closeOnce.Do(func() { close(e.allClosed) })
	}
}

// stopTimers releases every campaign's pending bid-window timer, so rounds
// cancelled mid-collection don't leak timers.
func (e *Engine) stopTimers() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.campaigns {
		c.stopTimersLocked()
	}
}

// Results returns every campaign's completed rounds, keyed by campaign ID,
// in round order. Safe to call at any time; the slices are copies.
func (e *Engine) Results() map[string][]RoundResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]RoundResult, len(e.campaigns))
	for id, c := range e.campaigns {
		out[id] = append([]RoundResult(nil), c.results...)
	}
	return out
}

// Snapshot captures the engine's counters and latency histograms, both
// engine-wide and per campaign.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	openCount := e.open
	total := len(e.campaigns)
	var queueLen, queueCap int
	if e.ingest != nil {
		queueLen, queueCap = len(e.ingest), cap(e.ingest)
	} else {
		queueCap = e.cfg.queueDepth()
	}
	campaigns := make(map[string]CampaignSnapshot, total)
	for id, c := range e.campaigns {
		campaigns[id] = c.snapshotLocked()
	}
	e.mu.Unlock()
	m := &e.metrics
	s := Snapshot{
		WireSessionsJSON:   m.wireSessionsJSON.Load(),
		WireSessionsBinary: m.wireSessionsBinary.Load(),
		BidBatches:         m.bidBatches.Load(),
		BatchedBids:        m.batchedBids.Load(),
		CampaignsOpen:      openCount,
		CampaignsClosed:    total - openCount,
		QueueLen:           queueLen,
		QueueCap:           queueCap,
		Campaigns:          campaigns,
	}
	// The engine-wide bid, round and latency figures are the per-campaign
	// ones summed and merged. That is exact: every bid verdict and round
	// belongs to a campaign, and campaigns are never dropped.
	rounds := make([]HistogramSnapshot, 0, len(campaigns))
	computes := make([]HistogramSnapshot, 0, len(campaigns))
	for _, c := range campaigns {
		s.BidsAccepted += c.BidsAccepted
		s.BidsRejected += c.BidsRejected
		s.RoundsCompleted += c.RoundsCompleted
		s.RoundsFailed += c.RoundsFailed
		rounds = append(rounds, c.RoundLatency)
		computes = append(computes, c.ComputeLatency)
	}
	s.RoundLatency = mergeHistograms(rounds)
	s.ComputeLatency = mergeHistograms(computes)
	return s
}

// bidFromWire converts and sanity-checks a wire bid.
func bidFromWire(b *wire.Bid) (auction.Bid, error) {
	if b == nil {
		return auction.Bid{}, errors.New("engine: nil bid")
	}
	tasks := make([]auction.TaskID, 0, len(b.Tasks))
	pos := make(map[auction.TaskID]float64, len(b.PoS))
	for _, id := range b.Tasks {
		tasks = append(tasks, auction.TaskID(id))
	}
	for id, p := range b.PoS {
		pos[auction.TaskID(id)] = p
	}
	return auction.NewBid(auction.UserID(b.User), tasks, b.Cost, pos), nil
}
