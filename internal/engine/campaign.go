package engine

import (
	"errors"
	"fmt"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// CampaignConfig parameterizes one task campaign hosted by an engine.
type CampaignConfig struct {
	// ID names the campaign on the wire. The first campaign added to an
	// engine is also the default for legacy agents that send no campaign
	// field.
	ID string

	Tasks []auction.Task // tasks published to this campaign's agents

	// ExpectedBidders is how many bids a round collects before winner
	// determination starts.
	ExpectedBidders int

	// BidWindow bounds how long a round waits for the expected bidders once
	// its first bid lands; on expiry the auction runs with the bids at hand.
	// Zero means wait indefinitely.
	BidWindow time.Duration

	// Rounds is how many auction rounds the campaign serves before closing.
	// Zero means one round.
	Rounds int

	// Alpha is the EC reward scale (default mechanism.DefaultAlpha).
	Alpha float64
	// Epsilon is the single-task FPTAS parameter (default knapsack's).
	Epsilon float64
}

func (cc CampaignConfig) rounds() int {
	if cc.Rounds <= 0 {
		return 1
	}
	return cc.Rounds
}

// campaignState is the per-campaign lifecycle. A campaign cycles
// collecting → computing → settling per round and ends closed.
type campaignState int

const (
	stateCollecting campaignState = iota
	stateComputing
	stateSettling
	stateClosed
)

func (s campaignState) String() string {
	switch s {
	case stateCollecting:
		return "collecting"
	case stateComputing:
		return "computing"
	case stateSettling:
		return "settling"
	case stateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RoundResult summarizes one completed campaign round. A round whose bidders
// could not jointly meet the task requirements has a nil Outcome and a
// non-nil Err; the campaign lives on.
type RoundResult struct {
	Campaign string
	Round    int // 1-based

	Outcome     *mechanism.Outcome
	Bids        []auction.Bid
	Settlements map[auction.UserID]wire.Settle
	Err         error

	RoundLatency   time.Duration // first admitted bid → settled
	ComputeLatency time.Duration // winner-determination wall time
}

// round is the mutable state of one auction round; all fields are guarded by
// the owning campaign's mutex except outcome/err/computeLatency, which are
// written once before computed is closed and read only after it.
type round struct {
	index    int // 0-based
	bids     []auction.Bid
	bidders  map[auction.UserID]bool
	order    map[auction.UserID]int // user → bid index
	firstBid time.Time
	deadline *time.Timer

	computed       chan struct{} // closed once outcome/err are set
	outcome        *mechanism.Outcome
	err            error
	computeLatency time.Duration

	// span covers the whole round; phase covers the current lifecycle state
	// and is replaced at each transition. Both are written under the engine
	// lock (the compute handoff channel orders the worker's reads) and nil
	// when observability is disabled.
	span  *span.Span
	phase *span.Span

	pending     map[auction.UserID]bool // sessions owing a terminal action
	settlements map[auction.UserID]wire.Settle
}

// campaign is one registered campaign: its config, current round, and
// archive of completed rounds. Guarded by mu; lifecycle callbacks run
// outside the lock.
type campaign struct {
	cfg CampaignConfig
	eng *Engine

	// obs holds the campaign's metrics; every field is atomic, so recording
	// needs no lock (see internal/engine/obsexport.go).
	obs campaignMetrics

	// span is the campaign's root lifecycle span, started at registration and
	// ended when the campaign closes; nil when observability is disabled.
	span *span.Span

	// roundCtx archives each round's trace context (1-based round → context)
	// so replication frames shipped after the round settled can still join
	// its trace. Bounded by the campaign's configured round count. Guarded
	// by the engine lock; nil when observability is disabled.
	roundCtx map[int]span.TraceContext

	// The engine's mutex guards everything below (campaign state is small
	// and rounds are coarse-grained; a shared lock keeps the registry and
	// state machine consistent without lock-ordering hazards).
	state      campaignState
	roundsLeft int
	cur        *round
	results    []RoundResult
}

// admission verdicts, returned to the session through the ingestion queue.
var (
	errCampaignBusy   = errors.New("campaign is computing or settling; bidding closed")
	errCampaignClosed = errors.New("campaign is closed")
	errDuplicateUser  = errors.New("duplicate user in this round")
)

// openRoundLocked starts the next round in the collecting state. The caller
// holds the engine lock and must emit the round-open callback after
// unlocking.
func (c *campaign) openRoundLocked() {
	c.cur = &round{
		index:       c.cfg.rounds() - c.roundsLeft,
		bidders:     make(map[auction.UserID]bool),
		order:       make(map[auction.UserID]int),
		computed:    make(chan struct{}),
		settlements: make(map[auction.UserID]wire.Settle),
	}
	c.state = stateCollecting
	c.cur.span = c.span.Child(span.NameRound).Tag(c.cfg.ID, c.cur.index+1)
	c.cur.phase = c.cur.span.Child(span.NamePhaseCollecting)
	if ctx := c.cur.span.Context(); ctx.Valid() {
		if c.roundCtx == nil {
			c.roundCtx = make(map[int]span.TraceContext, c.cfg.rounds())
		}
		c.roundCtx[c.cur.index+1] = ctx
	}
	// On recovery this reopens the in-flight round: the fresh round_opened
	// event supersedes the torn round's partial bids in the log.
	c.eng.emitLocked(store.Event{Type: store.EventRoundOpened, Campaign: c.cfg.ID,
		Round: c.cur.index + 1})
}

// admitLocked records one bid into the current round, arming the bid-window
// timer on the first bid and triggering winner determination when the
// expected count is reached. It returns the round the bid joined so the
// session can await its outcome.
func (c *campaign) admitLocked(bid auction.Bid) (*round, error) {
	switch c.state {
	case stateClosed:
		return nil, errCampaignClosed
	case stateComputing, stateSettling:
		return nil, errCampaignBusy
	}
	rd := c.cur
	if rd.bidders[bid.User] {
		return nil, errDuplicateUser
	}
	if err := auction.ValidateBid(bid, c.cfg.Tasks); err != nil {
		return nil, err
	}
	rd.bidders[bid.User] = true
	rd.order[bid.User] = len(rd.bids)
	rd.bids = append(rd.bids, bid)
	admitted := bid
	c.eng.emitLocked(store.Event{Type: store.EventBidAdmitted, Campaign: c.cfg.ID,
		Round: rd.index + 1, Bid: &admitted})
	if len(rd.bids) == 1 {
		rd.firstBid = time.Now()
		if c.cfg.BidWindow > 0 {
			rd.deadline = time.AfterFunc(c.cfg.BidWindow, func() { c.windowExpired(rd) })
		}
	}
	if len(rd.bids) >= c.cfg.ExpectedBidders {
		c.startComputeLocked(rd)
	}
	return rd, nil
}

// admitBatchLocked records a batch of bids under the single lock acquisition
// the admitter already holds — the batched fan-in path's whole point: one
// lock round trip amortized over the frame. Verdicts are per bid; all
// admitted bids join the same round. If the batch itself fills the round
// mid-way (ExpectedBidders reached), the remainder is rejected busy, exactly
// as late single bids would be.
func (c *campaign) admitBatchLocked(bids []auction.Bid) (*round, []error) {
	verdicts := make([]error, len(bids))
	var rd *round
	for i := range bids {
		r, err := c.admitLocked(bids[i])
		verdicts[i] = err
		if err == nil && rd == nil {
			rd = r
		}
	}
	return rd, verdicts
}

// windowExpired fires when a round's bid window elapses: the auction runs
// with the bids at hand.
func (c *campaign) windowExpired(rd *round) {
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	if c.cur != rd || c.state != stateCollecting {
		return // the round already advanced
	}
	c.startComputeLocked(rd)
}

// startComputeLocked hands the round to the winner-determination pool. It
// stops the bid-window timer so an advanced round never leaks one.
func (c *campaign) startComputeLocked(rd *round) {
	if rd.deadline != nil {
		rd.deadline.Stop()
		rd.deadline = nil
	}
	c.state = stateComputing
	rd.phase.EndWith(span.Int("bids", int64(len(rd.bids))))
	rd.phase = rd.span.Child(span.NamePhaseComputing)
	// The compute queue has one slot per campaign and a campaign has at most
	// one round in flight, so this send never blocks.
	c.eng.compute <- computeJob{camp: c, rd: rd}
}

// runWinnerDetermination executes the mechanism for one round on a worker
// goroutine, then moves the campaign to settling and wakes the round's
// sessions.
func (c *campaign) runWinnerDetermination(rd *round) {
	wd := rd.phase.Child(span.NameWD, span.Int("bids", int64(len(rd.bids))))
	start := time.Now()
	outcome, err := computeOutcome(c.cfg, rd.bids, wd, c.eng.cfg.adjuster())
	elapsed := time.Since(start)
	switch {
	case err != nil:
		wd.EndWith(span.Str("error", err.Error()))
	default:
		wd.EndWith(
			span.Int("winners", int64(len(outcome.Selected))),
			span.Float("social_cost", outcome.SocialCost),
		)
	}

	c.eng.mu.Lock()
	rd.outcome = outcome
	rd.err = err
	rd.computeLatency = elapsed
	rd.pending = make(map[auction.UserID]bool, len(rd.bidders))
	for user := range rd.bidders {
		rd.pending[user] = true
	}
	c.state = stateSettling
	rd.phase.End()
	rd.phase = rd.span.Child(span.NamePhaseSettling)
	c.eng.emitLocked(store.Event{Type: store.EventWinnersDetermined, Campaign: c.cfg.ID,
		Round: rd.index + 1, Outcome: outcome, Err: errString(err)})
	c.eng.mu.Unlock()
	c.eng.recordCompute(c, outcome, elapsed)
	close(rd.computed)
}

// computeOutcome runs the paper's mechanism on the collected bids. The
// mechanism emits its allocation and critical-bid spans under wd (a nil wd
// disables them). A non-nil adj discounts declared PoS before the
// mechanism runs. Costs stay declared, but the mechanism prices the
// critical PoS and the EC reward pair on the discounted PoS, which can
// make an over-claim profitable within a round (ROADMAP: "The reputation
// discount breaks strategy-proofness within a round").
func computeOutcome(cc CampaignConfig, bids []auction.Bid, wd *span.Span,
	adj mechanism.PoSAdjuster) (*mechanism.Outcome, error) {
	a, err := auction.New(cc.Tasks, bids)
	if err != nil {
		return nil, err
	}
	var m mechanism.Mechanism
	if a.SingleTask() {
		m = &mechanism.SingleTask{Epsilon: cc.Epsilon, Alpha: cc.Alpha, Trace: wd, Adjuster: adj}
	} else {
		m = &mechanism.MultiTask{Alpha: cc.Alpha, Trace: wd, Adjuster: adj}
	}
	return m.Run(a)
}

// sessionDone records a session's terminal action for its round: settled
// carries the settlement of a reporting winner; nil means the session ended
// without one (loser, vanished winner, or failed round). When the last
// pending session finishes, the round is finalized.
func (c *campaign) sessionDone(rd *round, user auction.UserID, settled *wire.Settle) {
	c.eng.mu.Lock()
	if !rd.pending[user] {
		c.eng.mu.Unlock()
		return
	}
	delete(rd.pending, user)
	if settled != nil {
		rd.settlements[user] = *settled
		settle := *settled
		c.eng.emitLocked(store.Event{Type: store.EventReportReceived, Campaign: c.cfg.ID,
			Round: rd.index + 1, User: int(user), Settle: &settle})
	}
	if len(rd.pending) > 0 {
		c.eng.mu.Unlock()
		return
	}
	result, opened := c.finalizeLocked(rd)
	c.eng.mu.Unlock()

	c.eng.commitStore() // round boundary: kick group commit off the hot path
	c.eng.recordRound(c, result)
	if c.eng.cfg.OnRound != nil {
		c.eng.cfg.OnRound(result)
	}
	if opened {
		if c.eng.cfg.OnRoundOpen != nil {
			c.eng.cfg.OnRoundOpen(c.cfg.ID, result.Round+1)
		}
	} else {
		c.eng.campaignFinished()
	}
}

// finalizeLocked archives the settled round and either opens the next round
// or closes the campaign. It reports whether a new round opened; callbacks
// and metrics are the caller's job (outside the lock).
func (c *campaign) finalizeLocked(rd *round) (RoundResult, bool) {
	if rd.deadline != nil { // defensive: a settled round never needs its timer
		rd.deadline.Stop()
		rd.deadline = nil
	}
	result := RoundResult{
		Campaign:       c.cfg.ID,
		Round:          rd.index + 1,
		Outcome:        rd.outcome,
		Bids:           rd.bids,
		Settlements:    rd.settlements,
		Err:            rd.err,
		RoundLatency:   time.Since(rd.firstBid),
		ComputeLatency: rd.computeLatency,
	}
	rd.phase.EndWith(span.Int("settlements", int64(len(rd.settlements))))
	roundAttrs := []span.Attr{span.Int("bids", int64(len(rd.bids)))}
	if result.Outcome != nil {
		var payment float64
		for _, s := range rd.settlements {
			payment += s.Reward
		}
		roundAttrs = append(roundAttrs,
			span.Int("winners", int64(len(result.Outcome.Selected))),
			span.Float("payment", payment))
	}
	if result.Err != nil {
		roundAttrs = append(roundAttrs, span.Str("error", result.Err.Error()))
	}
	rd.span.EndWith(roundAttrs...)
	c.results = append(c.results, result)
	c.roundsLeft--
	c.eng.emitLocked(store.Event{Type: store.EventRoundSettled, Campaign: c.cfg.ID,
		Round: rd.index + 1, Err: errString(rd.err),
		RoundNanos: int64(result.RoundLatency), ComputeNanos: int64(result.ComputeLatency)})
	c.eng.checkpointReputationLocked(c, rd)
	if c.roundsLeft > 0 {
		c.openRoundLocked()
		return result, true
	}
	c.state = stateClosed
	c.cur = nil
	c.span.EndWith(span.Int("rounds_completed", int64(len(c.results))))
	c.eng.emitLocked(store.Event{Type: store.EventCampaignFinished, Campaign: c.cfg.ID})
	return result, false
}

// stopTimersLocked releases the current round's bid-window timer, if any;
// called on engine shutdown so cancelled rounds don't leak timers.
func (c *campaign) stopTimersLocked() {
	if c.cur != nil && c.cur.deadline != nil {
		c.cur.deadline.Stop()
		c.cur.deadline = nil
	}
}
