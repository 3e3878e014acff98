package agent

import (
	"context"
	"fmt"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/stats"
	"crowdsense/internal/wire"
)

// BatchConfig parameterizes an aggregator session: one connection carrying
// many simulated agents' bids in a single bid_batch frame. This is the
// fan-in coalescing mode — a fleet host speaks for N agents at wire cost
// O(frames), not O(agents).
type BatchConfig struct {
	Addr string

	// Campaign targets one campaign; empty means the platform's default.
	Campaign string

	// Aggregator is the session's registration identity. It does not bid
	// itself; each carried bid names its own agent.
	Aggregator auction.UserID

	// Bids are the carried agents' true types, one per agent. The aggregator
	// bids each agent's intersection with the published tasks and simulates
	// execution with the TRUE PoS, exactly as agent.Run does.
	Bids []auction.Bid

	// AutoTypes, when set, derives the carried agents' true types from the
	// published tasks instead of Bids — the batch analogue of
	// Config.AutoType, used by fleet tooling.
	AutoTypes func(tasks []wire.TaskSpec) []auction.Bid

	// Seed drives the execution simulation.
	Seed int64

	// Timeout bounds each I/O step; zero means 30 seconds.
	Timeout time.Duration

	// Binary selects the binary wire codec (see Config.Binary). Aggregation
	// and codec are orthogonal: a JSON aggregator batches fine, just slower.
	Binary bool

	// Spans, when non-nil, records client-side spans for the session, same
	// shape as Config.Spans: an agent.session root adopting the round's
	// trace context, with dial / submit / award_wait / settle children.
	Spans *span.Tracer
}

func (c BatchConfig) endpoint() endpoint {
	return endpoint{who: fmt.Sprintf("aggregator %d", c.Aggregator), addr: c.Addr,
		campaign: c.Campaign, user: c.Aggregator, binary: c.Binary,
		timeout: ioTimeout(c.Timeout), seed: c.Seed, spans: c.Spans}
}

// BatchResult is the aggregator's view of a completed round: one Result per
// carried agent, keyed by user, plus admission tallies.
type BatchResult struct {
	Results  map[auction.UserID]Result
	Admitted int // bids the platform admitted into the round
	Rejected int // bids rejected inline (duplicate, invalid, busy)
}

// RunBatch executes one auction round for every carried agent over a single
// connection: register → tasks → bid_batch → award_batch → report_batch
// (winners only) → settle_batch.
func RunBatch(ctx context.Context, cfg BatchConfig) (BatchResult, error) {
	res := BatchResult{Results: make(map[auction.UserID]Result, len(cfg.Bids))}
	if len(cfg.Bids) == 0 && cfg.AutoTypes == nil {
		return res, fmt.Errorf("aggregator %d: empty batch", cfg.Aggregator)
	}
	sess := cfg.Spans.Start(span.NameAgentSession,
		span.Int("user", int64(cfg.Aggregator)), span.Int("batch", int64(len(cfg.Bids))))
	sess.Tag(cfg.Campaign, 0)
	defer sess.End()

	s, err := openSession(ctx, cfg.endpoint(), sess)
	if err != nil {
		return res, err
	}
	defer s.close()
	if cfg.AutoTypes != nil {
		cfg.Bids = cfg.AutoTypes(s.tasks)
	}

	// Compose every agent's sealed bid on its intersection with the
	// published tasks; agents with no overlap are reported locally and
	// excluded from the frame.
	type carried struct {
		bid   auction.Bid
		tasks []int
	}
	frame := make([]wire.Bid, 0, len(cfg.Bids))
	byUser := make(map[auction.UserID]carried, len(cfg.Bids))
	for _, bid := range cfg.Bids {
		res.Results[bid.User] = Result{Registered: true}
		taskIDs, pos := s.intersect(bid)
		if len(taskIDs) == 0 {
			res.Rejected++
			continue
		}
		frame = append(frame, wire.Bid{User: int(bid.User), Tasks: taskIDs,
			Cost: bid.Cost, PoS: pos})
		byUser[bid.User] = carried{bid: bid, tasks: taskIDs}
	}
	if len(frame) == 0 {
		s.submitSpan(span.Str("error", "no_overlap"))
		return res, fmt.Errorf("aggregator %d: no carried bid intersects the published tasks", cfg.Aggregator)
	}
	if err := s.submit(&wire.Envelope{Type: wire.TypeBidBatch, Campaign: cfg.Campaign,
		BidBatch: &wire.BidBatch{Bids: frame}}, span.Int("bids", int64(len(frame)))); err != nil {
		return res, err
	}

	env, awaitSpan, err := s.award(wire.TypeAwardBatch)
	if err != nil {
		return res, err
	}
	if got, want := len(env.AwardBatch.Awards), len(frame); got != want {
		awaitSpan.EndWith(span.Str("error", "award_batch_size"))
		return res, fmt.Errorf("aggregator %d: award batch has %d entries, want %d",
			cfg.Aggregator, got, want)
	}
	awaitSpan.End()

	// Simulate execution for the winners with their TRUE PoS and report in
	// one frame.
	rng := stats.NewRand(cfg.Seed)
	reports := make([]wire.Report, 0, len(env.AwardBatch.Awards))
	for _, ua := range env.AwardBatch.Awards {
		user := auction.UserID(ua.User)
		c, ok := byUser[user]
		if !ok {
			return res, fmt.Errorf("aggregator %d: award for unknown user %d", cfg.Aggregator, ua.User)
		}
		r := res.Results[user]
		if ua.Error != "" {
			res.Rejected++
			continue
		}
		res.Admitted++
		r.Award = ua.Award
		r.Selected = ua.Selected
		if ua.Selected {
			var succeeded map[int]bool
			r.Attempt, succeeded = execute(rng, c.bid, c.tasks)
			reports = append(reports, wire.Report{User: ua.User, Succeeded: succeeded})
		}
		res.Results[user] = r
	}
	if len(reports) == 0 {
		return res, nil // no winners carried: the session is complete
	}
	env, err = s.report(&wire.Envelope{Type: wire.TypeReportBatch, Campaign: cfg.Campaign,
		ReportBatch: &wire.ReportBatch{Reports: reports}}, wire.TypeSettleBatch,
		span.Int("reports", int64(len(reports))))
	if err != nil {
		return res, err
	}
	for _, us := range env.SettleBatch.Settles {
		user := auction.UserID(us.User)
		r, ok := res.Results[user]
		if !ok {
			return res, fmt.Errorf("aggregator %d: settlement for unknown user %d", cfg.Aggregator, us.User)
		}
		r.Settle = us.Settle
		res.Results[user] = r
	}
	return res, nil
}

// RunBatchWithBackoff executes RunBatch under the same retry policy as
// RunWithBackoff. A session that got as far as the task publication resets
// the delay.
func RunBatchWithBackoff(ctx context.Context, cfg BatchConfig, b Backoff) (BatchResult, error) {
	return retry(ctx, b, cfg.endpoint(), func(int) (BatchResult, bool, error) {
		res, err := RunBatch(ctx, cfg)
		// Results are populated once tasks arrived: the platform was up.
		return res, len(res.Results) > 0, err
	})
}
