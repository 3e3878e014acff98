package engine

import (
	"context"
	"errors"
	"fmt"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/wire"
)

// This file is the engine's one admission and settlement path. Every bid
// enters a round through admit and leaves it through settle, whether it came
// from a TCP session (handle, which only adds a codec) or from an in-process
// caller of SubmitBids — cmd/crowdsim's swarm mode pushes million-agent bid
// storms through the engine this way, with no codec or connection in between.

// ErrNotServing is returned by SubmitBids before Serve/ServeLocal has
// started the admitter.
var ErrNotServing = errors.New("engine: not serving; call Serve or ServeLocal first")

// errQueueFull rejects a TCP session's bids when the ingest queue has no free
// slot.
var errQueueFull = errors.New("engine overloaded: bid queue full")

// DirectBatch is one bid batch's handle on its round: the per-bid admission
// verdicts immediately, the outcome after Await, and Settle to complete every
// admitted bid.
type DirectBatch struct {
	camp *campaign
	rd   *round
	bids []auction.Bid

	// Verdicts are the per-bid admission results, aligned with the submitted
	// batch; nil means admitted.
	Verdicts []error
}

// SubmitBids admits a batch of bids into a campaign directly, bypassing the
// wire. Unlike a TCP session — which is rejected when the ingest queue is
// full, turning backpressure into an error the remote agent can act on — an
// in-process caller blocks until the admitter drains a slot (or ctx ends):
// the caller IS the load generator, so slowing it down is the backpressure.
func (e *Engine) SubmitBids(ctx context.Context, campaignID string, bids []auction.Bid) (*DirectBatch, error) {
	e.mu.Lock()
	serving := e.ingest != nil
	e.mu.Unlock()
	if !serving {
		return nil, ErrNotServing
	}
	camp := e.lookup(campaignID)
	if camp == nil {
		return nil, fmt.Errorf("engine: unknown campaign %q", campaignID)
	}
	e.recordBidBatch(len(bids))
	return e.admit(ctx, camp, bids, true)
}

// admit is the one sender on the ingest queue: it hands the bids to the
// admitter as one request (one engine-lock acquisition), waits for the
// per-bid verdicts and records them. When the queue is full, a blocking
// caller waits for a slot while any other caller's bids are all rejected
// with errQueueFull.
func (e *Engine) admit(ctx context.Context, camp *campaign, bids []auction.Bid, block bool) (*DirectBatch, error) {
	d := &DirectBatch{camp: camp, bids: bids}
	req := ingestReq{batch: d, done: make(chan struct{}, 1)}
	select {
	case e.ingest <- req:
	default:
		if !block {
			e.recordBids(camp, 0, len(bids))
			return nil, errQueueFull
		}
		select {
		case e.ingest <- req:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-req.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	admitted := d.Admitted()
	e.recordBids(camp, admitted, len(bids)-admitted)
	return d, nil
}

// Admitted reports how many of the batch's bids were admitted.
func (d *DirectBatch) Admitted() int {
	n := 0
	for _, v := range d.Verdicts {
		if v == nil {
			n++
		}
	}
	return n
}

// Await blocks until the batch's round has run winner determination and
// returns the round error, if any. A batch with no admitted bids has no
// round to wait for and returns immediately.
func (d *DirectBatch) Await(ctx context.Context) error {
	if d.rd == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-d.rd.computed:
		return d.rd.err
	}
}

// Outcome returns the round's mechanism outcome; valid only after Await
// returned nil.
func (d *DirectBatch) Outcome() *mechanism.Outcome {
	if d.rd == nil {
		return nil
	}
	return d.rd.outcome
}

// awardFor returns an admitted user's award; a loser, and every bid of a
// failed round, has none.
func (d *DirectBatch) awardFor(user auction.UserID) (mechanism.Award, bool) {
	if d.rd.err != nil || d.rd.outcome == nil {
		return mechanism.Award{}, false
	}
	return d.rd.outcome.AwardFor(d.rd.order[user])
}

// awards lists the batch's awards in submission order — a winner's EC
// contract, a loser's empty award, a rejected bid's verdict inline — and
// counts the winners. Valid only after Await returned nil.
func (d *DirectBatch) awards() ([]wire.UserAward, int) {
	awards := make([]wire.UserAward, len(d.bids))
	winners := 0
	for i, bid := range d.bids {
		awards[i].User = int(bid.User)
		if verdict := d.Verdicts[i]; verdict != nil {
			awards[i].Error = "bid rejected: " + verdict.Error()
		} else if award, won := d.awardFor(bid.User); won {
			awards[i].Award = wire.Award{
				Selected:        true,
				CriticalPoS:     award.CriticalPoS,
				RewardOnSuccess: award.RewardOnSuccess,
				RewardOnFailure: award.RewardOnFailure,
			}
			winners++
		}
	}
	return awards, winners
}

// Settle completes every admitted bid of the batch, the in-process
// equivalent of the award → report → settle exchange. For each admitted
// winner, report is called with the bid and its award and returns whether
// execution succeeded (paper step 5); every winner counts as having reported,
// and its settlement is recorded. Losers — and every admitted bid on a failed
// round — are completed without one. Call exactly once, after Await; the
// returned settlements are keyed by user.
func (d *DirectBatch) Settle(report func(bid auction.Bid, award mechanism.Award) bool) map[auction.UserID]wire.Settle {
	if d.rd == nil {
		return nil
	}
	settles := d.settle(func(bid auction.Bid, award mechanism.Award) (bool, bool) {
		return report != nil && report(bid, award), true
	})
	settled := make(map[auction.UserID]wire.Settle, len(settles))
	for _, us := range settles {
		settled[auction.UserID(us.User)] = us.Settle
	}
	return settled
}

// settle is the one caller of sessionDone: it completes every admitted bid of
// the batch exactly once, in submission order. A winner for which report
// returns reported is settled with its EC reward (the success reward if its
// execution succeeded, the failure reward otherwise). A winner that did not
// report, a loser, and every bid of a failed round complete with nil. A nil
// report settles no winner. The returned settlements follow submission order.
func (d *DirectBatch) settle(report func(bid auction.Bid, award mechanism.Award) (success, reported bool)) []wire.UserSettle {
	if d.rd == nil {
		return nil
	}
	var settles []wire.UserSettle
	for i, bid := range d.bids {
		if d.Verdicts[i] != nil {
			continue
		}
		var settled *wire.Settle
		if award, won := d.awardFor(bid.User); won && report != nil {
			if success, reported := report(bid, award); reported {
				reward := award.RewardOnFailure
				if success {
					reward = award.RewardOnSuccess
				}
				settled = &wire.Settle{Success: success, Reward: reward, Utility: reward - bid.Cost}
				settles = append(settles, wire.UserSettle{User: int(bid.User), Settle: *settled})
			}
		}
		d.camp.sessionDone(d.rd, bid.User, settled)
	}
	return settles
}
