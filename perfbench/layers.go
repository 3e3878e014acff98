package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/knapsack"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/setcover"
	"crowdsense/internal/wire"
)

// replayTotals are the layer timings of replaying every plan round outside
// the engine, summed over rounds.
type replayTotals struct {
	run, knapsack, setcover time.Duration
	encode, decode          time.Duration
	wireBytes               int
	// decodeErrors counts rounds whose binary envelopes failed to decode:
	// Codec.Read takes a frame whose payload is 123 bytes (length byte
	// '{') for a JSON line. Nonzero until that codec defect is fixed.
	decodeErrors int
}

// replayRounds re-runs each round's auction through the mechanism, and its
// allocation alone through the solver the mechanism uses, timing both; and
// pushes the round's session envelopes through both wire codecs over an
// in-memory buffer. Every timed span is also recorded on tr.
func replayRounds(p *plan, tr *tracer) (replayTotals, error) {
	var tot replayTotals
	for _, spec := range p.rounds {
		a, err := auction.New(spec.tasks, spec.bids)
		if err != nil {
			return tot, err
		}
		var m mechanism.Mechanism = &mechanism.MultiTask{Alpha: mechanism.DefaultAlpha}
		if a.SingleTask() {
			m = &mechanism.SingleTask{Epsilon: epsilon, Alpha: mechanism.DefaultAlpha}
		}
		t := time.Now()
		out, err := m.Run(a)
		d := time.Since(t)
		if err != nil {
			return tot, fmt.Errorf("replay %s: %w", spec.campaign, err)
		}
		tot.run += d
		tr.add("mechanism.run", 0, t, d)

		t = time.Now()
		if a.SingleTask() {
			in, err := knapsackInstance(a)
			if err != nil {
				return tot, err
			}
			if _, err := knapsack.NewSolver(in, epsilon).Solve(); err != nil {
				return tot, err
			}
			d = time.Since(t)
			tot.knapsack += d
			tr.add("knapsack.allocate", 0, t, d)
		} else {
			if _, err := setcover.Greedy(a); err != nil {
				return tot, err
			}
			d = time.Since(t)
			tot.setcover += d
			tr.add("setcover.allocate", 0, t, d)
		}

		envs := roundEnvelopes(spec, out)
		for _, binary := range []bool{true, false} {
			enc, dec, n, err := codecRoundTrip(envs, binary)
			if err != nil && binary && errors.Is(err, wire.ErrBadEnvelope) {
				tot.decodeErrors++
			} else if err != nil {
				return tot, err
			}
			tot.encode += enc
			tot.decode += dec
			tot.wireBytes += n
		}
	}
	return tot, nil
}

func knapsackInstance(a *auction.Auction) (*knapsack.Instance, error) {
	task := a.Tasks[0]
	costs := make([]float64, len(a.Bids))
	contribs := make([]float64, len(a.Bids))
	for i, b := range a.Bids {
		costs[i] = b.Cost
		contribs[i] = b.Contribution(task.ID)
	}
	return knapsack.NewInstance(costs, contribs, task.RequiredContribution())
}

// roundEnvelopes is one round as an aggregator session carries it: register,
// tasks, bid_batch, award_batch, report_batch, settle_batch.
func roundEnvelopes(spec roundSpec, out *mechanism.Outcome) []*wire.Envelope {
	tasks := make([]wire.TaskSpec, len(spec.tasks))
	for i, t := range spec.tasks {
		tasks[i] = wire.TaskSpec{ID: int(t.ID), Requirement: t.Requirement}
	}
	bids := make([]wire.Bid, len(spec.bids))
	awards := make([]wire.UserAward, len(spec.bids))
	var reports []wire.Report
	var settles []wire.UserSettle
	for i, b := range spec.bids {
		wb := wire.Bid{User: int(b.User), Cost: b.Cost, PoS: make(map[int]float64, len(b.Tasks))}
		for _, t := range b.Tasks {
			wb.Tasks = append(wb.Tasks, int(t))
			wb.PoS[int(t)] = b.PoS[t]
		}
		bids[i] = wb
		awards[i] = wire.UserAward{User: int(b.User)}
		if aw, ok := out.AwardFor(i); ok {
			awards[i].Award = wire.Award{Selected: true, CriticalPoS: aw.CriticalPoS,
				RewardOnSuccess: aw.RewardOnSuccess, RewardOnFailure: aw.RewardOnFailure}
			succeeded := make(map[int]bool, len(b.Tasks))
			for _, t := range b.Tasks {
				succeeded[int(t)] = spec.success[i]
			}
			reports = append(reports, wire.Report{User: int(b.User), Succeeded: succeeded})
			reward := aw.RewardOnFailure
			if spec.success[i] {
				reward = aw.RewardOnSuccess
			}
			settles = append(settles, wire.UserSettle{User: int(b.User),
				Settle: wire.Settle{Success: spec.success[i], Reward: reward, Utility: reward - b.Cost}})
		}
	}
	c := spec.campaign
	return []*wire.Envelope{
		{Type: wire.TypeRegister, Campaign: c, Register: &wire.Register{User: aggregatorID}},
		{Type: wire.TypeTasks, Campaign: c, Tasks: &wire.Tasks{Tasks: tasks}},
		{Type: wire.TypeBidBatch, Campaign: c, BidBatch: &wire.BidBatch{Bids: bids}},
		{Type: wire.TypeAwardBatch, Campaign: c, AwardBatch: &wire.AwardBatch{Awards: awards}},
		{Type: wire.TypeReportBatch, Campaign: c, ReportBatch: &wire.ReportBatch{Reports: reports}},
		{Type: wire.TypeSettleBatch, Campaign: c, SettleBatch: &wire.SettleBatch{Settles: settles}},
	}
}

// codecRoundTrip encodes envs through one codec into a buffer, then decodes
// them back with a server-side codec, which negotiates the codec from the
// first byte as the engine does.
func codecRoundTrip(envs []*wire.Envelope, binary bool) (enc, dec time.Duration, n int, err error) {
	var buf bytes.Buffer
	t := time.Now()
	w := wire.NewCodec(&buf)
	if binary {
		w = wire.NewBinaryCodec(&buf)
	}
	for _, env := range envs {
		if err := w.Write(env); err != nil {
			return 0, 0, 0, fmt.Errorf("encode %s: %w", env.Type, err)
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, 0, err
	}
	enc = time.Since(t)
	n = buf.Len()

	t = time.Now()
	r, err := wire.NewServerCodec(&buf)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, env := range envs {
		if _, err := r.Expect(env.Type); err != nil {
			return enc, time.Since(t), n, fmt.Errorf("decode %s: %w", env.Type, err)
		}
	}
	dec = time.Since(t)
	return enc, dec, n, nil
}
