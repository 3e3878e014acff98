package engine

import (
	"time"

	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
)

// This file is the engine's bridge to internal/obs: the recording helpers
// every hot path funnels through (all gated on Config.DisableObservability,
// so the no-op sink is a single branch), and the exporters the HTTP ops
// endpoint consumes — SpanRecords, Health, and MetricFamilies.

// SpanRecords returns up to n of the engine's most recent lifecycle spans,
// oldest first — the data source behind /debug/spans and /debug/rounds. Nil
// when observability is disabled.
func (e *Engine) SpanRecords(n int) []span.Record {
	if e.spanRing == nil {
		return nil
	}
	return e.spanRing.Recent(n)
}

func (e *Engine) obsOff() bool { return e.cfg.DisableObservability }

// recordBids counts one admission's verdicts for its campaign.
func (e *Engine) recordBids(c *campaign, accepted, rejected int) {
	if e.obsOff() {
		return
	}
	c.obs.bidsAccepted.Add(uint64(accepted))
	c.obs.bidsRejected.Add(uint64(rejected))
}

// recordRPC folds one server-side envelope handling latency into its rpc
// histogram.
func (e *Engine) recordRPC(h *histogram, start time.Time) {
	if e.obsOff() {
		return
	}
	h.observe(time.Since(start))
}

// recordWireSession counts one negotiated agent session by codec.
func (e *Engine) recordWireSession(binary bool) {
	if e.obsOff() {
		return
	}
	if binary {
		e.metrics.wireSessionsBinary.Add(1)
	} else {
		e.metrics.wireSessionsJSON.Add(1)
	}
}

// recordBidBatch counts one batched-bid submission (a TypeBidBatch frame or
// a SubmitBids call) and the bids it carried.
func (e *Engine) recordBidBatch(n int) {
	if e.obsOff() {
		return
	}
	e.metrics.bidBatches.Add(1)
	e.metrics.batchedBids.Add(uint64(n))
}

// recordCompute folds one winner-determination run into the latency
// histograms and the mechanism gauges (winner count, committed payment, DP
// cells / greedy iterations).
func (e *Engine) recordCompute(c *campaign, outcome *mechanism.Outcome, elapsed time.Duration) {
	if e.obsOff() {
		return
	}
	c.obs.computeLatency.observe(elapsed)
	if outcome != nil {
		c.obs.recordWD(outcome.Stats)
	}
}

// recordRound folds a finalized round into its campaign's counters and
// round-latency histogram.
func (e *Engine) recordRound(c *campaign, result RoundResult) {
	if e.obsOff() {
		return
	}
	if result.Err != nil {
		c.obs.roundsFailed.Add(1)
	} else {
		c.obs.roundsCompleted.Add(1)
	}
	c.obs.roundLatency.observe(result.RoundLatency)
}

// snapshotLocked captures one campaign's metrics; the caller holds the
// engine lock (for state/round), the counters themselves are atomic.
func (c *campaign) snapshotLocked() CampaignSnapshot {
	round := c.cfg.rounds() - c.roundsLeft // rounds already settled
	if c.cur != nil {
		round = c.cur.index + 1
	}
	m := &c.obs
	return CampaignSnapshot{
		Campaign: c.cfg.ID,
		State:    c.state.String(),
		Round:    round,

		BidsAccepted:    m.bidsAccepted.Load(),
		BidsRejected:    m.bidsRejected.Load(),
		RoundsCompleted: m.roundsCompleted.Load(),
		RoundsFailed:    m.roundsFailed.Load(),

		WinnersTotal:     m.winnersTotal.Load(),
		PaymentTotal:     m.paymentTotal.Load(),
		DPCellsTotal:     m.dpCellsTotal.Load(),
		GreedyItersTotal: m.greedyItersTotal.Load(),
		DPPrunedTotal:    m.dpPrunedTotal.Load(),
		DPReuseTotal:     m.dpReuseTotal.Load(),
		LazyReevalsTotal: m.lazyReevalsTotal.Load(),

		LastWinners:     m.lastWinners.Load(),
		LastPayment:     m.lastPayment.Load(),
		LastDPCells:     m.lastDPCells.Load(),
		LastGreedyIters: m.lastGreedyIters.Load(),
		LastDPPruned:    m.lastDPPruned.Load(),
		LastDPReuse:     m.lastDPReuse.Load(),
		LastLazyReevals: m.lastLazyReevals.Load(),

		RoundLatency:   m.roundLatency.snapshot(),
		ComputeLatency: m.computeLatency.snapshot(),
	}
}

// Health reports the engine's liveness and bid-queue saturation for the
// /healthz endpoint. A queue at or past obs.SaturationThreshold reports
// StatusSaturated (HTTP 503); an engine that is not serving — not started,
// or finished every campaign — reports StatusIdle, which is healthy.
func (e *Engine) Health() obs.Health {
	e.mu.Lock()
	serving := e.serving
	open := e.open
	var queueLen, queueCap int
	if e.ingest != nil {
		queueLen, queueCap = len(e.ingest), cap(e.ingest)
	} else {
		queueCap = e.cfg.queueDepth()
	}
	e.mu.Unlock()

	saturation := 0.0
	if queueCap > 0 {
		saturation = float64(queueLen) / float64(queueCap)
	}
	status := obs.StatusOK
	switch {
	case !serving || open == 0:
		status = obs.StatusIdle
	case saturation >= obs.SaturationThreshold:
		status = obs.StatusSaturated
	}
	return obs.Health{
		Status:        status,
		Serving:       serving,
		OpenCampaigns: open,
		QueueLen:      queueLen,
		QueueCap:      queueCap,
		Saturation:    saturation,
	}
}

// Readiness reports the /readyz view: the health summary plus each
// campaign's lifecycle position. Saturation maps to 503 on readiness only —
// Health alone stays a liveness signal. When Config.AuditStatus is wired,
// the live auditor's summary rides along: campaigns it degraded are
// flagged, the report's status reads "degraded" (the Health() liveness
// view is untouched), and Readiness.OK answers false (503) while any
// violation or SLO breach stands.
func (e *Engine) Readiness() obs.Readiness {
	h := e.Health()
	var audit *obs.AuditStatus
	if e.cfg.AuditStatus != nil {
		audit = e.cfg.AuditStatus()
	}
	e.mu.Lock()
	campaigns := make(map[string]obs.CampaignStatus, len(e.campaigns))
	for id, c := range e.campaigns {
		round := c.cfg.rounds() - c.roundsLeft
		if c.cur != nil {
			round = c.cur.index + 1
		}
		campaigns[id] = obs.CampaignStatus{State: c.state.String(), Round: round}
	}
	e.mu.Unlock()
	if audit != nil {
		for _, id := range audit.DegradedCampaigns {
			if cs, ok := campaigns[id]; ok {
				cs.Degraded = true
				campaigns[id] = cs
			}
		}
		if audit.Degraded() && h.OK() {
			h.Status = obs.StatusDegraded
		}
	}
	return obs.Readiness{Health: h, Campaigns: campaigns, Audit: audit}
}

// SpanTracer exposes the engine's lifecycle tracer so companions (the live
// auditor) can emit spans into the same ring and journal. Nil when
// observability is disabled — span.Tracer is nil-safe, so callers can use
// it unconditionally.
func (e *Engine) SpanTracer() *span.Tracer { return e.spans }

// summaryQuantiles are the quantile labels /metrics exposes per latency
// summary.
var summaryQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
}

// MetricFamilies renders a consistent snapshot as obs metric families:
// counters and winner-determination gauges with per-campaign labels,
// latency summaries with p50/p95/p99 quantiles, and engine-wide queue and
// campaign gauges. Sample order is deterministic (campaign IDs sorted).
func (e *Engine) MetricFamilies() []obs.Family {
	s := e.Snapshot()
	ids := s.CampaignIDs()
	campLabel := func(id string) []obs.Label {
		return []obs.Label{{Name: "campaign", Value: id}}
	}

	perCampaign := func(name, help, typ string, value func(CampaignSnapshot) float64) obs.Family {
		f := obs.Family{Name: name, Help: help, Type: typ}
		for _, id := range ids {
			f.Samples = append(f.Samples, obs.Sample{Labels: campLabel(id), Value: value(s.Campaigns[id])})
		}
		return f
	}
	summary := func(name, help string, hist func(CampaignSnapshot) HistogramSnapshot) obs.Family {
		f := obs.Family{Name: name, Help: help, Type: obs.TypeSummary}
		for _, id := range ids {
			h := hist(s.Campaigns[id])
			for _, q := range summaryQuantiles {
				f.Samples = append(f.Samples, obs.Sample{
					Labels: append(campLabel(id), obs.Label{Name: "quantile", Value: q.label}),
					Value:  h.Quantile(q.q).Seconds(),
				})
			}
			f.Samples = append(f.Samples,
				obs.Sample{Suffix: "_sum", Labels: campLabel(id), Value: h.Sum.Seconds()},
				obs.Sample{Suffix: "_count", Labels: campLabel(id), Value: float64(h.Count)})
		}
		return f
	}
	gauge := func(name, help string, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeGauge, Samples: []obs.Sample{{Value: v}}}
	}

	rpcFamily := obs.Family{Name: "crowdsense_rpc_duration_seconds",
		Help: "Server-side envelope handling latency by rpc leg.", Type: obs.TypeSummary}
	for _, leg := range []struct {
		name string
		h    *histogram
	}{
		{"register", &e.metrics.rpcRegister},
		{"bid", &e.metrics.rpcBid},
		{"bid_batch", &e.metrics.rpcBidBatch},
		{"report", &e.metrics.rpcReport},
		{"report_batch", &e.metrics.rpcReportBatch},
	} {
		h := leg.h.snapshot()
		legLabel := []obs.Label{{Name: "rpc", Value: leg.name}}
		for _, q := range summaryQuantiles {
			rpcFamily.Samples = append(rpcFamily.Samples, obs.Sample{
				Labels: append([]obs.Label{{Name: "rpc", Value: leg.name}}, obs.Label{Name: "quantile", Value: q.label}),
				Value:  h.Quantile(q.q).Seconds(),
			})
		}
		rpcFamily.Samples = append(rpcFamily.Samples,
			obs.Sample{Suffix: "_sum", Labels: legLabel, Value: h.Sum.Seconds()},
			obs.Sample{Suffix: "_count", Labels: legLabel, Value: float64(h.Count)})
	}

	return []obs.Family{
		perCampaign("crowdsense_bids_accepted_total", "Bids admitted into a round.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.BidsAccepted) }),
		perCampaign("crowdsense_bids_rejected_total", "Bids rejected: queue full, duplicate user, invalid, or campaign busy.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.BidsRejected) }),
		perCampaign("crowdsense_rounds_completed_total", "Rounds settled with a valid outcome.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.RoundsCompleted) }),
		perCampaign("crowdsense_rounds_failed_total", "Rounds voided (requirements unsatisfiable).",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.RoundsFailed) }),
		perCampaign("crowdsense_winners_total", "Winners selected across all rounds.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.WinnersTotal) }),
		perCampaign("crowdsense_payment_total", "Success-case payment committed across all rounds.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return c.PaymentTotal }),
		perCampaign("crowdsense_wd_dp_cells_total", "FPTAS dynamic-programming table cells touched across all winner determinations.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.DPCellsTotal) }),
		perCampaign("crowdsense_wd_greedy_iterations_total", "Greedy set-cover iterations across all winner determinations.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.GreedyItersTotal) }),
		perCampaign("crowdsense_wd_dp_pruned_total", "FPTAS subproblems skipped by the incumbent lower bound across all winner determinations.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.DPPrunedTotal) }),
		perCampaign("crowdsense_wd_dp_reuse_total", "FPTAS DP workspace checkouts served by the pool across all winner determinations.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.DPReuseTotal) }),
		perCampaign("crowdsense_wd_lazy_reevals_total", "Lazy-greedy effective-contribution evaluations across all winner determinations.",
			obs.TypeCounter, func(c CampaignSnapshot) float64 { return float64(c.LazyReevalsTotal) }),
		perCampaign("crowdsense_wd_winners", "Winner count of the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastWinners) }),
		perCampaign("crowdsense_wd_payment", "Success-case payment committed by the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return c.LastPayment }),
		perCampaign("crowdsense_wd_dp_cells", "FPTAS DP table cells touched by the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastDPCells) }),
		perCampaign("crowdsense_wd_greedy_iterations", "Greedy set-cover iterations of the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastGreedyIters) }),
		perCampaign("crowdsense_wd_dp_pruned", "FPTAS subproblems skipped by the incumbent lower bound in the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastDPPruned) }),
		perCampaign("crowdsense_wd_dp_reuse", "FPTAS DP workspace checkouts served by the pool in the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastDPReuse) }),
		perCampaign("crowdsense_wd_lazy_reevals", "Lazy-greedy effective-contribution evaluations of the last winner-determination call.",
			obs.TypeGauge, func(c CampaignSnapshot) float64 { return float64(c.LastLazyReevals) }),
		summary("crowdsense_round_duration_seconds", "First admitted bid to settlement, per round.",
			func(c CampaignSnapshot) HistogramSnapshot { return c.RoundLatency }),
		summary("crowdsense_wd_duration_seconds", "Winner-determination wall time.",
			func(c CampaignSnapshot) HistogramSnapshot { return c.ComputeLatency }),
		{Name: "crowdsense_wire_sessions_total", Help: "Agent sessions by negotiated wire codec.",
			Type: obs.TypeCounter, Samples: []obs.Sample{
				{Labels: []obs.Label{{Name: "codec", Value: "json"}}, Value: float64(s.WireSessionsJSON)},
				{Labels: []obs.Label{{Name: "codec", Value: "binary"}}, Value: float64(s.WireSessionsBinary)},
			}},
		rpcFamily,
		{Name: "crowdsense_wire_bid_batches_total", Help: "Batched-bid submissions (bid_batch frames and direct batches).",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(s.BidBatches)}}},
		{Name: "crowdsense_wire_batched_bids_total", Help: "Bids carried inside batched submissions.",
			Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(s.BatchedBids)}}},
		gauge("crowdsense_queue_len", "Bid-ingestion queue occupancy.", float64(s.QueueLen)),
		gauge("crowdsense_queue_capacity", "Bid-ingestion queue capacity.", float64(s.QueueCap)),
		gauge("crowdsense_campaigns_open", "Campaigns not yet closed.", float64(s.CampaignsOpen)),
		gauge("crowdsense_campaigns_closed", "Campaigns closed.", float64(s.CampaignsClosed)),
	}
}
