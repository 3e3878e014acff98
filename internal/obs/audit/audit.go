// Package audit is the live mechanism auditor: it folds the engine's
// durable event stream round by round and re-derives every economic
// invariant the paper proves — individual rationality, budget feasibility,
// the α reward-gap bound, and settlement-vs-contract arithmetic — the
// moment a round settles, using the same platform.CheckRound rule set the
// offline cmd/audit replay runs. A second half (slo.go) watches span end
// events and tracks per-phase latency SLOs with multi-window burn rates.
//
// Violations degrade the campaign, never kill it: they surface as
// crowdsense_audit_* / crowdsense_slo_* metric families, the /debug/audit
// report, a 503 on /readyz, and audit.violation / slo.breach event spans.
// The process keeps serving — a broken invariant is evidence to preserve,
// not a crash.
//
// The auditor has one event feed: it is a store.Store, attached after the
// WAL (when there is one) in the engine's store.Multi fan-out, so it sees
// every event synchronously on the emit path. It assembles settled rounds
// with store.RoundFold, the same event → RoundRecord step the reducer uses.
package audit

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/platform"
	"crowdsense/internal/store"
)

// DefaultMaxViolations bounds the retained recent-violation list.
const DefaultMaxViolations = 64

// Config wires an Auditor.
type Config struct {
	// Spans receives audit.violation and slo.breach event spans. Nil (or a
	// nil tracer) disables span emission.
	Spans *span.Tracer
	// SLO enables latency-SLO tracking; nil disables it.
	SLO *SLOConfig
	// MaxViolations bounds the retained recent-violation list (0 means
	// DefaultMaxViolations).
	MaxViolations int
}

// Auditor evaluates mechanism invariants and latency SLOs against the live
// event stream. Safe for concurrent use: the event source (the engine's
// emit path) and readers (ops endpoints, metrics scrapes) may overlap.
type Auditor struct {
	cfg   Config
	slo   *sloEngine
	spans atomic.Pointer[span.Tracer]

	mu            sync.Mutex
	rounds        store.RoundFold
	degraded      map[string]uint64 // campaign → violation count, sticky
	roundsChecked uint64
	violations    uint64
	recent        []obs.AuditViolation // newest last, bounded by MaxViolations
	byRule        map[ruleKey]uint64   // violation counts for /metrics
}

type ruleKey struct{ campaign, rule string }

// New builds an Auditor. The zero Config is valid: invariant checking with
// no SLO tracking, no spans, no shard label.
func New(cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	a := &Auditor{
		cfg:      cfg,
		degraded: make(map[string]uint64),
		byRule:   make(map[ruleKey]uint64),
	}
	if cfg.Spans != nil {
		a.spans.Store(cfg.Spans)
	}
	if cfg.SLO != nil {
		a.slo = newSLOEngine(*cfg.SLO, a.tracer)
	}
	return a
}

// SetSpans (re)binds the tracer receiving audit.violation and slo.breach
// spans. Exists because of construction order: the auditor must be built
// before the engine (it rides in Config.SpanSinks), but the natural tracer
// to emit into — the engine's, so audit spans land in the same ring and
// journal — only exists after engine.New. Safe to call concurrently with
// event processing.
func (a *Auditor) SetSpans(t *span.Tracer) {
	if t != nil {
		a.spans.Store(t)
	}
}

// tracer returns the current span tracer; may be nil (span.Tracer is
// nil-safe).
func (a *Auditor) tracer() *span.Tracer { return a.spans.Load() }

// Observe folds one event through the shared round fold and checks each
// round it settles. Rounds whose opening the auditor did not witness are
// skipped — joining a stream mid-round must not produce false positives
// from a partial record — and a campaign_finished drops the campaign's
// in-flight round while its degraded status stays sticky: a finished
// campaign with a violated invariant is still evidence.
func (a *Auditor) Observe(ev store.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec := a.rounds.Observe(ev); rec != nil {
		a.checkRoundLocked(ev.Campaign, rec)
	}
}

// checkRoundLocked runs the shared invariant rule set over one settled
// round and records every finding. The rule set reads bids, contracts and
// settlements only, so the entry carries no task list. Caller holds a.mu.
func (a *Auditor) checkRoundLocked(campaign string, rec *store.RoundRecord) {
	a.roundsChecked++
	entry := platform.EntryFromRecord(campaign, nil, *rec)
	for _, fi := range platform.CheckRound(entry) {
		a.violations++
		a.degraded[campaign]++
		a.byRule[ruleKey{campaign, fi.Rule}]++
		v := obs.AuditViolation{
			Campaign: campaign,
			Round:    fi.Round,
			User:     fi.User,
			Rule:     fi.Rule,
			Problem:  fi.Problem,
			Time:     time.Now().UTC(),
		}
		a.recent = append(a.recent, v)
		if len(a.recent) > a.cfg.MaxViolations {
			a.recent = a.recent[len(a.recent)-a.cfg.MaxViolations:]
		}
		a.tracer().Start(span.NameAuditViolation,
			span.Str("rule", fi.Rule),
			span.Int("user", int64(fi.User)),
			span.Str("problem", fi.Problem),
		).Tag(campaign, fi.Round).End()
	}
}

// Emit implements span.Sink: span end events feed the SLO engine. Called on
// the producer goroutine, so it must stay fast — without SLO tracking it is
// one nil check.
func (a *Auditor) Emit(rec *span.Record) {
	if a.slo != nil {
		a.slo.observe(rec)
	}
}

// Append implements store.Store: the auditor can sit inside a store.Multi
// fan-out and see every event synchronously on the emit path. It never
// fails — auditing must not be able to void a round.
func (a *Auditor) Append(ev store.Event) error {
	a.Observe(ev)
	return nil
}

// Commit implements store.Store (no durability to flush).
func (a *Auditor) Commit() error { return nil }

// Close implements store.Store.
func (a *Auditor) Close() error { return nil }

// Status summarizes the auditor for /readyz merging.
func (a *Auditor) Status() *obs.AuditStatus {
	a.mu.Lock()
	st := &obs.AuditStatus{
		Enabled:           true,
		RoundsChecked:     a.roundsChecked,
		Violations:        a.violations,
		DegradedCampaigns: sortedKeys(a.degraded),
	}
	if n := len(a.recent); n > 0 {
		last := a.recent[n-1]
		st.LastViolation = last.Campaign + " round " + strconv.Itoa(last.Round) + ": " + last.Problem
	}
	a.mu.Unlock()
	if a.slo != nil {
		st.SLOBreaching = a.slo.breaching()
	}
	return st
}

// Report builds the full /debug/audit payload.
func (a *Auditor) Report() obs.AuditReport {
	rep := obs.AuditReport{
		AuditStatus:      *a.Status(),
		RecentViolations: []obs.AuditViolation{},
		SLOs:             []obs.SLOStatus{},
	}
	a.mu.Lock()
	rep.RecentViolations = append(rep.RecentViolations, a.recent...)
	a.mu.Unlock()
	if a.slo != nil {
		rep.SLOs = a.slo.statuses()
	}
	return rep
}

// Families renders the auditor as crowdsense_audit_* / crowdsense_slo_*
// metric families. Sample order is deterministic.
func (a *Auditor) Families() []obs.Family {
	a.mu.Lock()
	keys := make([]ruleKey, 0, len(a.byRule))
	for k := range a.byRule {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].campaign != keys[j].campaign {
			return keys[i].campaign < keys[j].campaign
		}
		return keys[i].rule < keys[j].rule
	})
	violations := obs.Family{
		Name: "crowdsense_audit_violations_total",
		Help: "Mechanism-invariant violations found by the live auditor.",
		Type: obs.TypeCounter,
	}
	for _, k := range keys {
		violations.Samples = append(violations.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "campaign", Value: k.campaign}, {Name: "rule", Value: k.rule}},
			Value:  float64(a.byRule[k]),
		})
	}
	degraded := obs.Family{
		Name: "crowdsense_audit_degraded",
		Help: "Campaigns currently degraded by an invariant violation (1 per campaign).",
		Type: obs.TypeGauge,
	}
	for _, id := range sortedKeys(a.degraded) {
		degraded.Samples = append(degraded.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "campaign", Value: id}},
			Value:  1,
		})
	}
	fams := []obs.Family{
		{
			Name: "crowdsense_audit_rounds_checked_total",
			Help: "Settled rounds the live auditor has checked.",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Value: float64(a.roundsChecked)},
			},
		},
		violations,
		degraded,
	}
	a.mu.Unlock()
	if a.slo != nil {
		fams = append(fams, a.slo.families()...)
	}
	return fams
}

func sortedKeys(m map[string]uint64) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
