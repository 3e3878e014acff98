package audit

import (
	"sort"
	"sync"
	"time"

	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
)

// The SLO objective, windows and burn thresholds, following the SRE
// multi-window multi-burn-rate alerting recipe: a p99 latency target means
// at most 1% of events may run slow (objective 0.01); a breach requires the
// burn rate — observed slow fraction over the objective — to exceed a
// threshold in BOTH a fast window (catches it quickly) and a slow window
// (filters blips).
const (
	DefaultObjective  = 0.01
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = time.Hour
	DefaultFastBurn   = 14.4 // burns a 30-day budget in ~2 days
	DefaultSlowBurn   = 6.0
	// maxSLOEvents bounds each target's event buffer; beyond it the oldest
	// events are force-evicted even if still inside the slow window.
	maxSLOEvents = 1 << 16
)

// SLOConfig declares latency objectives over span end events. The
// objective, windows and burn thresholds are the Default* constants.
type SLOConfig struct {
	// Targets maps span names (span.NamePhaseComputing, span.NameRound, …)
	// to their p99 duration target.
	Targets map[string]time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// sloEvent is one observed span end: when, and whether it ran past target.
type sloEvent struct {
	t    time.Time
	slow bool
}

// sloTarget tracks one span name's events and window counters. Events live
// in one slice ordered by arrival; fastHead/slowHead are eviction frontiers
// (amortized O(1) per observe) and the four counters always describe the
// live window contents, so burn evaluation is constant-time.
type sloTarget struct {
	name   string
	target time.Duration

	mu       sync.Mutex
	events   []sloEvent
	fastHead int // index of the oldest event inside the fast window
	slowHead int // index of the oldest event inside the slow window

	fastTotal, fastSlow uint64
	slowTotal, slowSlow uint64

	total, slowCount uint64 // lifetime counters for /metrics
	breaching        bool
	breaches         uint64
}

// sloEngine watches span end events against the configured targets.
type sloEngine struct {
	now     func() time.Time
	spans   func() *span.Tracer // the auditor's current tracer
	targets map[string]*sloTarget
}

func newSLOEngine(cfg SLOConfig, spans func() *span.Tracer) *sloEngine {
	e := &sloEngine{now: cfg.Now, spans: spans, targets: make(map[string]*sloTarget, len(cfg.Targets))}
	if e.now == nil {
		e.now = time.Now
	}
	for name, d := range cfg.Targets {
		e.targets[name] = &sloTarget{name: name, target: d}
	}
	return e
}

// observe folds one span record. Producer-goroutine hot path: one map
// lookup for non-target names, constant amortized work for targets.
func (e *sloEngine) observe(rec *span.Record) {
	t, ok := e.targets[rec.Name]
	if !ok {
		return
	}
	now := e.now()
	slow := rec.Duration() > t.target

	t.mu.Lock()
	t.total++
	if slow {
		t.slowCount++
	}
	t.events = append(t.events, sloEvent{t: now, slow: slow})
	t.fastTotal++
	t.slowTotal++
	if slow {
		t.fastSlow++
		t.slowSlow++
	}
	t.evictLocked(now)
	fastBurn, slowBurn := t.burnsLocked()
	breach := t.fastTotal > 0 && fastBurn >= DefaultFastBurn && slowBurn >= DefaultSlowBurn
	rising := breach && !t.breaching
	t.breaching = breach
	if rising {
		t.breaches++
	}
	t.mu.Unlock()

	if rising {
		e.spans().Start(span.NameSLOBreach,
			span.Str("slo", t.name),
			span.Float("target_seconds", t.target.Seconds()),
			span.Float("fast_burn", fastBurn),
			span.Float("slow_burn", slowBurn),
		).End()
	}
}

// evictLocked advances both window frontiers past expired events and
// compacts the buffer once the dead prefix dominates. Caller holds t.mu.
func (t *sloTarget) evictLocked(now time.Time) {
	fastCut := now.Add(-DefaultFastWindow)
	slowCut := now.Add(-DefaultSlowWindow)
	for t.slowHead < len(t.events) && (t.events[t.slowHead].t.Before(slowCut) || len(t.events)-t.slowHead > maxSLOEvents) {
		ev := t.events[t.slowHead]
		if ev.slow {
			t.slowSlow--
		}
		t.slowTotal--
		if t.slowHead >= t.fastHead {
			// Still inside the fast counters (they cover [fastHead, len));
			// evicting it from the buffer removes it from both windows.
			if ev.slow {
				t.fastSlow--
			}
			t.fastTotal--
		}
		t.slowHead++
	}
	if t.fastHead < t.slowHead {
		t.fastHead = t.slowHead
	}
	for t.fastHead < len(t.events) && t.events[t.fastHead].t.Before(fastCut) {
		if t.events[t.fastHead].slow {
			t.fastSlow--
		}
		t.fastTotal--
		t.fastHead++
	}
	if t.slowHead > len(t.events)/2 && t.slowHead > 1024 {
		n := copy(t.events, t.events[t.slowHead:])
		t.events = t.events[:n]
		t.fastHead -= t.slowHead
		t.slowHead = 0
	}
}

// burnsLocked computes the fast- and slow-window burn rates. Caller holds
// t.mu.
func (t *sloTarget) burnsLocked() (fast, slow float64) {
	if t.fastTotal > 0 {
		fast = (float64(t.fastSlow) / float64(t.fastTotal)) / DefaultObjective
	}
	if t.slowTotal > 0 {
		slow = (float64(t.slowSlow) / float64(t.slowTotal)) / DefaultObjective
	}
	return fast, slow
}

// breaching lists the span names currently past both burn thresholds,
// sorted.
func (e *sloEngine) breaching() []string {
	var out []string
	for name, t := range e.targets {
		t.mu.Lock()
		b := t.breaching
		t.mu.Unlock()
		if b {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// statuses snapshots every target for /debug/audit, sorted by name.
func (e *sloEngine) statuses() []obs.SLOStatus {
	out := make([]obs.SLOStatus, 0, len(e.targets))
	for _, t := range e.targets {
		t.mu.Lock()
		fast, slow := t.burnsLocked()
		out = append(out, obs.SLOStatus{
			Name:          t.name,
			TargetSeconds: t.target.Seconds(),
			Objective:     DefaultObjective,
			Events:        t.total,
			SlowEvents:    t.slowCount,
			FastBurn:      fast,
			SlowBurn:      slow,
			Breaching:     t.breaching,
			Breaches:      t.breaches,
		})
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// families renders the SLO state as crowdsense_slo_* metric families.
func (e *sloEngine) families() []obs.Family {
	sts := e.statuses()
	nameLabel := func(n string) obs.Label { return obs.Label{Name: "slo", Value: n} }
	target := obs.Family{Name: "crowdsense_slo_target_seconds", Help: "Configured latency target per SLO.", Type: obs.TypeGauge}
	events := obs.Family{Name: "crowdsense_slo_events_total", Help: "Span end events evaluated per SLO.", Type: obs.TypeCounter}
	slowEv := obs.Family{Name: "crowdsense_slo_slow_events_total", Help: "Events that ran past the latency target.", Type: obs.TypeCounter}
	burn := obs.Family{Name: "crowdsense_slo_burn_rate", Help: "Error-budget burn rate per window (1 = exactly on budget).", Type: obs.TypeGauge}
	active := obs.Family{Name: "crowdsense_slo_breach_active", Help: "1 while both burn windows exceed their thresholds.", Type: obs.TypeGauge}
	breaches := obs.Family{Name: "crowdsense_slo_breaches_total", Help: "Breach rising edges since start.", Type: obs.TypeCounter}
	for _, st := range sts {
		target.Samples = append(target.Samples, obs.Sample{Labels: []obs.Label{nameLabel(st.Name)}, Value: st.TargetSeconds})
		events.Samples = append(events.Samples, obs.Sample{Labels: []obs.Label{nameLabel(st.Name)}, Value: float64(st.Events)})
		slowEv.Samples = append(slowEv.Samples, obs.Sample{Labels: []obs.Label{nameLabel(st.Name)}, Value: float64(st.SlowEvents)})
		burn.Samples = append(burn.Samples,
			obs.Sample{Labels: []obs.Label{nameLabel(st.Name), {Name: "window", Value: "fast"}}, Value: st.FastBurn},
			obs.Sample{Labels: []obs.Label{nameLabel(st.Name), {Name: "window", Value: "slow"}}, Value: st.SlowBurn})
		breachVal := 0.0
		if st.Breaching {
			breachVal = 1
		}
		active.Samples = append(active.Samples, obs.Sample{Labels: []obs.Label{nameLabel(st.Name)}, Value: breachVal})
		breaches.Samples = append(breaches.Samples, obs.Sample{Labels: []obs.Label{nameLabel(st.Name)}, Value: float64(st.Breaches)})
	}
	return []obs.Family{target, events, slowEv, burn, active, breaches}
}
