package spantool

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"crowdsense/internal/obs/span"
)

// SLOStat is one span name's offline latency-SLO evaluation over a whole
// journal: observed quantiles, and — when a target is set — the slow-event
// count and error-budget burn rate (slow fraction over the objective).
type SLOStat struct {
	Name          string
	Count         int
	P50, P95, P99 time.Duration

	Target time.Duration // 0 = no target configured for this name
	Slow   int           // events past Target
	Burn   float64       // (Slow/Count)/objective; 1 = exactly on budget
}

// Breaching reports whether the whole-journal burn rate is past budget.
func (s SLOStat) Breaching() bool { return s.Target > 0 && s.Burn > 1 }

// EvalSLOs aggregates records per span name and evaluates each against its
// target (names without a target still get their quantiles). Zero-duration
// event spans (audit.violation, slo.breach) are skipped — they mark moments,
// not latencies. Results are sorted: targeted names first, then by name.
func EvalSLOs(records []span.Record, targets map[string]time.Duration, objective float64) []SLOStat {
	if objective <= 0 {
		objective = 0.01
	}
	durs := map[string][]time.Duration{}
	for _, r := range records {
		if r.Name == span.NameAuditViolation || r.Name == span.NameSLOBreach {
			continue
		}
		durs[r.Name] = append(durs[r.Name], r.Duration())
	}
	out := make([]SLOStat, 0, len(durs))
	for name, ds := range durs {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		st := SLOStat{
			Name:  name,
			Count: len(ds),
			P50:   quantile(ds, 0.50),
			P95:   quantile(ds, 0.95),
			P99:   quantile(ds, 0.99),
		}
		if target, ok := targets[name]; ok {
			st.Target = target
			for _, d := range ds {
				if d > target {
					st.Slow++
				}
			}
			st.Burn = (float64(st.Slow) / float64(st.Count)) / objective
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool {
		at, bt := out[a].Target > 0, out[b].Target > 0
		if at != bt {
			return at
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// quantile returns the ceil-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// AuditEvent is one audit.violation or slo.breach event span found in a
// journal — the durable trail the live auditor leaves.
type AuditEvent struct {
	Name     string // span.NameAuditViolation or span.NameSLOBreach
	Campaign string
	Round    int
	Detail   string // headline attrs, e.g. "rule=settlement_contract user=3"
}

// AuditEvents extracts the live auditor's event spans in journal order.
func AuditEvents(records []span.Record) []AuditEvent {
	var out []AuditEvent
	for _, r := range records {
		if r.Name != span.NameAuditViolation && r.Name != span.NameSLOBreach {
			continue
		}
		ev := AuditEvent{Name: r.Name, Campaign: r.Campaign, Round: r.Round}
		var details []string
		for _, key := range []string{"rule", "user", "problem", "slo", "target_seconds", "fast_burn", "slow_burn"} {
			if v := r.Attrs.Get(key); v != nil {
				details = append(details, fmt.Sprintf("%s=%v", key, v))
			}
		}
		ev.Detail = strings.Join(details, " ")
		out = append(out, ev)
	}
	return out
}

// ParseSLOTargets decodes a comma-separated list of p99 latency targets,
// e.g. "round=250ms,phase.computing=50ms". Each entry is span=duration or a
// bare duration, which targets the round span. Blank entries are skipped,
// so empty input yields no targets. It is the one parser behind
// platformd's -slo-p99 and obsctl slo's -targets.
func ParseSLOTargets(s string) (map[string]time.Duration, error) {
	targets := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			name, val = span.NameRound, part
		}
		if name == "" {
			return nil, fmt.Errorf("spantool: bad SLO target %q: want span=duration", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("spantool: bad SLO target %q: %w", part, err)
		}
		targets[name] = d
	}
	return targets, nil
}

// WriteSLO renders the offline SLO report obsctl prints: per-name quantiles
// with target/burn columns, then any audit events recorded in the journal.
func WriteSLO(w io.Writer, records []span.Record, targets map[string]time.Duration, objective float64) error {
	stats := EvalSLOs(records, targets, objective)
	if _, err := fmt.Fprintf(w, "%d spans\n\n%-22s %8s %12s %12s %12s %12s %8s %8s\n",
		len(records), "NAME", "COUNT", "P50", "P95", "P99", "TARGET", "SLOW", "BURN"); err != nil {
		return err
	}
	for _, st := range stats {
		target, slow, burn := "-", "-", "-"
		if st.Target > 0 {
			target = fmtDur(st.Target)
			slow = fmt.Sprintf("%d", st.Slow)
			burn = fmt.Sprintf("%.2f", st.Burn)
			if st.Breaching() {
				burn += "!"
			}
		}
		if _, err := fmt.Fprintf(w, "%-22s %8d %12s %12s %12s %12s %8s %8s\n",
			st.Name, st.Count, fmtDur(st.P50), fmtDur(st.P95), fmtDur(st.P99), target, slow, burn); err != nil {
			return err
		}
	}
	events := AuditEvents(records)
	if len(events) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\naudit events\n%-16s %-12s %6s  %s\n",
		"NAME", "CAMPAIGN", "ROUND", "DETAIL"); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "%-16s %-12s %6d  %s\n",
			ev.Name, ev.Campaign, ev.Round, ev.Detail); err != nil {
			return err
		}
	}
	return nil
}
