// Package obs is the platform's reusable observability layer: metric
// families rendered by hand into the Prometheus text exposition format, and
// an HTTP ops server exposing /metrics, /healthz, /readyz, the /debug views
// (recent spans, and the round-level subset of them on /debug/rounds), and
// net/http/pprof.
//
// The package deliberately has no dependency on the engine (or any other
// crowdsense package outside internal/obs): producers describe their state
// as []Family, Health and span.Record values, and obs renders and serves
// them. internal/engine is the
// primary producer; anything else that grows counters can reuse the same
// substrate without new dependencies.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Metric families are typed the way the exposition format spells them.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeSummary   = "summary"
	TypeHistogram = "histogram"
)

// Label is one name="value" pair. Labels are kept as an ordered slice (not a
// map) so rendered output is deterministic — golden tests and diff-friendly
// scrapes depend on it.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line of a family: the family name plus an
// optional suffix (summaries emit _sum and _count lines), its labels, and
// the value.
type Sample struct {
	Suffix string // "", "_sum", "_count"
	Labels []Label
	Value  float64
}

// Family is one named metric with help text, a type, and its samples.
type Family struct {
	Name    string
	Help    string
	Type    string // TypeCounter, TypeGauge, TypeSummary
	Samples []Sample
}

// RenderMetrics writes the families in Prometheus text exposition format
// (version 0.0.4). Families sharing a name are merged, since the format
// allows one header per name: the name renders once, at its first
// occurrence, with that occurrence's # HELP and # TYPE, followed by the
// samples of every family of that name in input order. Names with no
// samples are skipped.
func RenderMetrics(w io.Writer, families []Family) error {
	index := make(map[string]int, len(families)) // name → position in groups
	var groups [][]int                           // family indices per name
	for i, f := range families {
		g, ok := index[f.Name]
		if !ok {
			g = len(groups)
			index[f.Name] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	for _, g := range groups {
		samples := 0
		for _, i := range g {
			samples += len(families[i].Samples)
		}
		if samples == 0 {
			continue
		}
		f := families[g[0]]
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, i := range g {
			for _, s := range families[i].Samples {
				if _, err := io.WriteString(w, f.Name+s.Suffix+renderLabels(s.Labels)+" "+formatValue(s.Value)+"\n"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WithLabel returns copies of the families with l prepended to every
// sample's labels — how a producer's families are scoped to one instance
// (a cluster node's per-shard engines, WALs, auditors and stores) without
// the producer knowing it has siblings. The input is left unmodified.
func WithLabel(families []Family, l Label) []Family {
	out := make([]Family, len(families))
	for i, f := range families {
		samples := make([]Sample, len(f.Samples))
		for j, s := range f.Samples {
			s.Labels = append([]Label{l}, s.Labels...)
			samples[j] = s
		}
		f.Samples = samples
		out[i] = f
	}
	return out
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition format's label-value escaping:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes backslash and newline in help text.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
