package span

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// appendRecord renders one record as a JSON object into b without
// reflection. The journal writes one line per span — dozens per auction
// round, one per solver probe — and profiling shows encoding/json's
// reflective marshaller dominating the writer's CPU and allocating enough
// to drag the auction goroutines into GC assists, so the journal encodes by
// hand. It is also Record.MarshalJSON, so /debug/spans serves the same
// bytes. The output matches Record's struct tags (omitempty included) and is
// decoded by the ordinary encoding/json path in ReadJournal.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	if r.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, r.Parent, 10)
	}
	if r.TraceID != 0 {
		b = append(b, `,"trace_id":`...)
		b = strconv.AppendUint(b, r.TraceID, 10)
	}
	if r.Node != "" {
		b = append(b, `,"node":`...)
		b = appendString(b, r.Node)
	}
	if r.ParentNode != "" {
		b = append(b, `,"parent_node":`...)
		b = appendString(b, r.ParentNode)
	}
	b = append(b, `,"name":`...)
	b = appendString(b, r.Name)
	if r.Campaign != "" {
		b = append(b, `,"campaign":`...)
		b = appendString(b, r.Campaign)
	}
	if r.Round != 0 {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(r.Round), 10)
	}
	b = append(b, `,"start":"`...)
	b = r.Start.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","dur_ns":`...)
	b = strconv.AppendInt(b, r.DurNanos, 10)
	if len(r.Attrs) > 0 {
		b = append(b, `,"attrs":`...)
		b = appendAttrs(b, r.Attrs)
	}
	return append(b, '}')
}

// appendAttrs renders attributes as one JSON object (it is also
// Attrs.MarshalJSON): keys in first-occurrence order, last write wins on
// duplicates. Attribute lists are tiny (≤ 8 entries), so the duplicate scan
// is quadratic without mattering.
func appendAttrs(b []byte, as Attrs) []byte {
	b = append(b, '{')
	n := 0
	for i, a := range as {
		seen := false
		for _, prev := range as[:i] {
			if prev.Key == a.Key {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		v := a
		for _, later := range as[i+1:] {
			if later.Key == a.Key {
				v = later
			}
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendString(b, a.Key)
		b = append(b, ':')
		switch v.kind {
		case kindInt:
			b = strconv.AppendInt(b, v.i, 10)
		case kindFloat:
			b = appendFloat(b, v.f)
		case kindStr:
			b = appendString(b, v.s)
		default:
			b = append(b, `null`...)
		}
	}
	return append(b, '}')
}

// appendFloat emits a JSON number; NaN and infinities — which JSON cannot
// carry — degrade to null rather than poisoning the line.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, `null`...)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendString quotes s, falling back to encoding/json for the rare string
// needing escapes (control characters, quotes, non-ASCII, and the HTML
// characters encoding/json escapes — so a record marshalled through
// encoding/json, which re-escapes them, keeps the journal's bytes). Span
// names, campaign IDs, and attr keys all take the fast path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= utf8.RuneSelf {
			enc, err := json.Marshal(s)
			if err != nil {
				enc = []byte(`""`)
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
