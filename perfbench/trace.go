package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdsense/internal/obs/span"
)

// tracer records the benchmark's own spans around its calls into the
// program's public API. Spans stay in memory until write. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []hspan
}

// hspan is one harness span; id is its index+1 in tracer.spans, parent 0
// marks a root.
type hspan struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // filled by selfTimes
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, hspan{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: int64(now), Dur: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = int64(now) - s.Start
}

// add records a span measured elsewhere (an agent-side span, a replay).
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, hspan{Name: name, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(start.Sub(t.epoch)), Dur: int64(dur)})
	return len(t.spans)
}

// selfTimes sets every span's self time: its duration minus the part of its
// interval that the union of its children covers. Children that overlap
// each other (the two concurrent sessions of a cluster round) are not
// double-subtracted.
func (t *tracer) selfTimes() {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Dur < 0 {
			s.Dur = 0
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			a, b := max(c.Start, s.Start), min(c.Start+max(c.Dur, 0), s.Start+s.Dur)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			if j == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		s.Self = s.Dur - covered
	}
}

// layerTotals sums duration and self time per span name, and counts spans.
type layerTotal struct {
	count     int
	dur, self time.Duration
}

func (t *tracer) totals() map[string]layerTotal {
	out := make(map[string]layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.count++
		lt.dur += time.Duration(s.Dur)
		lt.self += time.Duration(s.Self)
		out[s.Name] = lt
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// recordSink collects one agent session's client-side spans (the agent's
// existing dial/submit/award_wait/settle spans) for import into the harness
// trace.
type recordSink struct {
	mu   sync.Mutex
	recs []span.Record
}

func (s *recordSink) Emit(rec *span.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, *rec)
	s.mu.Unlock()
}

// importUnder adds the sink's agent phase spans as children of parent.
func (s *recordSink) importUnder(t *tracer, parent int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs {
		if r.Name == span.NameAgentSession {
			continue // the harness's own session span stands in for it
		}
		t.add(r.Name, parent, r.Start, r.Duration())
	}
}

// programSpans counts the spans the program itself emits (engine, mechanism,
// cluster) and sums the critical-bid search work recorded on them.
type programSpans struct {
	n      atomic.Int64
	probes atomic.Int64
}

func (s *programSpans) Emit(rec *span.Record) {
	s.n.Add(1)
	if rec.Name != span.NameCriticalBid {
		return
	}
	// The single-task search records binary-search probes; the multi-task
	// search records greedy re-evaluations under "evals".
	if v, ok := rec.Attrs.Int("probes"); ok {
		s.probes.Add(v)
	} else if v, ok := rec.Attrs.Int("evals"); ok {
		s.probes.Add(v)
	}
}
