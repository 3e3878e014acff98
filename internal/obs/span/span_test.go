package span

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collectSink captures emitted records in order; test-only.
type collectSink struct {
	mu   sync.Mutex
	recs []*Record
}

func (c *collectSink) Emit(rec *Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
}

func (c *collectSink) all() []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Record(nil), c.recs...)
}

func TestSpanHierarchy(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)

	root := tr.Start(NameCampaign, Str("mechanism", "single-task")).Tag("c1", 0)
	round := root.Child(NameRound).Tag("c1", 7)
	phase := round.Child(NamePhaseComputing)
	probe := phase.Child(NameKnapsackSolve, Int("n", 5))
	probe.EndWith(Int("cells", 123))
	phase.End()
	round.EndWith(Int("winners", 2), Float("payment", 31.5))
	root.End()

	recs := sink.all()
	if len(recs) != 4 {
		t.Fatalf("emitted %d records, want 4", len(recs))
	}
	// Completion order: probe, phase, round, campaign.
	names := []string{NameKnapsackSolve, NamePhaseComputing, NameRound, NameCampaign}
	for i, want := range names {
		if recs[i].Name != want {
			t.Errorf("record %d name %q, want %q", i, recs[i].Name, want)
		}
	}
	probeRec, phaseRec, roundRec, campRec := recs[0], recs[1], recs[2], recs[3]
	if probeRec.Parent != phaseRec.ID || phaseRec.Parent != roundRec.ID || roundRec.Parent != campRec.ID {
		t.Errorf("parent chain broken: %d→%d, %d→%d, %d→%d",
			probeRec.ID, probeRec.Parent, phaseRec.ID, phaseRec.Parent, roundRec.ID, roundRec.Parent)
	}
	if campRec.Parent != 0 {
		t.Errorf("campaign parent %d, want 0", campRec.Parent)
	}
	// Children inherit the round tag set after their parent's Tag call.
	if probeRec.Campaign != "c1" || probeRec.Round != 7 {
		t.Errorf("probe tagged %q/%d, want c1/7", probeRec.Campaign, probeRec.Round)
	}
	if got, ok := roundRec.Attrs.Int("winners"); !ok || got != 2 {
		t.Errorf("round winners attr %v, want 2", roundRec.Attrs.Get("winners"))
	}
	if v, ok := probeRec.Attrs.Int("cells"); !ok || v != 123 {
		t.Errorf("probe cells attr %v, want 123", probeRec.Attrs.Get("cells"))
	}
	if probeRec.DurNanos < 0 || probeRec.Start.IsZero() {
		t.Errorf("probe timing not stamped: start %v dur %d", probeRec.Start, probeRec.DurNanos)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start("anything", Int("x", 1))
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every operation on the nil span must be safe.
	c := s.Child("child")
	c.Set(Str("k", "v"))
	c.Tag("c1", 1).End()
	s.EndWith(Float("f", 1.5))
	s.End()
	if s.ID() != 0 {
		t.Errorf("nil span ID %d, want 0", s.ID())
	}
	// A tracer with only nil sinks is also the no-op tracer.
	if got := New(nil, nil); got != nil {
		t.Error("New with only nil sinks should return the nil tracer")
	}
}

func TestDoubleEndEmitsOnce(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	s := tr.Start("x")
	s.End()
	s.End()
	s.EndWith(Int("late", 1))
	if got := len(sink.all()); got != 1 {
		t.Errorf("emitted %d records after double End, want 1", got)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	rec := Record{
		ID: 42, Parent: 7, Name: NameRound, Campaign: "c2", Round: 3,
		Start:    time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		DurNanos: 1500000,
		Attrs:    Attrs{Int("winners", 2), Float("payment", 31.25), Str("mech", "greedy")},
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.ID != rec.ID || got.Parent != rec.Parent || got.Name != rec.Name ||
		got.Campaign != rec.Campaign || got.Round != rec.Round || got.DurNanos != rec.DurNanos {
		t.Errorf("round-tripped %+v, want %+v", got, rec)
	}
	if v, ok := got.Attrs.Int("winners"); !ok || v != 2 {
		t.Errorf("winners attr %v", got.Attrs.Get("winners"))
	}
	if v := got.Attrs.Get("payment"); v != 31.25 {
		t.Errorf("payment attr %v (%T), want 31.25", v, v)
	}
	if v := got.Attrs.Get("mech"); v != "greedy" {
		t.Errorf("mech attr %v, want greedy", v)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if got := NewRing(0).Cap(); got != DefaultRingCapacity {
		t.Errorf("NewRing(0).Cap() = %d, want %d", got, DefaultRingCapacity)
	}
	if got := NewRing(100).Cap(); got != 128 {
		t.Errorf("NewRing(100).Cap() = %d, want 128", got)
	}
	if got := NewRing(64).Cap(); got != 64 {
		t.Errorf("NewRing(64).Cap() = %d, want 64", got)
	}
}

func TestRingOverwriteAndRecent(t *testing.T) {
	r := NewRing(4)
	tr := New(r)
	for i := 0; i < 10; i++ {
		tr.Start("s", Int("i", int64(i))).End()
	}
	if r.Emitted() != 10 {
		t.Errorf("emitted %d, want 10", r.Emitted())
	}
	recent := r.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("recent returned %d records, want 4 (ring capacity)", len(recent))
	}
	for k, rec := range recent {
		if got, _ := rec.Attrs.Int("i"); got != int64(6+k) {
			t.Errorf("recent[%d] i=%d, want %d", k, got, 6+k)
		}
	}
	if got := r.Recent(2); len(got) != 2 {
		t.Errorf("Recent(2) returned %d", len(got))
	} else if i, _ := got[1].Attrs.Int("i"); i != 9 {
		t.Errorf("Recent(2) newest i=%d, want 9", i)
	}
	if r.Recent(0) != nil {
		t.Error("Recent(0) should be nil")
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	r := NewRing(64)
	tr := New(r)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers validate no torn reads while writers overwrite.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := r.Recent(64)
				for i := 1; i < len(recs); i++ {
					if recs[i].ID == recs[i-1].ID {
						t.Error("duplicate record in Recent")
						return
					}
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Start(fmt.Sprintf("w%d", g), Int("i", int64(i))).End()
			}
		}(g)
	}
	for r.Emitted() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if r.Emitted() != writers*per {
		t.Errorf("emitted %d, want %d", r.Emitted(), writers*per)
	}
}

// BenchmarkSpanNoSink measures the disabled path: a nil tracer, one nil
// check per operation.
func BenchmarkSpanNoSink(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("root")
		c := s.Child("child", Int("i", int64(i)))
		c.EndWith(Int("out", 1))
		s.End()
	}
}

// BenchmarkSpanRing measures the enabled path against the lock-free ring.
func BenchmarkSpanRing(b *testing.B) {
	tr := New(NewRing(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("root")
		c := s.Child("child", Int("i", int64(i)))
		c.EndWith(Int("out", 1))
		s.End()
	}
}
