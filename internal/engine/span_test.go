package engine

import (
	"path/filepath"
	"sync"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
)

// memorySink captures every emitted span record; test-only.
type memorySink struct {
	mu   sync.Mutex
	recs []span.Record
}

func (s *memorySink) Emit(rec *span.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, *rec)
}

func (s *memorySink) all() []span.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span.Record(nil), s.recs...)
}

// TestEngineSpanLifecycle runs a two-round campaign end to end and checks the
// emitted span tree: campaign → round → phase → wd → allocation and
// critical-bid probes, with parents, tags, and headline attributes intact.
func TestEngineSpanLifecycle(t *testing.T) {
	sink := &memorySink{}
	journalPath := filepath.Join(t.TempDir(), "spans.jsonl")
	journal, err := span.OpenJournal(span.JournalConfig{Path: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{SpanSinks: []span.Sink{sink, journal}})
	cc := singleTaskCampaign("traced", 3)
	cc.Rounds = 2
	if err := e.AddCampaign(cc); err != nil {
		t.Fatal(err)
	}
	addr, done := startEngine(t, e)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := runAgent(t, addr, "traced", auction.UserID(i+1), float64(i+2), 0.8); err != nil {
					t.Errorf("round %d agent %d: %v", round, i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	recs := sink.all()
	byName := map[string][]span.Record{}
	byID := map[uint64]span.Record{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
		byID[r.ID] = r
	}

	if n := len(byName[span.NameCampaign]); n != 1 {
		t.Fatalf("%d campaign spans, want 1", n)
	}
	camp := byName[span.NameCampaign][0]
	if camp.Campaign != "traced" || camp.Parent != 0 {
		t.Errorf("campaign span %+v", camp)
	}
	if v, _ := camp.Attrs.Int("rounds_completed"); v != 2 {
		t.Errorf("campaign rounds_completed %d, want 2", v)
	}

	if n := len(byName[span.NameRound]); n != 2 {
		t.Fatalf("%d round spans, want 2", n)
	}
	seenRounds := map[int]bool{}
	for _, rd := range byName[span.NameRound] {
		if rd.Parent != camp.ID {
			t.Errorf("round %d parent %d, want campaign %d", rd.Round, rd.Parent, camp.ID)
		}
		seenRounds[rd.Round] = true
		if v, _ := rd.Attrs.Int("winners"); v < 1 {
			t.Errorf("round %d winners %d, want >= 1", rd.Round, v)
		}
		if v, _ := rd.Attrs.Int("bids"); v != 3 {
			t.Errorf("round %d bids %d, want 3", rd.Round, v)
		}
	}
	if !seenRounds[1] || !seenRounds[2] {
		t.Errorf("round tags %v, want 1 and 2", seenRounds)
	}

	// Each round contributes one phase span per lifecycle state.
	for _, name := range []string{span.NamePhaseCollecting, span.NamePhaseComputing, span.NamePhaseSettling} {
		if n := len(byName[name]); n != 2 {
			t.Errorf("%d %s spans, want 2", n, name)
		}
		for _, ph := range byName[name] {
			parent, ok := byID[ph.Parent]
			if !ok || parent.Name != span.NameRound {
				t.Errorf("%s parent is %q, want round", name, parent.Name)
			}
		}
	}

	if n := len(byName[span.NameWD]); n != 2 {
		t.Fatalf("%d wd spans, want 2", n)
	}
	for _, wd := range byName[span.NameWD] {
		if parent := byID[wd.Parent]; parent.Name != span.NamePhaseComputing {
			t.Errorf("wd parent %q, want %s", parent.Name, span.NamePhaseComputing)
		}
	}
	if n := len(byName[span.NameAllocate]); n != 2 {
		t.Errorf("%d allocation spans, want 2 (one per round)", n)
	}
	// Every winner runs one critical-bid search: a probe at the declared
	// contribution plus one or two certifying the leave-one-out guess, whose
	// DP subproblem the span names; a refuted guess (fallback) bisects.
	if len(byName[span.NameCriticalBid]) == 0 {
		t.Error("no critical-bid spans")
	}
	for _, cb := range byName[span.NameCriticalBid] {
		if parent := byID[cb.Parent]; parent.Name != span.NameWD {
			t.Errorf("critical-bid parent %q, want wd", parent.Name)
		}
		probes, _ := cb.Attrs.Int("probes")
		if fallback, _ := cb.Attrs.Int("fallback"); fallback == 0 && (probes < 2 || probes > 3) {
			t.Errorf("critical-bid probes %d, want 2 or 3 when certified", probes)
		}
		if _, ok := cb.Attrs.Int("critical_k"); !ok {
			t.Error("critical-bid span has no critical_k")
		}
	}
	solves := byName[span.NameKnapsackSolve]
	if len(solves) <= len(byName[span.NameCriticalBid]) {
		t.Errorf("%d knapsack.solve spans for %d critical-bid searches; want several probes each",
			len(solves), len(byName[span.NameCriticalBid]))
	}
	for _, kp := range solves {
		parent := byID[kp.Parent]
		if parent.Name != span.NameCriticalBid && parent.Name != span.NameAllocate {
			t.Errorf("knapsack.solve parent %q, want critical-bid or allocation", parent.Name)
		}
	}

	// The ring behind /debug/spans saw the same stream.
	ringRecs := e.SpanRecords(len(recs) + 10)
	if len(ringRecs) != len(recs) {
		t.Errorf("ring holds %d records, sink saw %d", len(ringRecs), len(recs))
	}
	// And the journal sink persisted the same stream durably.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := span.ReadJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDisk) != len(recs) {
		t.Errorf("journal holds %d records, sink saw %d", len(fromDisk), len(recs))
	}
}

func TestEngineSpansDisabled(t *testing.T) {
	e := New(Config{DisableObservability: true})
	if err := e.AddCampaign(singleTaskCampaign("dark", 2)); err != nil {
		t.Fatal(err)
	}
	addr, done := startEngine(t, e)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := runAgent(t, addr, "dark", auction.UserID(i+1), float64(i+2), 0.8); err != nil {
				t.Errorf("agent %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if recs := e.SpanRecords(100); recs != nil {
		t.Errorf("disabled engine exported %d spans", len(recs))
	}
}

func TestEngineReadiness(t *testing.T) {
	e := New(Config{})
	if err := e.AddCampaign(singleTaskCampaign("r1", 2)); err != nil {
		t.Fatal(err)
	}
	rep := e.Readiness()
	if rep.Status != obs.StatusIdle {
		t.Errorf("pre-serve status %q, want idle", rep.Status)
	}
	cs, ok := rep.Campaigns["r1"]
	if !ok || cs.State != "collecting" || cs.Round != 1 {
		t.Errorf("campaign status %+v, want r1 collecting round 1", rep.Campaigns)
	}

	addr, done := startEngine(t, e)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = runAgent(t, addr, "r1", auction.UserID(i+1), float64(i+2), 0.8)
		}(i)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep = e.Readiness()
	if cs := rep.Campaigns["r1"]; cs.State != "closed" {
		t.Errorf("post-run campaign state %q, want closed", cs.State)
	}
	if rep.Status != obs.StatusIdle {
		t.Errorf("post-run status %q, want idle", rep.Status)
	}
}
