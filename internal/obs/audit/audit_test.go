package audit

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// testBid builds a single-task bid for the synthetic rounds below.
func testBid(user auction.UserID, cost float64) *auction.Bid {
	b := auction.NewBid(user, []auction.TaskID{1}, cost, map[auction.TaskID]float64{1: 0.9})
	return &b
}

// cleanOutcome is a consistent EC outcome: one winner (user 1, cost 1),
// α = 10, p̄ = 0.4, so RewardOnSuccess = (1−0.4)·10 + 1 = 7 and
// RewardOnFailure = −0.4·10 + 1 = −3. Every invariant holds.
func cleanOutcome() *mechanism.Outcome {
	return &mechanism.Outcome{
		Mechanism:  "test",
		Selected:   []int{0},
		SocialCost: 1,
		Alpha:      10,
		Awards: []mechanism.Award{{
			User:            1,
			CriticalPoS:     0.4,
			RewardOnSuccess: 7,
			RewardOnFailure: -3,
		}},
	}
}

// registerEvent announces the test campaign with its task spec.
func registerEvent(campaign string) store.Event {
	return store.Event{
		Type:     store.EventCampaignRegistered,
		Campaign: campaign,
		Spec: &store.CampaignSpec{
			ID:              campaign,
			Tasks:           []auction.Task{{ID: 1, Requirement: 0.5}},
			ExpectedBidders: 2,
			Rounds:          1,
			Alpha:           10,
		},
	}
}

// cleanRoundEvents is one fully consistent round: open, two bids, the EC
// outcome, the winner's matching settlement, settle.
func cleanRoundEvents(campaign string, round int) []store.Event {
	return []store.Event{
		{Type: store.EventRoundOpened, Campaign: campaign, Round: round},
		{Type: store.EventBidAdmitted, Campaign: campaign, Round: round, Bid: testBid(1, 1)},
		{Type: store.EventBidAdmitted, Campaign: campaign, Round: round, Bid: testBid(2, 2)},
		{Type: store.EventWinnersDetermined, Campaign: campaign, Round: round, Outcome: cleanOutcome()},
		{Type: store.EventReportReceived, Campaign: campaign, Round: round, User: 1,
			Settle: &wire.Settle{Success: true, Reward: 7, Utility: 6}},
		{Type: store.EventRoundSettled, Campaign: campaign, Round: round,
			RoundNanos: int64(time.Millisecond), ComputeNanos: int64(time.Microsecond)},
	}
}

func feed(a *Auditor, evs ...store.Event) {
	for _, ev := range evs {
		a.Observe(ev)
	}
}

func TestObserveCleanRound(t *testing.T) {
	a := New(Config{})
	feed(a, registerEvent("c1"))
	feed(a, cleanRoundEvents("c1", 1)...)

	st := a.Status()
	if !st.Enabled {
		t.Error("Status.Enabled = false, want true")
	}
	if st.RoundsChecked != 1 {
		t.Errorf("RoundsChecked = %d, want 1", st.RoundsChecked)
	}
	if st.Violations != 0 {
		t.Errorf("Violations = %d, want 0: %s", st.Violations, st.LastViolation)
	}
	if len(st.DegradedCampaigns) != 0 {
		t.Errorf("DegradedCampaigns = %v, want none", st.DegradedCampaigns)
	}
	if st.Degraded() {
		t.Error("Degraded() = true for a clean round")
	}

	rep := a.Report()
	if len(rep.RecentViolations) != 0 {
		t.Errorf("RecentViolations = %v, want empty", rep.RecentViolations)
	}
}

func TestObserveUnderpaidSettlement(t *testing.T) {
	a := New(Config{})
	feed(a, registerEvent("c1"))
	evs := cleanRoundEvents("c1", 1)
	// Corrupt the settlement: pay the successful winner 0.5 against a
	// declared cost of 1 and a contract of 7. Utility is kept consistent
	// (0.5 − 1) so exactly the contract and IR rules fire.
	evs[4].Settle = &wire.Settle{Success: true, Reward: 0.5, Utility: -0.5}
	feed(a, evs...)

	st := a.Status()
	if st.Violations != 2 {
		t.Fatalf("Violations = %d, want 2 (contract + IR); last: %s", st.Violations, st.LastViolation)
	}
	if len(st.DegradedCampaigns) != 1 || st.DegradedCampaigns[0] != "c1" {
		t.Errorf("DegradedCampaigns = %v, want [c1]", st.DegradedCampaigns)
	}
	if !st.Degraded() {
		t.Error("Degraded() = false after violations")
	}
	if !strings.Contains(st.LastViolation, "individually rational") {
		t.Errorf("LastViolation = %q, want the IR finding", st.LastViolation)
	}

	rep := a.Report()
	if len(rep.RecentViolations) != 2 {
		t.Fatalf("RecentViolations = %d, want 2", len(rep.RecentViolations))
	}
	rules := map[string]bool{}
	for _, v := range rep.RecentViolations {
		rules[v.Rule] = true
		if v.Campaign != "c1" || v.Round != 1 || v.User != 1 {
			t.Errorf("violation locus = %s/%d/%d, want c1/1/1", v.Campaign, v.Round, v.User)
		}
	}
	if !rules["settlement_contract"] || !rules["individual_rationality"] {
		t.Errorf("violation rules = %v, want contract and IR", rules)
	}

	var buf bytes.Buffer
	if err := obs.RenderMetrics(&buf, a.Families()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`crowdsense_audit_rounds_checked_total 1`,
		`crowdsense_audit_violations_total{campaign="c1",rule="individual_rationality"} 1`,
		`crowdsense_audit_violations_total{campaign="c1",rule="settlement_contract"} 1`,
		`crowdsense_audit_degraded{campaign="c1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestMidStreamJoinSkipsPartialRound(t *testing.T) {
	a := New(Config{})
	// Join after round 1 opened: bids, outcome, and settle arrive without
	// their round_opened. The partial record must not be audited — it would
	// be all false positives.
	feed(a,
		store.Event{Type: store.EventBidAdmitted, Campaign: "c1", Round: 1, Bid: testBid(1, 1)},
		store.Event{Type: store.EventWinnersDetermined, Campaign: "c1", Round: 1, Outcome: cleanOutcome()},
		store.Event{Type: store.EventRoundSettled, Campaign: "c1", Round: 1},
	)
	if st := a.Status(); st.RoundsChecked != 0 || st.Violations != 0 {
		t.Fatalf("partial round audited: checked %d, violations %d", st.RoundsChecked, st.Violations)
	}
	// The next full round is auditable even without the registration event.
	feed(a, cleanRoundEvents("c1", 2)...)
	if st := a.Status(); st.RoundsChecked != 1 || st.Violations != 0 {
		t.Fatalf("after full round: checked %d, violations %d, last %q",
			st.RoundsChecked, st.Violations, st.LastViolation)
	}
}

func TestReopenDiscardsTornBids(t *testing.T) {
	a := New(Config{})
	// The torn incarnation of round 1 settled user 2, who does not win the
	// reopened round: a non-winner settlement if the torn state were kept.
	feed(a, registerEvent("c1"),
		store.Event{Type: store.EventRoundOpened, Campaign: "c1", Round: 1},
		store.Event{Type: store.EventBidAdmitted, Campaign: "c1", Round: 1, Bid: testBid(2, 2)},
		store.Event{Type: store.EventReportReceived, Campaign: "c1", Round: 1, User: 2,
			Settle: &wire.Settle{Success: true, Reward: 2}},
	)
	// Crash/recovery reopens the same round; the torn bid and settlement
	// are superseded by the clean incarnation.
	feed(a, cleanRoundEvents("c1", 1)...)
	if st := a.Status(); st.RoundsChecked != 1 || st.Violations != 0 {
		t.Fatalf("reopened round: checked %d, violations %d, last %q — torn state was kept",
			st.RoundsChecked, st.Violations, st.LastViolation)
	}
}

func TestStickyDegradation(t *testing.T) {
	a := New(Config{})
	feed(a, registerEvent("c1"))
	evs := cleanRoundEvents("c1", 1)
	evs[4].Settle = &wire.Settle{Success: true, Reward: 0.5, Utility: -0.5}
	feed(a, evs...)
	// Round 2 is in flight when the campaign finishes: its record must be
	// dropped, so a late settle is not audited.
	round2 := cleanRoundEvents("c1", 2)
	feed(a, round2[:len(round2)-1]...)
	feed(a, store.Event{Type: store.EventCampaignFinished, Campaign: "c1"})
	feed(a, round2[len(round2)-1])

	st := a.Status()
	if len(st.DegradedCampaigns) != 1 || st.DegradedCampaigns[0] != "c1" {
		t.Errorf("degradation not sticky past campaign_finished: %v", st.DegradedCampaigns)
	}
	if st.RoundsChecked != 1 {
		t.Errorf("RoundsChecked = %d, want 1: the in-flight round outlived campaign_finished", st.RoundsChecked)
	}
}

func TestRecentViolationsBounded(t *testing.T) {
	a := New(Config{MaxViolations: 3})
	feed(a, registerEvent("c1"))
	for round := 1; round <= 5; round++ {
		evs := cleanRoundEvents("c1", round)
		evs[4].Settle = &wire.Settle{Success: true, Reward: 0.5, Utility: -0.5}
		feed(a, evs...)
	}
	rep := a.Report()
	if len(rep.RecentViolations) != 3 {
		t.Fatalf("retained %d violations, want 3", len(rep.RecentViolations))
	}
	if got := rep.RecentViolations[2].Round; got != 5 {
		t.Errorf("newest retained violation round = %d, want 5", got)
	}
	if rep.Violations != 10 {
		t.Errorf("lifetime Violations = %d, want 10", rep.Violations)
	}
}

// captureSink records every emitted span for assertions.
type captureSink struct {
	mu   sync.Mutex
	recs []span.Record
}

func (s *captureSink) Emit(rec *span.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, *rec)
	s.mu.Unlock()
}

func (s *captureSink) named(name string) []span.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span.Record
	for _, r := range s.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

func TestViolationEmitsSpan(t *testing.T) {
	sink := &captureSink{}
	a := New(Config{Spans: span.New(sink)})
	feed(a, registerEvent("c1"))
	evs := cleanRoundEvents("c1", 1)
	evs[4].Settle = &wire.Settle{Success: true, Reward: 0.5, Utility: -0.5}
	feed(a, evs...)

	recs := sink.named(span.NameAuditViolation)
	if len(recs) != 2 {
		t.Fatalf("audit.violation spans = %d, want 2", len(recs))
	}
	r := recs[0]
	if r.Campaign != "c1" || r.Round != 1 {
		t.Errorf("span locus = %s/%d, want c1/1", r.Campaign, r.Round)
	}
	if rule, _ := r.Attrs.Get("rule").(string); rule == "" {
		t.Errorf("span missing rule attr: %v", r.Attrs)
	}
}

func TestSetSpansRebind(t *testing.T) {
	a := New(Config{}) // no tracer at construction, like the engine wiring
	feed(a, registerEvent("c1"))
	sink := &captureSink{}
	a.SetSpans(span.New(sink))
	evs := cleanRoundEvents("c1", 1)
	evs[4].Settle = &wire.Settle{Success: true, Reward: 0.5, Utility: -0.5}
	feed(a, evs...)
	if len(sink.named(span.NameAuditViolation)) == 0 {
		t.Fatal("no audit.violation span after SetSpans")
	}
}
