package platform

import (
	"bytes"
	"strings"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// journalEvents is a deterministic two-round campaign event stream, as the
// engine would emit it.
func journalEvents(id string) []store.Event {
	spec := &store.CampaignSpec{
		ID:              id,
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
		ExpectedBidders: 2,
		Rounds:          2,
		Alpha:           10,
	}
	bid := func(user auction.UserID, cost, pos float64) *auction.Bid {
		b := auction.NewBid(user, []auction.TaskID{1}, cost, map[auction.TaskID]float64{1: pos})
		return &b
	}
	round := func(n int) []store.Event {
		return []store.Event{
			{Type: store.EventRoundOpened, Campaign: id, Round: n},
			{Type: store.EventBidAdmitted, Campaign: id, Round: n, Bid: bid(1, 2, 0.7)},
			{Type: store.EventBidAdmitted, Campaign: id, Round: n, Bid: bid(2, 3, 0.8)},
			{Type: store.EventWinnersDetermined, Campaign: id, Round: n,
				Outcome: &mechanism.Outcome{Mechanism: "ec", Selected: []int{0}, SocialCost: 2, Alpha: 10,
					Awards: []mechanism.Award{{BidIndex: 0, User: 1, CriticalPoS: 0.6,
						RewardOnSuccess: 6, RewardOnFailure: -4}}}},
			{Type: store.EventReportReceived, Campaign: id, Round: n, User: 1,
				Settle: &wire.Settle{Success: true, Reward: 6, Utility: 4}},
			{Type: store.EventRoundSettled, Campaign: id, Round: n, RoundNanos: 5},
		}
	}
	events := []store.Event{{Type: store.EventCampaignRegistered, Campaign: id, Spec: spec}}
	events = append(events, round(1)...)
	events = append(events, round(2)...)
	return append(events, store.Event{Type: store.EventCampaignFinished, Campaign: id})
}

// TestJournalStoreSurvivesHandover: the journal produced by one JournalStore
// consuming the whole stream must byte-match the concatenation of a stream
// cut mid-campaign — first half into one store, WAL-recovered state seeding a
// second store for the rest. This is the journal side of crash recovery: a
// restarted platformd appends to the same journal file and the result is
// indistinguishable from an uninterrupted run.
func TestJournalStoreSurvivesHandover(t *testing.T) {
	events := journalEvents("c")

	var uninterrupted bytes.Buffer
	js, err := NewJournalStore(&uninterrupted, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := js.Append(ev); err != nil {
			t.Fatalf("append %s: %v", ev.Type, err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut after round 1 settled (index 6: registration + 6 round events).
	cut := 7
	var resumed bytes.Buffer
	first, err := NewJournalStore(&resumed, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal, _, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:cut] {
		if err := first.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil { // the "crash"
		t.Fatal(err)
	}

	wal2, recovered, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewJournalStore(&resumed, recovered)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[cut:] {
		if err := second.Append(ev); err != nil {
			t.Fatalf("append after handover %s: %v", ev.Type, err)
		}
		if err := wal2.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}

	if uninterrupted.String() != resumed.String() {
		t.Errorf("journal diverged across handover:\nuninterrupted %q\nresumed       %q",
			uninterrupted.String(), resumed.String())
	}
	entries, err := ReadJournal(strings.NewReader(resumed.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
	if findings := Audit(entries); len(findings) != 0 {
		t.Errorf("audit of recovered journal: %v", findings)
	}
}

// TestJournalStoreMatchesOnRoundPath: the event-stream journal and
// NewJournalEntry over a round result must produce identical lines for the
// same round (modulo the campaign tag, which only the stream knows).
func TestJournalStoreMatchesOnRoundPath(t *testing.T) {
	events := journalEvents("c")
	var viaStream bytes.Buffer
	js, err := NewJournalStore(&viaStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewState()
	for _, ev := range events {
		if err := js.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(st, ev); err != nil {
			t.Fatal(err)
		}
	}

	var viaOnRound bytes.Buffer
	cs := st.Campaigns["c"]
	for _, rec := range cs.Completed {
		result := RoundResult{
			Bids:        rec.Bids,
			Outcome:     rec.Outcome,
			Settlements: rec.Settlements,
		}
		entry := NewJournalEntry(rec.Round, cs.Spec.Tasks, result)
		entry.Campaign = "c"
		if err := WriteJournal(&viaOnRound, entry); err != nil {
			t.Fatal(err)
		}
	}
	if viaStream.String() != viaOnRound.String() {
		t.Errorf("journal encodings diverged:\nstream  %q\nonround %q",
			viaStream.String(), viaOnRound.String())
	}
}

// TestJournalStoreStickyError: an event that does not fit the state poisons
// the store and every later call reports it.
func TestJournalStoreStickyError(t *testing.T) {
	js, err := NewJournalStore(&bytes.Buffer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := store.Event{Type: store.EventRoundOpened, Campaign: "ghost", Round: 1}
	if err := js.Append(bad); err == nil {
		t.Fatal("append of bad event should fail")
	}
	if err := js.Commit(); err == nil {
		t.Error("commit after poison should fail")
	}
	if err := js.Close(); err == nil {
		t.Error("close after poison should fail")
	}
}
