package reputation

import (
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

func mustStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatalf("NewStore(%+v): %v", cfg, err)
	}
	return s
}

func bid(user auction.UserID, pos float64) *auction.Bid {
	b := auction.NewBid(user, []auction.TaskID{1}, 5, map[auction.TaskID]float64{1: pos})
	return &b
}

// roundEvents is the canonical settled-round sequence for one campaign.
func roundEvents(campaign string, round int, declared map[auction.UserID]float64,
	success map[auction.UserID]bool) []store.Event {
	evs := []store.Event{{Type: store.EventRoundOpened, Campaign: campaign, Round: round}}
	for user, p := range declared {
		evs = append(evs, store.Event{Type: store.EventBidAdmitted, Campaign: campaign,
			Round: round, Bid: bid(user, p)})
	}
	for user, ok := range success {
		evs = append(evs, store.Event{Type: store.EventReportReceived, Campaign: campaign,
			Round: round, User: int(user), Settle: &wire.Settle{Success: ok}})
	}
	return append(evs, store.Event{Type: store.EventRoundSettled, Campaign: campaign, Round: round})
}

func feed(s *Store, evs []store.Event) {
	for _, ev := range evs {
		s.Observe(ev)
	}
}

func TestStoreCommitsAtRoundBoundary(t *testing.T) {
	s := mustStore(t, StoreConfig{PriorStrength: 2})
	evs := roundEvents("c", 1,
		map[auction.UserID]float64{7: 0.8},
		map[auction.UserID]bool{7: false})

	// Everything before round_settled is staged, not committed.
	feed(s, evs[:len(evs)-1])
	if got := s.Reliability(7); got != 1 {
		t.Fatalf("reliability mid-round = %v, want 1 (nothing committed)", got)
	}
	if got := s.Observations(7); got != 0 {
		t.Fatalf("observations mid-round = %d, want 0", got)
	}

	s.Observe(evs[len(evs)-1])
	// One failure against a declared 0.8: r̂ = (0 + 2) / (0.8 + 2).
	want := 2.0 / 2.8
	if got := s.Reliability(7); math.Abs(got-want) > 1e-12 {
		t.Errorf("reliability after commit = %v, want %v", got, want)
	}
	if got := s.Observations(7); got != 1 {
		t.Errorf("observations after commit = %d, want 1", got)
	}
	if got := s.AdjustPoS(7, 1, 0.8); math.Abs(got-0.8*want) > 1e-12 {
		t.Errorf("AdjustPoS = %v, want %v", got, 0.8*want)
	}
}

func TestStoreReopenDiscardsTornRound(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	// Round 1 opens, admits, stages a failure — then the round reopens (the
	// crash-recovery path) and settles with no reports at all.
	feed(s, []store.Event{
		{Type: store.EventRoundOpened, Campaign: "c", Round: 1},
		{Type: store.EventBidAdmitted, Campaign: "c", Round: 1, Bid: bid(7, 0.9)},
		{Type: store.EventReportReceived, Campaign: "c", Round: 1, User: 7,
			Settle: &wire.Settle{Success: false}},
		{Type: store.EventRoundOpened, Campaign: "c", Round: 1}, // reopen
		{Type: store.EventRoundSettled, Campaign: "c", Round: 1},
	})
	if got := s.Observations(7); got != 0 {
		t.Errorf("torn round's staged observation committed: observations = %d, want 0", got)
	}
	if got := s.Reliability(7); got != 1 {
		t.Errorf("reliability after torn round = %v, want 1", got)
	}
}

func TestStoreSkipsUnwitnessedRounds(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	// Joining mid-stream: settlement events for a round whose opening the
	// store never saw must not commit anything.
	feed(s, []store.Event{
		{Type: store.EventBidAdmitted, Campaign: "c", Round: 3, Bid: bid(7, 0.9)},
		{Type: store.EventReportReceived, Campaign: "c", Round: 3, User: 7,
			Settle: &wire.Settle{Success: true}},
		{Type: store.EventRoundSettled, Campaign: "c", Round: 3},
	})
	if got := s.Observations(7); got != 0 {
		t.Errorf("unwitnessed round committed evidence: observations = %d, want 0", got)
	}
	// Same for a round-number mismatch within a witnessed campaign.
	feed(s, []store.Event{
		{Type: store.EventRoundOpened, Campaign: "c", Round: 4},
		{Type: store.EventBidAdmitted, Campaign: "c", Round: 5, Bid: bid(8, 0.9)},
		{Type: store.EventReportReceived, Campaign: "c", Round: 5, User: 8,
			Settle: &wire.Settle{Success: true}},
		{Type: store.EventRoundSettled, Campaign: "c", Round: 5},
	})
	if got := s.Observations(8); got != 0 {
		t.Errorf("mismatched round committed evidence: observations = %d, want 0", got)
	}
}

func TestStoreReportWithoutDeclarationIgnored(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	feed(s, []store.Event{
		{Type: store.EventRoundOpened, Campaign: "c", Round: 1},
		// No bid_admitted for user 9: the report has no declaration to hold
		// the user against.
		{Type: store.EventReportReceived, Campaign: "c", Round: 1, User: 9,
			Settle: &wire.Settle{Success: false}},
		{Type: store.EventRoundSettled, Campaign: "c", Round: 1},
	})
	if got := s.Observations(9); got != 0 {
		t.Errorf("report without declaration committed: observations = %d, want 0", got)
	}
}

func TestStoreIgnoresCheckpointEvents(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	feed(s, roundEvents("c", 1,
		map[auction.UserID]float64{7: 0.8},
		map[auction.UserID]bool{7: true}))
	before := s.Checkpoint()

	// A checkpoint event arriving on the stream (the engine emits one after
	// every settled round) must not be folded: the store already derived
	// that state from the primitive events, double-applying would
	// double-count.
	cp := s.Checkpoint()
	s.Observe(store.Event{Type: store.EventReputationCheckpoint, Campaign: "c",
		Round: 1, Reputation: &cp})
	after := s.Checkpoint()
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(after)
	if string(b1) != string(b2) {
		t.Errorf("checkpoint event changed the fold:\nbefore %s\nafter  %s", b1, b2)
	}
}

func TestStoreCheckpointRestoreRoundtrip(t *testing.T) {
	s := mustStore(t, StoreConfig{PriorStrength: 5})
	feed(s, roundEvents("a", 1,
		map[auction.UserID]float64{1: 0.9, 2: 0.6},
		map[auction.UserID]bool{1: false, 2: true}))
	feed(s, roundEvents("b", 1,
		map[auction.UserID]float64{1: 0.8, 3: 0.7},
		map[auction.UserID]bool{1: true, 3: true}))

	cp := s.Checkpoint()
	// Users must be sorted by ID — the byte-determinism contract.
	for i := 1; i < len(cp.Users); i++ {
		if cp.Users[i-1].User >= cp.Users[i].User {
			t.Fatalf("checkpoint users not sorted: %+v", cp.Users)
		}
	}

	restored := mustStore(t, StoreConfig{})
	if err := restored.Restore(&cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	b1, _ := json.Marshal(cp)
	b2, _ := json.Marshal(restored.Checkpoint())
	if string(b1) != string(b2) {
		t.Errorf("restore roundtrip diverged:\noriginal %s\nrestored %s", b1, b2)
	}
	for _, user := range []auction.UserID{1, 2, 3} {
		if got, want := restored.Reliability(user), s.Reliability(user); got != want {
			t.Errorf("restored reliability(%d) = %v, want %v", user, got, want)
		}
	}

	// Restore(nil) is a no-op; a poisoned prior is rejected.
	if err := restored.Restore(nil); err != nil {
		t.Errorf("Restore(nil) = %v, want nil", err)
	}
	if err := restored.Restore(&store.ReputationCheckpoint{Prior: math.NaN()}); !errors.Is(err, ErrBadPrior) {
		t.Errorf("Restore(NaN prior) = %v, want ErrBadPrior", err)
	}
}

func TestStoreReportAndFamilies(t *testing.T) {
	s := mustStore(t, StoreConfig{ReportUsers: 1})
	feed(s, roundEvents("c", 1,
		map[auction.UserID]float64{1: 0.9, 2: 0.5},
		map[auction.UserID]bool{1: false, 2: true}))

	rep := s.Report()
	if rep.TrackedUsers != 2 || rep.Observations != 2 || rep.RoundsCommitted != 1 {
		t.Errorf("report headline = %+v, want 2 users, 2 observations, 1 round", rep)
	}
	if len(rep.Users) != 1 || rep.Users[0].User != 1 {
		t.Errorf("report users = %+v, want just the worst offender (user 1)", rep.Users)
	}
	if rep.SuspectUsers != 1 {
		t.Errorf("suspect users = %d, want 1 (user 1 fell below %v)", rep.SuspectUsers, SuspectThreshold)
	}

	fams := s.Families()
	byName := map[string]float64{}
	for _, f := range fams {
		if len(f.Samples) != 1 {
			t.Fatalf("family %s has %d samples, want 1", f.Name, len(f.Samples))
		}
		byName[f.Name] = f.Samples[0].Value
	}
	if byName["crowdsense_reputation_tracked_users"] != 2 {
		t.Errorf("tracked_users = %v, want 2", byName["crowdsense_reputation_tracked_users"])
	}
	if byName["crowdsense_reputation_observations_total"] != 2 {
		t.Errorf("observations_total = %v, want 2", byName["crowdsense_reputation_observations_total"])
	}
	if byName["crowdsense_reputation_suspect_users"] != 1 {
		t.Errorf("suspect_users = %v, want 1", byName["crowdsense_reputation_suspect_users"])
	}
	if byName["crowdsense_reputation_reliability_min"] >= 1 {
		t.Errorf("reliability_min = %v, want < 1", byName["crowdsense_reputation_reliability_min"])
	}
}

// TestStoreConcurrentFoldAndRead exercises the fold, the adjuster, the
// checkpoint, and the report paths concurrently — meaningful under -race.
func TestStoreConcurrentFoldAndRead(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			campaign := string(rune('a' + g))
			for round := 1; round <= 50; round++ {
				user := auction.UserID(g*100 + round)
				feed(s, roundEvents(campaign, round,
					map[auction.UserID]float64{user: 0.8},
					map[auction.UserID]bool{user: round%2 == 0}))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.AdjustPoS(auction.UserID(i), 1, 0.7)
			s.Checkpoint()
			s.Report()
			s.Families()
		}
	}()
	wg.Wait()
	cp := s.Checkpoint()
	if len(cp.Users) != 200 {
		t.Errorf("tracked %d users after concurrent fold, want 200", len(cp.Users))
	}
}
