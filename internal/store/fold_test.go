package store

import (
	"reflect"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/wire"
)

// recordedStream writes three interleaved campaigns through a WAL and reads
// the events back as the log recorded them:
//   - c1 runs three rounds; its second is torn (a bid and an outcome are
//     admitted) and reopened, as recovery does;
//   - c2 runs two rounds, the second void;
//   - c3 settles one round and finishes mid-stream with its second round in
//     flight.
//
// Reputation checkpoints follow settled rounds, as the engine emits them.
func recordedStream(t *testing.T) []Event {
	t.Helper()
	open := func(c string, r int) Event { return Event{Type: EventRoundOpened, Campaign: c, Round: r} }
	bid := func(c string, r, user int) Event {
		return Event{Type: EventBidAdmitted, Campaign: c, Round: r, Bid: testBid(auction.UserID(user))}
	}
	win := func(c string, r int) Event {
		return Event{Type: EventWinnersDetermined, Campaign: c, Round: r,
			Outcome: &mechanism.Outcome{Mechanism: "ec", Selected: []int{0}, SocialCost: 5, Alpha: 1.5}}
	}
	void := func(c string, r int) Event {
		return Event{Type: EventWinnersDetermined, Campaign: c, Round: r, Err: "requirement unreachable"}
	}
	report := func(c string, r, user int, ok bool) Event {
		return Event{Type: EventReportReceived, Campaign: c, Round: r, User: user,
			Settle: &wire.Settle{Success: ok, Reward: 6, Utility: 1}}
	}
	settle := func(c string, r int, errText string) Event {
		return Event{Type: EventRoundSettled, Campaign: c, Round: r, Err: errText,
			RoundNanos: int64(1000 * r), ComputeNanos: int64(10 * r)}
	}
	checkpoint := func(c string, r int) Event {
		return Event{Type: EventReputationCheckpoint, Campaign: c, Round: r,
			Reputation: &ReputationCheckpoint{Prior: 3, Users: []ReputationUser{{User: 1, Observations: r}}}}
	}
	evs := []Event{
		{Type: EventCampaignRegistered, Campaign: "c1", Spec: testSpec("c1")},
		{Type: EventCampaignRegistered, Campaign: "c2", Spec: testSpec("c2")},
		open("c1", 1), open("c2", 1),
		bid("c1", 1, 1), bid("c2", 1, 3), bid("c1", 1, 2), bid("c2", 1, 4),
		win("c2", 1), win("c1", 1),
		report("c1", 1, 1, true), report("c2", 1, 3, false),
		settle("c2", 1, ""), checkpoint("c2", 1),
		{Type: EventCampaignRegistered, Campaign: "c3", Spec: testSpec("c3")},
		open("c3", 1), open("c2", 2),
		settle("c1", 1, ""), checkpoint("c1", 1),
		open("c1", 2), bid("c3", 1, 5), bid("c1", 2, 1), bid("c2", 2, 3), win("c1", 2),
		win("c3", 1),
		open("c1", 2), // the torn round 2 reopens: its bid and outcome are void
		bid("c1", 2, 2), bid("c1", 2, 1), void("c2", 2), report("c3", 1, 5, true),
		settle("c3", 1, ""), open("c3", 2), bid("c3", 2, 6),
		win("c1", 2), settle("c2", 2, "requirement unreachable"),
		{Type: EventCampaignFinished, Campaign: "c3"}, // round 2 in flight
		report("c1", 2, 2, false), report("c1", 2, 1, true),
		{Type: EventCampaignFinished, Campaign: "c2"},
		settle("c1", 2, ""), checkpoint("c1", 2),
		open("c1", 3), bid("c1", 3, 1), win("c1", 3), report("c1", 3, 1, true),
		settle("c1", 3, ""),
		{Type: EventCampaignFinished, Campaign: "c1"},
	}

	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatalf("append %s %s/%d: %v", ev.Type, ev.Campaign, ev.Round, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recorded, _, err := readEventRange(dir, cursor{}, 0, uint64(len(evs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) != len(evs) {
		t.Fatalf("WAL recorded %d events, want %d", len(recorded), len(evs))
	}
	return recorded
}

// TestRoundFoldSettlesAsApplyArchives: on a stream the reducer accepts,
// every round RoundFold settles equals the record Apply archives into
// Completed — from the start of the stream, and from every later join
// point, where exactly the rounds whose final round_opened the fold saw
// settle.
func TestRoundFoldSettlesAsApplyArchives(t *testing.T) {
	evs := recordedStream(t)
	st := NewState()
	var fold RoundFold
	settled := map[string][]RoundRecord{}
	type settle struct{ at, openedAt int }
	var settles []settle
	lastOpen := map[string]int{}
	for i, ev := range evs {
		if err := Apply(st, ev); err != nil {
			t.Fatalf("apply #%d %s: %v", i, ev.Type, err)
		}
		if rec := fold.Observe(ev); rec != nil {
			settled[ev.Campaign] = append(settled[ev.Campaign], *rec)
		}
		switch ev.Type {
		case EventRoundOpened:
			lastOpen[ev.Campaign] = i
		case EventRoundSettled:
			settles = append(settles, settle{at: i, openedAt: lastOpen[ev.Campaign]})
		}
	}
	for id, want := range map[string]int{"c1": 3, "c2": 2, "c3": 1} {
		if got := len(st.Campaigns[id].Completed); got != want {
			t.Fatalf("Apply archived %d rounds of %s, want %d", got, id, want)
		}
	}
	for id, cs := range st.Campaigns {
		if !reflect.DeepEqual(settled[id], cs.Completed) {
			t.Errorf("%s: RoundFold settled\n  %+v\nApply archived\n  %+v", id, settled[id], cs.Completed)
		}
	}
	if len(fold.inFlight) != 0 {
		t.Errorf("fold holds %d in-flight rounds after every campaign finished", len(fold.inFlight))
	}

	// Mid-stream joins.
	for k := range evs {
		var late RoundFold
		got := 0
		for _, ev := range evs[k:] {
			rec := late.Observe(ev)
			if rec == nil {
				continue
			}
			got++
			if want := st.Campaigns[ev.Campaign].Completed[rec.Round-1]; !reflect.DeepEqual(*rec, want) {
				t.Errorf("join at #%d: %s round %d settled as\n  %+v\nwant\n  %+v", k, ev.Campaign, rec.Round, *rec, want)
			}
		}
		want := 0
		for _, s := range settles {
			if s.at >= k && s.openedAt >= k {
				want++
			}
		}
		if got != want {
			t.Errorf("join at #%d: settled %d rounds, want %d", k, got, want)
		}
	}
}

// TestRoundFoldIgnoresMalformedEvents: a lenient fold drops what Apply
// would reject for its payload instead of panicking on it.
func TestRoundFoldIgnoresMalformedEvents(t *testing.T) {
	var fold RoundFold
	fold.Observe(Event{Type: EventRoundOpened, Campaign: "c", Round: 1})
	for _, ev := range []Event{
		{Type: EventBidAdmitted, Campaign: "c", Round: 1},                 // no bid
		{Type: EventReportReceived, Campaign: "c", Round: 1, User: 1},     // no settle
		{Type: EventWinnersDetermined, Campaign: "c", Round: 1},           // no outcome or error
		{Type: EventBidAdmitted, Round: 1, Bid: testBid(1)},               // no campaign
		{Type: "bid_withdrawn", Campaign: "c", Round: 1, Bid: testBid(1)}, // unknown type
	} {
		if rec := fold.Observe(ev); rec != nil {
			t.Fatalf("malformed %q event settled a round", ev.Type)
		}
	}
	rec := fold.Observe(Event{Type: EventRoundSettled, Campaign: "c", Round: 1})
	if rec == nil {
		t.Fatal("round 1 did not settle")
	}
	if want := (RoundRecord{Round: 1}); !reflect.DeepEqual(*rec, want) {
		t.Errorf("settled %+v, want the empty round %+v", *rec, want)
	}
}
