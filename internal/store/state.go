package store

import (
	"encoding/json"
	"fmt"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/wire"
)

// RoundRecord is the reduced view of one round: everything the platform
// needs to rebuild the round's result (and its journal entry) offline.
type RoundRecord struct {
	Round        int                            `json:"round"` // 1-based
	Bids         []auction.Bid                  `json:"bids,omitempty"`
	Outcome      *mechanism.Outcome             `json:"outcome,omitempty"`
	Settlements  map[auction.UserID]wire.Settle `json:"settlements,omitempty"`
	Err          string                         `json:"err,omitempty"`
	RoundNanos   int64                          `json:"round_ns,omitempty"`
	ComputeNanos int64                          `json:"compute_ns,omitempty"`
}

// CampaignState is the reduced view of one campaign.
type CampaignState struct {
	Spec      CampaignSpec  `json:"spec"`
	Completed []RoundRecord `json:"completed,omitempty"`
	Current   *RoundRecord  `json:"current,omitempty"` // in-flight round, nil between rounds / when finished
	Finished  bool          `json:"finished,omitempty"`
}

// NextRound returns the 1-based round the campaign would serve next: the
// current in-flight round, or the one after the last completed.
func (cs *CampaignState) NextRound() int {
	if cs.Current != nil {
		return cs.Current.Round
	}
	return len(cs.Completed) + 1
}

// State is the reduction of an event stream: every campaign's durable
// position. It is the unit snapshots serialize and recovery restores.
type State struct {
	Campaigns map[string]*CampaignState `json:"campaigns"`
	Order     []string                  `json:"order,omitempty"` // registration order
	LastSeq   uint64                    `json:"last_seq,omitempty"`

	// Reputation is the latest learned-reliability checkpoint (nil until an
	// engine running the closed reputation loop settles its first round).
	// Recovery and promotion seed the live reputation store from it.
	Reputation *ReputationCheckpoint `json:"reputation,omitempty"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Campaigns: make(map[string]*CampaignState)}
}

// Clone deep-copies the state through its JSON form. Recovery-path only,
// where fidelity matters more than speed.
func (s *State) Clone() (*State, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("store: clone state: %w", err)
	}
	out := NewState()
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("store: clone state: %w", err)
	}
	return out, nil
}

// Apply folds one event into the state. It is the single reducer every
// consumer shares — the WAL's snapshot state, MemStore, recovery replay,
// and the round journal all advance through this function, so their views
// can never diverge. Apply is deterministic and side-effect free beyond the
// state itself; an event that does not fit the current state returns an
// error wrapping ErrBadEvent and leaves the state unchanged.
func Apply(s *State, ev Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	if s.Campaigns == nil {
		s.Campaigns = make(map[string]*CampaignState)
	}
	cs := s.Campaigns[ev.Campaign]
	switch ev.Type {
	case EventCampaignRegistered:
		if cs != nil {
			return fmt.Errorf("%w: campaign %q registered twice", ErrBadEvent, ev.Campaign)
		}
		s.Campaigns[ev.Campaign] = &CampaignState{Spec: *ev.Spec}
		s.Order = append(s.Order, ev.Campaign)
	case EventRoundOpened:
		if cs == nil {
			return unknownCampaign(ev)
		}
		if cs.Finished {
			return fmt.Errorf("%w: round %d opened on finished campaign %q", ErrBadEvent, ev.Round, ev.Campaign)
		}
		// Reopening the in-flight round (ev.Round == Current.Round) is the
		// recovery path: the fresh record discards the torn round's bids.
		if want := len(cs.Completed) + 1; ev.Round != want {
			return fmt.Errorf("%w: campaign %q opened round %d, want %d", ErrBadEvent, ev.Campaign, ev.Round, want)
		}
		cs.Current = &RoundRecord{Round: ev.Round}
	case EventBidAdmitted, EventWinnersDetermined, EventReportReceived, EventRoundSettled:
		rec, err := currentRound(cs, ev)
		if err != nil {
			return err
		}
		if stepRound(rec, ev) {
			cs.Completed = append(cs.Completed, *rec)
			cs.Current = nil
		}
	case EventCampaignFinished:
		if cs == nil {
			return unknownCampaign(ev)
		}
		cs.Finished = true
		cs.Current = nil
	case EventReputationCheckpoint:
		if cs == nil {
			return unknownCampaign(ev)
		}
		cp := *ev.Reputation
		cp.Users = append([]ReputationUser(nil), ev.Reputation.Users...)
		s.Reputation = &cp
	}
	if ev.Seq > 0 {
		s.LastSeq = ev.Seq
	}
	return nil
}

// stepRound folds one in-flight-round event (bid_admitted,
// winners_determined, report_received, round_settled) into its round's
// record and reports whether the event settled the round. It is the one
// event → RoundRecord mapping: Apply and RoundFold both advance through it.
// The event must be valid (Event.Validate).
func stepRound(rec *RoundRecord, ev Event) (settled bool) {
	switch ev.Type {
	case EventBidAdmitted:
		rec.Bids = append(rec.Bids, *ev.Bid)
	case EventWinnersDetermined:
		rec.Outcome = ev.Outcome
		rec.Err = ev.Err
	case EventReportReceived:
		if rec.Settlements == nil {
			rec.Settlements = make(map[auction.UserID]wire.Settle)
		}
		rec.Settlements[auction.UserID(ev.User)] = *ev.Settle
	case EventRoundSettled:
		rec.Err = ev.Err
		rec.RoundNanos = ev.RoundNanos
		rec.ComputeNanos = ev.ComputeNanos
		return true
	}
	return false
}

// RoundFold is the lenient counterpart of Apply for consumers that act on
// each settled round — the live auditor and the reputation loop — and may
// join a stream at any point. It holds only each campaign's in-flight round,
// never history, so it can run forever next to the engine:
//
//   - round_opened starts a fresh record, so a reopen after a crash discards
//     the torn round, exactly as Apply does;
//   - events for a round that is not in flight are ignored, so a consumer
//     that joins mid-round never sees a partial record;
//   - campaign_finished drops the campaign's record;
//   - malformed events and every other event type are ignored.
//
// Where Apply would accept the stream, each record RoundFold settles equals
// the one Apply archives into CampaignState.Completed. The zero value is
// ready to use; it is not safe for concurrent use.
type RoundFold struct {
	inFlight map[string]*RoundRecord // campaign → in-flight round
}

// Observe folds one event and returns the round's record when the event
// settles a round the fold saw open, nil otherwise.
func (f *RoundFold) Observe(ev Event) *RoundRecord {
	if ev.Validate() != nil {
		return nil
	}
	switch ev.Type {
	case EventRoundOpened:
		if f.inFlight == nil {
			f.inFlight = make(map[string]*RoundRecord)
		}
		f.inFlight[ev.Campaign] = &RoundRecord{Round: ev.Round}
	case EventCampaignFinished:
		delete(f.inFlight, ev.Campaign)
	default:
		rec := f.inFlight[ev.Campaign]
		if rec == nil || rec.Round != ev.Round || !stepRound(rec, ev) {
			return nil
		}
		delete(f.inFlight, ev.Campaign)
		return rec
	}
	return nil
}

func unknownCampaign(ev Event) error {
	return fmt.Errorf("%w: %q event for unknown campaign %q", ErrBadEvent, ev.Type, ev.Campaign)
}

func currentRound(cs *CampaignState, ev Event) (*RoundRecord, error) {
	if cs == nil {
		return nil, unknownCampaign(ev)
	}
	if cs.Current == nil || cs.Current.Round != ev.Round {
		return nil, fmt.Errorf("%w: %q event for round %d of campaign %q, which is not in flight",
			ErrBadEvent, ev.Type, ev.Round, ev.Campaign)
	}
	return cs.Current, nil
}
