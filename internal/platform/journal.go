package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"crowdsense/internal/auction"
	"crowdsense/internal/store"
)

// JournalEntry is the durable record of one auction round, written as one
// JSON line. It captures everything needed to audit the round offline:
// tasks, every bid, the outcome with all EC contracts, and the settlements.
type JournalEntry struct {
	Campaign    string          `json:"campaign,omitempty"`
	Round       int             `json:"round"`
	Mechanism   string          `json:"mechanism,omitempty"`
	Tasks       []journalTask   `json:"tasks"`
	Bids        []journalBid    `json:"bids"`
	Winners     []journalAward  `json:"winners,omitempty"`
	Settlements []journalSettle `json:"settlements,omitempty"`
	SocialCost  float64         `json:"social_cost"`
	Alpha       float64         `json:"alpha,omitempty"`
	Error       string          `json:"error,omitempty"`
}

type journalTask struct {
	ID          int     `json:"id"`
	Requirement float64 `json:"requirement"`
}

type journalBid struct {
	User  int             `json:"user"`
	Cost  float64         `json:"cost"`
	Tasks []int           `json:"tasks"`
	PoS   map[int]float64 `json:"pos"`
}

type journalAward struct {
	User            int     `json:"user"`
	CriticalPoS     float64 `json:"critical_pos"`
	RewardOnSuccess float64 `json:"reward_on_success"`
	RewardOnFailure float64 `json:"reward_on_failure"`
}

type journalSettle struct {
	User    int     `json:"user"`
	Success bool    `json:"success"`
	Reward  float64 `json:"reward"`
	Utility float64 `json:"utility"`
}

// NewJournalEntry converts a completed round into its durable form. It is a
// thin wrapper over the event-stream path: the result is expressed as the
// store.RoundRecord the reducer would have built, so live rounds and WAL
// replays produce identical entries.
func NewJournalEntry(round int, tasks []auction.Task, result RoundResult) JournalEntry {
	rec := store.RoundRecord{
		Round:       round,
		Bids:        result.Bids,
		Outcome:     result.Outcome,
		Settlements: result.Settlements,
	}
	if result.Err != nil {
		rec.Err = result.Err.Error()
	}
	return EntryFromRecord("", tasks, rec)
}

// EntryFromRecord converts one reduced round record into its journal form —
// the single encoding shared by NewJournalEntry, event-stream consumers
// (JournalStore), and the live auditor. Settlements are emitted in
// user order so entries are byte-stable across runs and replays.
func EntryFromRecord(campaignID string, tasks []auction.Task, rec store.RoundRecord) JournalEntry {
	entry := JournalEntry{Campaign: campaignID, Round: rec.Round}
	for _, t := range tasks {
		entry.Tasks = append(entry.Tasks, journalTask{ID: int(t.ID), Requirement: t.Requirement})
	}
	for _, b := range rec.Bids {
		jb := journalBid{User: int(b.User), Cost: b.Cost, PoS: make(map[int]float64, len(b.PoS))}
		for _, id := range b.Tasks {
			jb.Tasks = append(jb.Tasks, int(id))
			jb.PoS[int(id)] = b.PoS[id]
		}
		entry.Bids = append(entry.Bids, jb)
	}
	if rec.Err != "" {
		entry.Error = rec.Err
		return entry
	}
	if out := rec.Outcome; out != nil {
		entry.Mechanism = out.Mechanism
		entry.SocialCost = out.SocialCost
		entry.Alpha = out.Alpha
		for _, aw := range out.Awards {
			entry.Winners = append(entry.Winners, journalAward{
				User:            int(aw.User),
				CriticalPoS:     aw.CriticalPoS,
				RewardOnSuccess: aw.RewardOnSuccess,
				RewardOnFailure: aw.RewardOnFailure,
			})
		}
	}
	for user, s := range rec.Settlements {
		entry.Settlements = append(entry.Settlements, journalSettle{
			User: int(user), Success: s.Success, Reward: s.Reward, Utility: s.Utility,
		})
	}
	sort.Slice(entry.Settlements, func(i, j int) bool {
		return entry.Settlements[i].User < entry.Settlements[j].User
	})
	return entry
}

// WriteJournal appends entries to w, one JSON line each.
func WriteJournal(w io.Writer, entries ...JournalEntry) error {
	enc := json.NewEncoder(w)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return fmt.Errorf("platform: write journal entry %d: %w", i, err)
		}
	}
	return nil
}

// ReadJournal decodes every entry from r.
func ReadJournal(r io.Reader) ([]JournalEntry, error) {
	dec := json.NewDecoder(r)
	var entries []JournalEntry
	for {
		var e JournalEntry
		if err := dec.Decode(&e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, fmt.Errorf("platform: read journal entry %d: %w", len(entries), err)
		}
		entries = append(entries, e)
	}
}

// Audit rule identifiers. Each AuditFinding names the rule that produced it
// so consumers (metrics labels, the live auditor) can aggregate by failure
// class without parsing the human-readable Problem text.
const (
	RuleRewardGap  = "reward_gap"             // EC success/failure gap must equal α
	RuleSocialCost = "social_cost"            // recorded social cost vs winners' bid costs
	RuleContract   = "settlement_contract"    // paid amount vs the recorded EC contract
	RuleNonWinner  = "non_winner_settlement"  // settlement for a user who won nothing
	RuleUtility    = "utility"                // utility vs reward − declared cost
	RuleIR         = "individual_rationality" // successful winners paid ≥ declared cost
	RuleBudget     = "budget"                 // rewards inside the α band around cost
)

// AuditFinding is one inconsistency discovered while checking a round.
type AuditFinding struct {
	Round   int
	User    int
	Rule    string
	Problem string
}

func (f AuditFinding) String() string {
	return fmt.Sprintf("round %d user %d: %s", f.Round, f.User, f.Problem)
}

// auditTol absorbs float drift from the mechanism's payment arithmetic; the
// invariants below are exact in exact arithmetic.
const auditTol = 1e-6

// CheckRound evaluates every mechanism invariant against one journal entry:
// settlements must match the recorded EC contracts, social cost must equal
// the winners' bid costs, the success/failure reward gap must equal α,
// successful winners must be individually rational (paid at least their
// declared cost), and every reward must sit inside the α band around the
// declared cost that budget feasibility implies (reward-on-success ≤ c+α,
// reward-on-failure ≥ c−α, total paid ≤ social cost + winners·α). Void
// rounds (entry.Error set) check clean by definition. This is the shared
// rule set behind the offline cmd/audit replay and the live auditor.
func CheckRound(e JournalEntry) []AuditFinding {
	if e.Error != "" {
		return nil // void round: nothing to check
	}
	var findings []AuditFinding
	costs := make(map[int]float64, len(e.Bids))
	for _, b := range e.Bids {
		costs[b.User] = b.Cost
	}
	awards := make(map[int]journalAward, len(e.Winners))
	totalCost := 0.0
	for _, w := range e.Winners {
		awards[w.User] = w
		totalCost += costs[w.User]
		if e.Alpha > 0 {
			gap := w.RewardOnSuccess - w.RewardOnFailure
			if abs(gap-e.Alpha) > auditTol {
				findings = append(findings, AuditFinding{
					Round: e.Round, User: w.User, Rule: RuleRewardGap,
					Problem: fmt.Sprintf("EC reward gap %g mismatches α %g", gap, e.Alpha),
				})
			}
			if w.RewardOnSuccess > costs[w.User]+e.Alpha+auditTol {
				findings = append(findings, AuditFinding{
					Round: e.Round, User: w.User, Rule: RuleBudget,
					Problem: fmt.Sprintf("success reward %g exceeds cost %g + α %g budget band",
						w.RewardOnSuccess, costs[w.User], e.Alpha),
				})
			}
			if w.RewardOnFailure < costs[w.User]-e.Alpha-auditTol {
				findings = append(findings, AuditFinding{
					Round: e.Round, User: w.User, Rule: RuleBudget,
					Problem: fmt.Sprintf("failure reward %g below cost %g − α %g budget band",
						w.RewardOnFailure, costs[w.User], e.Alpha),
				})
			}
		}
		if w.RewardOnSuccess < costs[w.User]-auditTol {
			findings = append(findings, AuditFinding{
				Round: e.Round, User: w.User, Rule: RuleIR,
				Problem: fmt.Sprintf("success reward %g below declared cost %g (not individually rational)",
					w.RewardOnSuccess, costs[w.User]),
			})
		}
	}
	if abs(totalCost-e.SocialCost) > auditTol {
		findings = append(findings, AuditFinding{
			Round: e.Round, Rule: RuleSocialCost,
			Problem: fmt.Sprintf("social cost %g mismatches winners' bid costs %g",
				e.SocialCost, totalCost),
		})
	}
	totalPaid := 0.0
	for _, s := range e.Settlements {
		aw, ok := awards[s.User]
		if !ok {
			findings = append(findings, AuditFinding{
				Round: e.Round, User: s.User, Rule: RuleNonWinner,
				Problem: "settlement for a non-winner",
			})
			continue
		}
		totalPaid += s.Reward
		want := aw.RewardOnFailure
		if s.Success {
			want = aw.RewardOnSuccess
		}
		if abs(s.Reward-want) > auditTol {
			findings = append(findings, AuditFinding{
				Round: e.Round, User: s.User, Rule: RuleContract,
				Problem: fmt.Sprintf("paid %g, contract says %g", s.Reward, want),
			})
		}
		if s.Success && s.Reward < costs[s.User]-auditTol {
			findings = append(findings, AuditFinding{
				Round: e.Round, User: s.User, Rule: RuleIR,
				Problem: fmt.Sprintf("successful winner paid %g below declared cost %g (not individually rational)",
					s.Reward, costs[s.User]),
			})
		}
		if abs(s.Utility-(s.Reward-costs[s.User])) > auditTol {
			findings = append(findings, AuditFinding{
				Round: e.Round, User: s.User, Rule: RuleUtility,
				Problem: fmt.Sprintf("utility %g mismatches reward %g − cost %g",
					s.Utility, s.Reward, costs[s.User]),
			})
		}
	}
	if e.Alpha > 0 && totalPaid > e.SocialCost+float64(len(e.Winners))*e.Alpha+auditTol {
		findings = append(findings, AuditFinding{
			Round: e.Round, Rule: RuleBudget,
			Problem: fmt.Sprintf("total paid %g exceeds budget bound social cost %g + %d winners × α %g",
				totalPaid, e.SocialCost, len(e.Winners), e.Alpha),
		})
	}
	return findings
}

// Audit replays journal entries and cross-checks the platform's own
// arithmetic with CheckRound, returning every inconsistency found (none for
// a healthy journal).
func Audit(entries []JournalEntry) []AuditFinding {
	var findings []AuditFinding
	for _, e := range entries {
		findings = append(findings, CheckRound(e)...)
	}
	return findings
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// JournalSummary aggregates a journal for reporting.
type JournalSummary struct {
	Rounds      int
	VoidRounds  int
	TotalBids   int
	TotalPaid   float64
	SocialCost  float64
	SuccessRate float64 // fraction of settled winners whose EC trigger fired
}

// Summarize computes aggregate statistics over a journal.
func Summarize(entries []JournalEntry) JournalSummary {
	var s JournalSummary
	settled, succeeded := 0, 0
	for _, e := range entries {
		s.Rounds++
		if e.Error != "" {
			s.VoidRounds++
			continue
		}
		s.TotalBids += len(e.Bids)
		s.SocialCost += e.SocialCost
		for _, st := range e.Settlements {
			s.TotalPaid += st.Reward
			settled++
			if st.Success {
				succeeded++
			}
		}
	}
	if settled > 0 {
		s.SuccessRate = float64(succeeded) / float64(settled)
	}
	return s
}
