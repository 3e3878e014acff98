package reputation

import (
	"fmt"
	"sort"
	"sync"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs"
	"crowdsense/internal/store"
)

// SuspectThreshold is the reliability below which a user counts as suspect
// in metrics and reports: her declarations are being discounted by more
// than 10%.
const SuspectThreshold = 0.9

// DefaultReportUsers bounds the per-user detail in Report; the full
// population is still counted in TrackedUsers. /debug/reputation must stay
// cheap at millions of tracked users.
const DefaultReportUsers = 100

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// PriorStrength is the pseudo-evidence pulling unknown users toward
	// reliability 1. Zero means DefaultPriorStrength; negative or NaN is
	// rejected with ErrBadPrior.
	PriorStrength float64
	// ReportUsers bounds Report's per-user detail (0 means
	// DefaultReportUsers; negative means unbounded).
	ReportUsers int
}

// Store is the live learning layer: a concurrency-safe reliability
// estimator that folds the engine's event stream through store.RoundFold —
// bid_admitted carries the declaration, report_received the realized
// EC-trigger outcome, round_settled commits the round's evidence — and serves
// reliability-discounted PoS to winner determination through the
// mechanism.PoSAdjuster hook.
//
// Its one feed is Observe: the engine calls it synchronously on the emit
// path (engine Config.Reputation), and the offline experiment harness calls
// it with the same event sequence. Because per-user evidence accrues in log
// order, a Store fed the same event sequence always reaches the same state —
// Checkpoint is byte-deterministic, which is what lets recovery and failover
// resume with identical r̂.
type Store struct {
	reportUsers int

	mu     sync.RWMutex
	prior  float64
	users  map[auction.UserID]*evidence
	rounds store.RoundFold

	observations uint64 // settlement outcomes committed
	committed    uint64 // rounds whose evidence has been committed
}

// NewStore builds an empty Store.
func NewStore(cfg StoreConfig) (*Store, error) {
	prior, err := checkPrior(cfg.PriorStrength)
	if err != nil {
		return nil, err
	}
	reportUsers := cfg.ReportUsers
	if reportUsers == 0 {
		reportUsers = DefaultReportUsers
	}
	return &Store{
		reportUsers: reportUsers,
		prior:       prior,
		users:       make(map[auction.UserID]*evidence),
	}, nil
}

// Observe folds one event. Evidence commits only when a round settles, so
// it advances at durable round boundaries — the granularity checkpoints are
// emitted at. Rounds whose opening the store did not witness are skipped
// (joining a stream mid-round must not commit partial evidence), and a torn
// round that is reopened after a crash commits nothing. reputation_checkpoint
// events are ignored on purpose: a store following the primitive event
// stream derives the same state the checkpoint serialized, and
// double-applying would double-count.
func (s *Store) Observe(ev store.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rounds.Observe(ev)
	if rec == nil {
		return
	}
	for _, bid := range rec.Bids {
		settle, ok := rec.Settlements[bid.User]
		// The EC trigger's declared probability: the task's PoS in the
		// single-task setting is exactly the one-task CombinedPoS, so one
		// formula covers both settings. A report without a usable
		// declaration has nothing to hold the user against.
		declared := bid.CombinedPoS()
		if !ok || !usableDeclaration(declared) {
			continue
		}
		e := s.users[bid.User]
		if e == nil {
			e = &evidence{}
			s.users[bid.User] = e
		}
		e.observe(declared, settle.Success)
		s.observations++
	}
	s.committed++
}

// Reliability returns the smoothed estimate r̂ for the user, capped;
// unknown users get exactly 1.
func (s *Store) Reliability(user auction.UserID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.users[user].reliability(s.prior)
}

// Observations reports how many committed outcomes the user has.
func (s *Store) Observations(user auction.UserID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ev := s.users[user]; ev != nil {
		return ev.observations
	}
	return 0
}

// AdjustPoS implements mechanism.PoSAdjuster: the mechanism runs on r̂·p̂,
// clamped into [0, 1). Costs stay declared, but the critical PoS and the EC
// reward pair are computed on the adjusted PoS too (see the mechanism's
// PoSAdjuster doc). Safe for concurrent use with the event fold.
func (s *Store) AdjustPoS(user auction.UserID, _ auction.TaskID, declared float64) float64 {
	return discount(declared, s.Reliability(user))
}

// Checkpoint serializes the committed evidence. Users are sorted by ID, so
// two stores with equal learned state produce byte-identical checkpoints —
// the engine emits one as a reputation_checkpoint event after every settled
// round, and recovery asserts byte-equality across kill/restore.
func (s *Store) Checkpoint() store.ReputationCheckpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp := store.ReputationCheckpoint{Prior: s.prior}
	ids := make([]auction.UserID, 0, len(s.users))
	for user := range s.users {
		ids = append(ids, user)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, user := range ids {
		ev := s.users[user]
		cp.Users = append(cp.Users, store.ReputationUser{
			User:         int(user),
			Successes:    ev.successes,
			DeclaredMass: ev.declaredMass,
			Observations: ev.observations,
		})
	}
	return cp
}

// Restore replaces the committed evidence with a checkpoint's — the
// recovery path: engine.Restore (and cluster promotion through it) seeds
// the store from the last durable reputation_checkpoint so the loop resumes
// with exactly the r̂ state the dead process had at its last settled round.
// In-flight rounds are dropped; the reopened round re-folds from the log.
func (s *Store) Restore(cp *store.ReputationCheckpoint) error {
	if cp == nil {
		return nil
	}
	prior, err := checkPrior(cp.Prior)
	if err != nil {
		return fmt.Errorf("reputation: restore checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prior = prior
	s.users = make(map[auction.UserID]*evidence, len(cp.Users))
	total := uint64(0)
	for _, u := range cp.Users {
		s.users[auction.UserID(u.User)] = &evidence{
			successes:    u.Successes,
			declaredMass: u.DeclaredMass,
			observations: u.Observations,
		}
		total += uint64(u.Observations)
	}
	s.rounds = store.RoundFold{}
	s.observations = total
	return nil
}

// Report builds the /debug/reputation payload: headline counters plus the
// worst offenders, bounded by ReportUsers.
func (s *Store) Report() obs.ReputationReport {
	s.mu.RLock()
	rep := obs.ReputationReport{
		Prior:           s.prior,
		TrackedUsers:    len(s.users),
		Observations:    s.observations,
		RoundsCommitted: s.committed,
		Users:           []obs.ReputationUserStatus{},
	}
	users := make([]obs.ReputationUserStatus, 0, len(s.users))
	for user, ev := range s.users {
		r := ev.reliability(s.prior)
		if r < SuspectThreshold {
			rep.SuspectUsers++
		}
		users = append(users, obs.ReputationUserStatus{
			User:         int(user),
			Reliability:  r,
			Observations: ev.observations,
			Successes:    ev.successes,
			DeclaredMass: ev.declaredMass,
		})
	}
	s.mu.RUnlock()
	sort.Slice(users, func(i, j int) bool {
		if users[i].Reliability != users[j].Reliability {
			return users[i].Reliability < users[j].Reliability
		}
		return users[i].User < users[j].User
	})
	if s.reportUsers > 0 && len(users) > s.reportUsers {
		users = users[:s.reportUsers]
	}
	rep.Users = append(rep.Users, users...)
	return rep
}

// Families renders the store as crowdsense_reputation_* metric families.
// Per-user series are deliberately absent — cardinality must stay bounded
// at millions of tracked users; /debug/reputation carries the watch list.
func (s *Store) Families() []obs.Family {
	s.mu.RLock()
	tracked := len(s.users)
	observations := s.observations
	committed := s.committed
	suspects := 0
	min, sum := 1.0, 0.0
	for _, ev := range s.users {
		r := ev.reliability(s.prior)
		if r < SuspectThreshold {
			suspects++
		}
		if r < min {
			min = r
		}
		sum += r
	}
	s.mu.RUnlock()
	mean := 1.0
	if tracked > 0 {
		mean = sum / float64(tracked)
	}
	return []obs.Family{
		{
			Name:    "crowdsense_reputation_tracked_users",
			Help:    "Users with committed execution evidence in the reputation store.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(tracked)}},
		},
		{
			Name:    "crowdsense_reputation_observations_total",
			Help:    "EC-trigger execution outcomes committed into the reputation store.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(observations)}},
		},
		{
			Name:    "crowdsense_reputation_rounds_committed_total",
			Help:    "Settled rounds whose evidence the reputation store has committed.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(committed)}},
		},
		{
			Name:    "crowdsense_reputation_suspect_users",
			Help:    "Tracked users whose reliability estimate is below the suspect threshold (0.9).",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(suspects)}},
		},
		{
			Name:    "crowdsense_reputation_reliability_min",
			Help:    "Lowest reliability estimate across tracked users (1 when none).",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: min}},
		},
		{
			Name:    "crowdsense_reputation_reliability_mean",
			Help:    "Mean reliability estimate across tracked users (1 when none).",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: mean}},
		},
	}
}
