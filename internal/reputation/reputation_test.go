package reputation

import (
	"errors"
	"math"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/stats"
)

// observeRound feeds one settled round in which a single user declared
// declaredPoS and either succeeded or failed.
func observeRound(s *Store, round int, user auction.UserID, declaredPoS float64, success bool) {
	feed(s, roundEvents("c", round,
		map[auction.UserID]float64{user: declaredPoS},
		map[auction.UserID]bool{user: success}))
}

func TestNewStoreValidation(t *testing.T) {
	cases := []struct {
		name  string
		prior float64
		bad   bool
	}{
		{"default", 0, false},
		{"weak", 0.5, false},
		{"strong", 50, false},
		{"negative", -1, true},
		{"NaN", math.NaN(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewStore(StoreConfig{PriorStrength: c.prior})
			if c.bad {
				if err == nil {
					t.Fatalf("prior %g should be rejected", c.prior)
				}
				if !errors.Is(err, ErrBadPrior) {
					t.Errorf("error %v is not ErrBadPrior", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.prior <= 0 {
				t.Errorf("resolved prior = %g, want positive", s.prior)
			}
		})
	}
	if s := mustStore(t, StoreConfig{}); s.prior != DefaultPriorStrength {
		t.Errorf("zero prior resolved to %g, want default %g", s.prior, DefaultPriorStrength)
	}
}

// TestObserveValidation: a report whose admitted declaration is outside
// (0, 1) carries no evidence the user can be held against, so Observe
// commits nothing for it.
func TestObserveValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		pos  float64
	}{
		{"zero", 0},
		{"one", 1},
		{"negative", -0.2},
		{"above one", 1.4},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mustStore(t, StoreConfig{})
			observeRound(s, 1, 1, c.pos, true)
			if got := s.Observations(1); got != 0 {
				t.Errorf("declared PoS %g committed %d observations, want 0", c.pos, got)
			}
			observeRound(s, 2, 1, 0.5, true)
			if got := s.Observations(1); got != 1 {
				t.Errorf("observations after a usable round = %d, want 1", got)
			}
		})
	}
}

func TestUnknownUserTrusted(t *testing.T) {
	s := mustStore(t, StoreConfig{})
	if r := s.Reliability(42); r != 1 {
		t.Errorf("unknown reliability = %g, want 1", r)
	}
	if got := s.AdjustPoS(42, 1, 0.3); got != 0.3 {
		t.Errorf("unknown discount changed the declaration: %g", got)
	}
	if s.Observations(42) != 0 {
		t.Error("unknown user has observations")
	}
}

func TestEstimatorConverges(t *testing.T) {
	rng := stats.NewRand(1)
	cases := []struct {
		name string
		r    float64 // true reliability
	}{
		{"honest", 1.0},
		{"over-claimer", 0.5},
		{"slight optimist", 0.8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustStore(t, StoreConfig{})
			const rounds = 3000
			for round := 1; round <= rounds; round++ {
				declared := stats.Uniform(rng, 0.2, 0.9)
				observeRound(s, round, 7, declared, stats.Bernoulli(rng, declared*c.r))
			}
			if got := s.Reliability(7); math.Abs(got-c.r) > 0.05 {
				t.Errorf("reliability = %g, want ≈ %g", got, c.r)
			}
		})
	}
}

func TestReliabilityCapped(t *testing.T) {
	s := mustStore(t, StoreConfig{PriorStrength: 1})
	// A user who always succeeds despite declaring 0.1: raw estimate would
	// blow past the cap.
	for round := 1; round <= 500; round++ {
		observeRound(s, round, 1, 0.1, true)
	}
	if r := s.Reliability(1); r != 1.2 {
		t.Errorf("reliability = %g, want the 1.2 cap", r)
	}
}

func TestDiscountClamps(t *testing.T) {
	s := mustStore(t, StoreConfig{PriorStrength: 1})
	for round := 1; round <= 500; round++ {
		observeRound(s, round, 1, 0.5, true)
	}
	// Reliability 1.2 × declared 0.9 would exceed 1: clamped below 1.
	if p := s.AdjustPoS(1, 1, 0.9); p >= 1 {
		t.Errorf("discounted PoS %g not clamped below 1", p)
	}
}

func TestReportOrdersWorstFirst(t *testing.T) {
	s := mustStore(t, StoreConfig{PriorStrength: 1})
	for round := 1; round <= 200; round++ {
		feed(s, roundEvents("c", round,
			map[auction.UserID]float64{1: 0.8, 2: 0.8, 3: 0.8, 4: 0.8, 5: 0.8},
			map[auction.UserID]bool{
				1: true,           // reliable
				2: round%5 == 0,   // unreliable
				3: round%2 == 0,   // middling
				4: round%2 == 0,   // ties with 3
				5: round%5 == 0})) // ties with 2
	}
	rep := s.Report()
	var order []int
	for _, u := range rep.Users {
		order = append(order, u.User)
	}
	want := []int{2, 5, 3, 4, 1}
	if len(order) != len(want) {
		t.Fatalf("report users = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("report order = %v, want %v (worst first, ties by user ID)", order, want)
		}
	}
	for i := 1; i < len(rep.Users); i++ {
		if rep.Users[i].Reliability < rep.Users[i-1].Reliability {
			t.Error("report not ascending in reliability")
		}
	}
}

func TestPriorPullsTowardOne(t *testing.T) {
	weak := mustStore(t, StoreConfig{PriorStrength: 0.5})
	strong := mustStore(t, StoreConfig{PriorStrength: 50})
	for round := 1; round <= 10; round++ {
		observeRound(weak, round, 1, 0.8, false)
		observeRound(strong, round, 1, 0.8, false)
	}
	if weak.Reliability(1) >= strong.Reliability(1) {
		t.Errorf("weak prior %g should discount faster than strong %g",
			weak.Reliability(1), strong.Reliability(1))
	}
}
