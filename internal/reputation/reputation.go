// Package reputation lets the platform learn, across auction rounds, how
// trustworthy each user's PoS declarations are. The mechanisms make lying
// unprofitable in expectation, but declared PoS values can still be
// systematically mis-calibrated (stale mobility models, optimistic
// devices). Each execution outcome is a Bernoulli trial with success
// probability r·p̂ — the declaration p̂ scaled by the user's unknown
// reliability r — so r has a natural smoothed moment estimator
//
//	r̂ = (successes + s·1) / (Σ p̂ + s),
//
// where s is a prior pseudo-strength pulling unknown users toward r = 1
// (declarations trusted until evidence says otherwise). The platform can
// then discount future declarations by r̂ before running the auction,
// restoring coverage against systematic over-claimers.
//
// Store (store.go) is the one estimator: a concurrency-safe fold of the
// engine's event stream that checkpoints itself into the WAL and discounts
// declarations at winner determination through the mechanism.PoSAdjuster
// hook. The offline experiment harness feeds it the same events.
package reputation

import (
	"errors"
	"fmt"
	"math"
)

// DefaultPriorStrength is the pseudo-evidence pulling estimates toward
// reliability 1.
const DefaultPriorStrength = 3.0

// maxReliability caps the estimate: consistent over-delivery cannot push a
// discounted PoS above the declaration by more than 20%.
const maxReliability = 1.2

// ErrBadPrior rejects a NaN or negative prior pseudo-strength.
var ErrBadPrior = errors.New("reputation: prior strength must be non-negative")

// checkPrior validates a prior pseudo-strength, resolving 0 to the default.
func checkPrior(priorStrength float64) (float64, error) {
	if math.IsNaN(priorStrength) || priorStrength < 0 {
		return 0, fmt.Errorf("%w: got %g", ErrBadPrior, priorStrength)
	}
	if priorStrength == 0 {
		return DefaultPriorStrength, nil
	}
	return priorStrength, nil
}

// usableDeclaration reports whether a declared EC-trigger PoS can be held
// against its outcome: a 0-probability declaration carries no evidence, a
// certain one is outside the paper's model (auction bids already exclude
// PoS = 1), and NaN is no declaration at all.
func usableDeclaration(declaredPoS float64) bool {
	return declaredPoS > 0 && declaredPoS < 1
}

// evidence accumulates one user's execution outcomes.
type evidence struct {
	successes    float64 // observed EC-trigger successes
	declaredMass float64 // Σ declared success probabilities
	observations int
}

func (ev *evidence) observe(declaredPoS float64, success bool) {
	if success {
		ev.successes++
	}
	ev.declaredMass += declaredPoS
	ev.observations++
}

// reliability is the estimator: (successes + prior)/(mass + prior), capped
// at maxReliability. Unknown users (nil evidence) get exactly 1.
func (ev *evidence) reliability(prior float64) float64 {
	if ev == nil {
		return 1
	}
	r := (ev.successes + prior) / (ev.declaredMass + prior)
	if r > maxReliability {
		return maxReliability
	}
	return r
}

// discount clamps declaredPoS·r into the valid allocation range [0, 1).
func discount(declaredPoS, r float64) float64 {
	p := declaredPoS * r
	switch {
	case math.IsNaN(p) || p < 0:
		return 0
	case p >= 1:
		return 1 - 1e-12
	}
	return p
}
