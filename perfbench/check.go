package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/platform"
)

// coverTol is the slack allowed when re-checking that winners cover each
// task's requirement (the mechanisms' own tolerance is 1e-9).
const coverTol = 1e-9

// outcome is what one settled round decided, read back from the engine.
type outcome struct {
	socialCost float64 // Σ winners' declared costs, summed in user order
	payment    float64 // Σ settled rewards, summed in user order
	line       string  // canonical text for the digest
	// declaredShort: winners chosen on reputation-adjusted PoS that do not
	// cover some task's requirement on the PoS their bids declared.
	declaredShort bool
}

// checkRound verifies one settled round and returns its outcome. Checks:
// the round settled without error with every bid; the journal entry passes
// platform.CheckRound (IR, budget band, α gap, social cost, contracts); the
// winners cover every task's requirement on declared PoS; every winner was
// settled.
//
// When wdBids gives the bids as the reputation adjuster rewrote them
// (r̂·p̂), the winners must cover the requirement on that PoS instead, and
// a shortfall on declared PoS is recorded in declaredShort rather than
// failing the round: r̂ may exceed 1, so a winner set chosen on r̂·p̂ need
// not cover the requirement on declared PoS. Such rounds are counted and
// reported (reputation.declared_short_rounds), so the shortfall stays
// visible until the adjuster guarantees declared coverage.
func checkRound(spec roundSpec, number int, res engine.RoundResult, wdBids map[auction.UserID]auction.Bid) (outcome, error) {
	if res.Err != nil {
		return outcome{}, fmt.Errorf("round failed: %v", res.Err)
	}
	if res.Outcome == nil {
		return outcome{}, fmt.Errorf("round settled without an outcome")
	}
	if len(res.Bids) != len(spec.bids) {
		return outcome{}, fmt.Errorf("round settled with %d bids, want %d", len(res.Bids), len(spec.bids))
	}
	entry := platform.NewJournalEntry(number, spec.tasks, platform.RoundResult{
		Outcome: res.Outcome, Bids: res.Bids, Settlements: res.Settlements})
	if findings := platform.CheckRound(entry); len(findings) > 0 {
		return outcome{}, fmt.Errorf("audit: %s: %s", findings[0].Rule, findings[0].Problem)
	}
	declared, err := auction.New(spec.tasks, res.Bids)
	if err != nil {
		return outcome{}, fmt.Errorf("rebuild auction: %v", err)
	}
	coveredDeclared := declared.CoveredBy(res.Outcome.Selected, coverTol)
	if wdBids == nil && !coveredDeclared {
		return outcome{}, fmt.Errorf("winners do not cover the requirement on declared PoS")
	}
	if wdBids != nil {
		bids := make([]auction.Bid, len(res.Bids))
		for i, b := range res.Bids {
			bids[i] = wdBids[b.User]
		}
		adjusted, err := auction.New(spec.tasks, bids)
		if err != nil {
			return outcome{}, fmt.Errorf("rebuild adjusted auction: %v", err)
		}
		if !adjusted.CoveredBy(res.Outcome.Selected, coverTol) {
			return outcome{}, fmt.Errorf("winners do not cover the requirement on the adjusted PoS they were chosen on")
		}
	}
	if len(res.Settlements) != len(res.Outcome.Awards) {
		return outcome{}, fmt.Errorf("%d settlements for %d winners", len(res.Settlements), len(res.Outcome.Awards))
	}

	type win struct {
		user         auction.UserID
		cost, rs, rf float64
		success      bool
		reward       float64
	}
	wins := make([]win, 0, len(res.Outcome.Awards))
	for _, aw := range res.Outcome.Awards {
		st, ok := res.Settlements[aw.User]
		if !ok {
			return outcome{}, fmt.Errorf("winner %d not settled", aw.User)
		}
		wins = append(wins, win{user: aw.User, cost: res.Bids[aw.BidIndex].Cost,
			rs: aw.RewardOnSuccess, rf: aw.RewardOnFailure, success: st.Success, reward: st.Reward})
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].user < wins[j].user })
	out := outcome{line: fmt.Sprintf("%s/%d", spec.campaign, number), declaredShort: !coveredDeclared}
	for _, w := range wins {
		out.socialCost += w.cost
		out.payment += w.reward
		// %.9g: the digest pins the decision, not the last bits of a float
		// sum whose order may follow bid arrival.
		out.line += fmt.Sprintf(" %d:%.9g:%.9g:%t:%.9g", w.user, w.rs, w.rf, w.success, w.reward)
	}
	return out, nil
}

// digest hashes the rounds' canonical lines in plan order.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
