package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/wire"
)

// runCodecRounds plays a fixed two-round workload against a fresh platform
// with every agent on the given codec, staggering bid admission so the bid
// order — and with it the journal — is deterministic. It returns the settled
// rounds and the journal bytes.
func runCodecRounds(t *testing.T, binary bool) ([]engine.RoundResult, []byte) {
	t.Helper()
	var journal bytes.Buffer
	js, err := NewJournalStore(&journal, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := singleTaskConfig(2)
	cfg.Rounds = 2
	p := startPlatform(t, ctx, cfg, engine.Config{Store: js})

	waitAdmitted := func(want uint64) {
		t.Helper()
		for start := time.Now(); p.eng.Snapshot().BidsAccepted < want; {
			if time.Since(start) > 15*time.Second {
				t.Fatalf("engine never admitted %d bids", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for round := 1; round <= 2; round++ {
		addr := <-p.open
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			user := auction.UserID(10*round + i + 1)
			cost, pos := float64(i+2), 0.85+0.05*float64(i)
			go func() {
				_, err := agent.Run(ctx, agent.Config{
					Addr: addr,
					User: user,
					TrueBid: auction.NewBid(user, []auction.TaskID{1}, cost,
						map[auction.TaskID]float64{1: pos}),
					Seed:    int64(user),
					Timeout: 10 * time.Second,
					Binary:  binary,
				})
				errs <- err
			}()
			waitAdmitted(uint64(2*(round-1) + i + 1))
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d agent (binary=%v): %v", round, binary, err)
			}
		}
	}

	rounds := p.wait(t)
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	return rounds, journal.Bytes()
}

// normalizeCodecRounds renders rounds with solver work counters stripped —
// they depend on process-global memo state, not on the auction.
func normalizeCodecRounds(t *testing.T, rounds []engine.RoundResult) string {
	t.Helper()
	type norm struct {
		Outcome     *mechanism.Outcome
		Bids        []auction.Bid
		Settlements map[auction.UserID]wire.Settle
	}
	out := make([]norm, 0, len(rounds))
	for _, r := range rounds {
		n := norm{Bids: r.Bids, Settlements: r.Settlements}
		if r.Outcome != nil {
			o := *r.Outcome
			o.Stats = mechanism.Stats{Winners: o.Stats.Winners, TotalPayment: o.Stats.TotalPayment}
			n.Outcome = &o
		}
		out = append(out, n)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCrossCodecSystemDifferential is the system-level acceptance proof for
// the binary codec: the same seeded workload played once with JSON agents and
// once with binary agents must settle identical rounds and write
// byte-identical journals. The codec may change how bids travel, never what
// the mechanism decides or pays.
func TestCrossCodecSystemDifferential(t *testing.T) {
	jsonRounds, jsonJournal := runCodecRounds(t, false)
	binRounds, binJournal := runCodecRounds(t, true)

	if len(jsonRounds) != 2 || len(binRounds) != 2 {
		t.Fatalf("settled %d JSON / %d binary rounds, want 2/2", len(jsonRounds), len(binRounds))
	}
	jsonNorm := normalizeCodecRounds(t, jsonRounds)
	binNorm := normalizeCodecRounds(t, binRounds)
	if jsonNorm != binNorm {
		t.Errorf("settled rounds diverged across codecs:\nJSON   %s\nbinary %s", jsonNorm, binNorm)
	}
	if !bytes.Equal(jsonJournal, binJournal) {
		t.Errorf("journal bytes diverged across codecs:\n--- JSON ---\n%s--- binary ---\n%s",
			jsonJournal, binJournal)
	}
	if len(jsonJournal) == 0 {
		t.Error("journal is empty — differential is vacuous")
	}
}
