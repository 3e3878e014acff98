package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/platform"
)

// recordJournal drives a real two-round engine with one campaign per ID, a
// JournalStore attached — the same event-stream derivation platformd
// -journal uses — and returns the journal path.
func recordJournal(t *testing.T, campaigns ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rounds.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	js, err := platform.NewJournalStore(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Store: js})
	for _, id := range campaigns {
		err = e.AddCampaign(engine.CampaignConfig{
			ID:              id,
			Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
			ExpectedBidders: 3,
			Rounds:          2,
			Alpha:           10,
			Epsilon:         0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- e.Serve(ctx)
	}()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for _, id := range campaigns {
			for i := 1; i <= 3; i++ {
				wg.Add(1)
				go func(id string, i int) {
					defer wg.Done()
					user := auction.UserID(i)
					_, err := agent.Run(context.Background(), agent.Config{
						Addr:     e.Addr().String(),
						Campaign: id,
						User:     user,
						TrueBid: auction.NewBid(user, []auction.TaskID{1}, float64(i+1),
							map[auction.TaskID]float64{1: 0.8}),
						Seed:    int64(i),
						Timeout: 10 * time.Second,
					})
					if err != nil {
						t.Errorf("campaign %s round %d agent %d: %v", id, round, i, err)
					}
				}(id, i)
			}
		}
		wg.Wait()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// tamperJournal copies the journal at path with the first settlement of the
// first settled entry in campaign (any campaign when "") paid -100, and
// returns the copy's path and the tampered entry.
func tamperJournal(t *testing.T, path, campaign string) (string, platform.JournalEntry) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := platform.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for i := range entries {
		if len(entries[i].Settlements) > 0 && (campaign == "" || entries[i].Campaign == campaign) {
			entries[i].Settlements[0].Reward = -100
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatalf("journal has no settlements in campaign %q to tamper with", campaign)
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.jsonl")
	cf, err := os.Create(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.WriteJournal(cf, entries...); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	return corrupt, entries[at]
}

// capture runs one audit invocation and returns its output and exit code.
func capture(t *testing.T, path string) (string, int) {
	t.Helper()
	var sb strings.Builder
	code, err := run([]string{path}, &sb)
	if err != nil {
		t.Fatalf("audit %s: %v", path, err)
	}
	return sb.String(), code
}

// TestAuditSmoke is the offline-audit gate wired into make check: a live
// engine's journal must audit clean, and the same journal with one settlement
// tampered must be flagged with a nonzero exit code.
func TestAuditSmoke(t *testing.T) {
	path := recordJournal(t, "smoke")

	out, code := capture(t, path)
	if code != 0 {
		t.Fatalf("clean journal audited dirty (code %d):\n%s", code, out)
	}
	if !strings.Contains(out, "audit: clean") {
		t.Errorf("output missing clean verdict:\n%s", out)
	}

	// Tamper with one settlement and re-audit: the settlement-vs-contract
	// rule must fire and flip the exit code.
	corrupt, _ := tamperJournal(t, path, "")
	out, code = capture(t, corrupt)
	if code != 1 {
		t.Fatalf("tampered journal audited with code %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "inconsistencies") {
		t.Errorf("output missing findings:\n%s", out)
	}
}

// TestAuditNamesCampaign audits a two-campaign journal (platformd
// -campaigns) with one settlement tampered in the second campaign: every
// finding must name that campaign, so rounds of different campaigns that
// share a round number and user IDs can be told apart.
func TestAuditNamesCampaign(t *testing.T) {
	corrupt, bad := tamperJournal(t, recordJournal(t, "c1", "c2"), "c2")
	out, code := capture(t, corrupt)
	if code != 1 {
		t.Fatalf("tampered journal audited with code %d, want 1:\n%s", code, out)
	}
	want := fmt.Sprintf("campaign c2 round %d user %d: ", bad.Round, bad.Settlements[0].User)
	findings := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue // summary and verdict lines
		}
		findings++
		if !strings.HasPrefix(strings.TrimSpace(line), want) {
			t.Errorf("finding %q does not start with %q", line, want)
		}
	}
	if findings == 0 {
		t.Fatalf("no findings listed:\n%s", out)
	}
}

func TestAuditBadInvocations(t *testing.T) {
	if _, err := run(nil, os.Stdout); err == nil {
		t.Error("no args should fail")
	}
	if _, err := run([]string{"/nonexistent/rounds.jsonl"}, os.Stdout); err == nil {
		t.Error("missing journal should fail")
	}
}
