package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/platform"
)

// freeAddr picks a free loopback port and releases it for platformd to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runAsync runs platformd with args and returns its result channel.
func runAsync(args ...string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), args) }()
	return done
}

// playRound runs two agents that name no campaign against addr, then waits
// for platformd to exit.
func playRound(t *testing.T, addr string, done <-chan error) {
	t.Helper()
	playAgents(t, addr, "")
	waitExit(t, done)
}

// playAgents runs two agents bidding in campaign against addr, retrying
// dials until platformd listens, and waits for both to finish.
func playAgents(t *testing.T, addr, campaign string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	for user := auction.UserID(1); user <= 2; user++ {
		go func() {
			_, err := agent.RunWithBackoff(ctx, agent.Config{
				Addr:     addr,
				Campaign: campaign,
				User:     user,
				TrueBid: auction.NewBid(user, []auction.TaskID{1}, float64(user)+1,
					map[auction.TaskID]float64{1: 0.6}),
				Seed:    int64(user),
				Timeout: 10 * time.Second,
			}, agent.Backoff{Attempts: 50, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond})
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("agent: %v", err)
		}
	}
}

// waitExit fails the test unless platformd exits cleanly within 30 s.
func waitExit(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("platformd: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("platformd did not exit after its last round")
	}
}

// readJournal decodes the -journal file.
func readJournal(t *testing.T, path string) []platform.JournalEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := platform.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestSingleCampaignJournal runs platformd without -campaigns on loopback:
// two agents that name no campaign settle one round in the campaign named
// "default", and the -journal line carries that campaign and audits clean.
func TestSingleCampaignJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	addr := freeAddr(t)
	playRound(t, addr, runAsync("-addr", addr, "-campaigns", "0", "-tasks", "1",
		"-requirement", "0.3", "-bidders", "2", "-rounds", "1",
		"-journal", journal, "-log-level", "warn"))

	entries := readJournal(t, journal)
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Campaign != "default" || e.Round != 1 {
		t.Errorf("journal entry is campaign %q round %d, want default round 1", e.Campaign, e.Round)
	}
	if e.Error != "" || len(e.Bids) != 2 || len(e.Winners) == 0 {
		t.Errorf("round did not settle: error %q, %d bids, %d winners", e.Error, len(e.Bids), len(e.Winners))
	}
	if findings := platform.CheckRound(e); len(findings) != 0 {
		t.Errorf("journal line fails audit: %v", findings)
	}
}

// TestRestartRestoresDefaultCampaign: a single-campaign run with -state-dir
// leaves a WAL holding campaign "default"; a restart restores it from the
// WAL even with -tasks 0 (campaign flags are ignored on restore), finds it
// finished, and exits cleanly without adding journal lines.
func TestRestartRestoresDefaultCampaign(t *testing.T) {
	dir := t.TempDir()
	state, journal := filepath.Join(dir, "state"), filepath.Join(dir, "journal.jsonl")
	addr := freeAddr(t)
	playRound(t, addr, runAsync("-addr", addr, "-tasks", "1", "-requirement", "0.3",
		"-bidders", "2", "-state-dir", state, "-journal", journal, "-log-level", "warn"))

	waitExit(t, runAsync("-addr", "127.0.0.1:0", "-tasks", "0", "-state-dir", state,
		"-journal", journal, "-log-level", "warn"))
	entries := readJournal(t, journal)
	if len(entries) != 1 || entries[0].Campaign != "default" {
		t.Errorf("journal after restart: %+v, want the one round of campaign default", entries)
	}
}

// TestRejectsBadFlags: outside input the engine would otherwise reinterpret
// is refused before anything listens.
func TestRejectsBadFlags(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero rounds", []string{"-rounds", "0"}, "-rounds 0 must be positive"},
		{"negative rounds", []string{"-rounds", "-2"}, "-rounds -2 must be positive"},
		{"journal in cluster mode", []string{"-cluster", "s1", "-shard", "s1", "-state-dir", t.TempDir(),
			"-journal", journal}, "-journal is not supported with -cluster"},
		{"metrics-addr on the router", []string{"-cluster", "s1", "-peers", "s1=127.0.0.1:1",
			"-metrics-addr", "127.0.0.1:0"}, "-metrics-addr is not supported by the shard router"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := runAsync(append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, tc.args...)...)
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("run(%v) started serving instead of rejecting the flags", tc.args)
			}
		})
	}
	if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected -journal %s was created (stat: %v)", journal, err)
	}
}

// TestOnlyInfeasibleRoundsAreVoid: an infeasible round is logged as void
// and serving goes on; any other round failure aborts serving with
// errRoundFailed as the cause, so platformd exits non-zero.
func TestOnlyInfeasibleRoundsAreVoid(t *testing.T) {
	ctx, abort := context.WithCancelCause(context.Background())
	defer abort(nil)
	hook := onRound(time.Now(), abort)

	hook(engine.RoundResult{Campaign: "default", Round: 1,
		Err: fmt.Errorf("%w: coverage 0.2 < 0.9", mechanism.ErrInfeasible)})
	if ctx.Err() != nil {
		t.Fatalf("infeasible round aborted serving: %v", context.Cause(ctx))
	}

	hook(engine.RoundResult{Campaign: "default", Round: 2, Err: errors.New("critical bid search diverged")})
	if cause := context.Cause(ctx); !errors.Is(cause, errRoundFailed) ||
		!strings.Contains(cause.Error(), "campaign default round 2: critical bid search diverged") {
		t.Errorf("failed round: cause %v, want errRoundFailed naming the round", cause)
	}
}

// TestClusterNodeOpsSurface runs a one-shard cluster node through run with
// -metrics-addr and plays one round on c1: the node serves the standalone
// endpoint set, so /debug/rounds holds the round's record, /debug/spans is
// non-empty, and /healthz is liveness — 200, never "degraded", even while
// an SLO no round can meet (1ns) degrades /readyz to 503.
func TestClusterNodeOpsSurface(t *testing.T) {
	addr, metrics := freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-cluster", "s1", "-shard", "s1", "-addr", addr,
			"-state-dir", t.TempDir(), "-campaigns", "1", "-tasks", "1", "-requirement", "0.3",
			"-bidders", "2", "-rounds", "2", "-slo-p99", "round=1ns", "-metrics-addr", metrics,
			"-log-level", "warn"})
	}()
	playAgents(t, addr, "c1")

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get("http://" + metrics + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: status %d, bad JSON: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	var rounds, spans []span.Record
	if code := get("/debug/rounds", &rounds); code != http.StatusOK {
		t.Errorf("/debug/rounds answered %d", code)
	}
	found := false
	for _, r := range rounds {
		found = found || (r.Name == span.NameRound && r.Campaign == "c1" && r.Round == 1)
	}
	if !found {
		t.Errorf("/debug/rounds holds no round record for c1 round 1: %+v", rounds)
	}
	if code := get("/debug/spans", &spans); code != http.StatusOK || len(spans) == 0 {
		t.Errorf("/debug/spans answered %d with %d records, want 200 and some", code, len(spans))
	}
	var ready obs.Readiness
	if code := get("/readyz", &ready); code != http.StatusServiceUnavailable || ready.Health.Status != obs.StatusDegraded {
		t.Errorf("/readyz answered %d %q, want 503 %q from the breached SLO", code, ready.Health.Status, obs.StatusDegraded)
	}
	var health obs.Health
	if code := get("/healthz", &health); code != http.StatusOK || health.Status == obs.StatusDegraded {
		t.Errorf("/healthz answered %d %q, want 200 and not %q", code, health.Status, obs.StatusDegraded)
	}

	cancel()
	waitExit(t, done)
}
