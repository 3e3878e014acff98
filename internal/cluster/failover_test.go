package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/platform"
)

// pickCampaign returns a campaign ID the ring places on the wanted shard.
func pickCampaign(t testing.TB, r *Ring, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("camp-%d", i)
		if owner, ok := r.Owner(id); ok && owner == shard {
			return id
		}
	}
	t.Fatalf("no candidate campaign hashes onto shard %s", shard)
	return ""
}

// reserveAddr picks a free loopback port and releases it — the standby agent
// address a follower binds only at promotion.
func reserveAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func clusterCampaign(id string, rounds int) engine.CampaignConfig {
	return engine.CampaignConfig{
		ID:              id,
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
		ExpectedBidders: 2,
		Rounds:          rounds,
		Alpha:           10,
		Epsilon:         0.5,
	}
}

// runClusterAgent runs one backoff-wrapped agent session against addr.
func runClusterAgent(addr, campaign string, user int, cost, pos float64, b agent.Backoff) error {
	_, err := agent.RunWithBackoff(context.Background(), agent.Config{
		Addr:     addr,
		Campaign: campaign,
		User:     auction.UserID(user),
		TrueBid: auction.NewBid(auction.UserID(user), []auction.TaskID{1}, cost,
			map[auction.TaskID]float64{1: pos}),
		Seed:    int64(user),
		Timeout: 10 * time.Second,
	}, b)
	return err
}

// playClusterRound runs one round's two agents through the router. Post-kill
// rounds pass a generous backoff so the agents ride out the failover window.
func playClusterRound(t *testing.T, addr, campaign string, round int, b agent.Backoff) {
	t.Helper()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		user := 100*round + i + 1
		cost, pos := float64(i+2), 0.6+0.1*float64(i)
		go func() {
			errs <- runClusterAgent(addr, campaign, user, cost, pos, b)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("campaign %s round %d agent: %v", campaign, round, err)
		}
	}
}

// journalBytes renders journal entries exactly as a journal file would hold
// them.
func journalBytes(t *testing.T, entries []platform.JournalEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		if err := platform.WriteJournal(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestClusterFailoverDifferential is the kill-the-leader proof: two nodes, a
// router in front, rounds played on both shards; the follower quiesces level
// with the leader, the leader is halted mid-campaign, agents retry through
// the router until the follower promotes — and the promoted shard's settled
// rounds and journal bytes must be identical to the dead leader's. Both
// nodes audit their led shards live, so every round settled on either
// leader — before the kill and after the promotion — must be audited clean.
func TestClusterFailoverDifferential(t *testing.T) {
	ring := NewRing([]string{"s1", "s2"}, 0)
	campA := pickCampaign(t, ring, "s1")
	campB := pickCampaign(t, ring, "s2")

	n1, err := StartNode(NodeConfig{
		Name:       "n1",
		Shard:      "s1",
		StateDir:   t.TempDir(),
		AgentAddr:  "127.0.0.1:0",
		RepAddr:    "127.0.0.1:0",
		Campaigns:  []engine.CampaignConfig{clusterCampaign(campA, 4)},
		Audit:      true,
		Reputation: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Halt()

	standby := reserveAddr(t)
	n2, err := StartNode(NodeConfig{
		Name:       "n2",
		Shard:      "s2",
		StateDir:   t.TempDir(),
		AgentAddr:  "127.0.0.1:0",
		Campaigns:  []engine.CampaignConfig{clusterCampaign(campB, 2)},
		Audit:      true,
		Reputation: true,
		Follow: &FollowConfig{
			Shard:     "s1",
			LeaderRep: n1.RepAddr(),
			StateDir:  t.TempDir(),
			AgentAddr: standby,
		},
		FailoverAfter: 2,
		DialRetry:     30 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Ring: ring,
		Members: map[string][]string{
			"s1": {n1.AgentAddr("s1"), standby},
			"s2": {n2.AgentAddr("s2")},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Rounds on both shards through the one dial address.
	quick := agent.Backoff{Attempts: 10, Base: 50 * time.Millisecond, Max: time.Second}
	playClusterRound(t, router.Addr(), campA, 1, quick)
	playClusterRound(t, router.Addr(), campB, 1, quick)
	playClusterRound(t, router.Addr(), campA, 2, quick)

	// Quiesce: the leader's durable log must cover its in-memory state (the
	// pre-kill truth SnapshotNow captures below), and the replica must be
	// level with it before the kill, or the async window would (honestly)
	// lose the tail — events still in the group-commit buffer never ship.
	leaderWAL := n1.WAL("s1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := leaderWAL.Sync(); err != nil {
			t.Fatal(err)
		}
		_, live, err := leaderWAL.SnapshotNow()
		if err != nil {
			t.Fatal(err)
		}
		last := leaderWAL.LastSeq()
		if last > 0 && last == live && n2.AppliedSeq() == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: applied %d, leader durable %d, leader live %d",
				n2.AppliedSeq(), last, live)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Capture the dead-to-be leader's truth.
	preState, preSeq, err := leaderWAL.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	preCS := preState.Campaigns[campA]
	if preCS == nil || len(preCS.Completed) != 2 {
		t.Fatalf("pre-kill leader: want 2 settled rounds for %s, got %+v", campA, preCS)
	}
	for _, rec := range preCS.Completed {
		if rec.Outcome == nil || len(rec.Settlements) == 0 {
			t.Fatalf("pre-kill round %d has no winners/settlements — differential would be vacuous", rec.Round)
		}
	}
	preJournal := journalBytes(t, platform.JournalFromState(preState))

	// The leader's learned reliability state must be durable in the WAL —
	// and therefore already replicated to the quiesced follower — before the
	// kill: the live store and the last checkpoint event must agree exactly.
	if preState.Reputation == nil {
		t.Fatal("pre-kill leader WAL has no reputation checkpoint")
	}
	preRep, err := json.Marshal(*preState.Reputation)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := json.Marshal(n1.Reputation("s1").Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preRep, liveRep) {
		t.Fatalf("leader live reputation state diverged from its durable checkpoint:\nlive    %s\ndurable %s",
			liveRep, preRep)
	}

	// The dead-to-be leader audited every round it settled.
	assertAudited(t, "n1", n1.AuditReports(), map[string]uint64{"s1": uint64(len(preCS.Completed))})

	n1.Halt()

	// Agents for round 3 ride the failover: the router answers shard-moved
	// until n2 promotes and binds the standby address.
	patient := agent.Backoff{Attempts: 100, Base: 25 * time.Millisecond, Max: 250 * time.Millisecond}
	playClusterRound(t, router.Addr(), campA, 3, patient)

	if role := n2.Roles()["s1"]; role != RoleLeader {
		t.Fatalf("n2 role for s1 = %q after failover, want leader", role)
	}
	if got := n2.stats.failovers.Load(); got != 1 {
		t.Errorf("failovers counter = %d, want 1", got)
	}
	if n2.stats.failoverNs.Load() <= 0 {
		t.Error("failover duration not recorded")
	}

	// The unaffected shard keeps serving, and the promoted shard finishes its
	// campaign.
	playClusterRound(t, router.Addr(), campB, 2, quick)
	playClusterRound(t, router.Addr(), campA, 4, quick)

	// Differential: settled rounds 1–2 must be byte-identical to the dead
	// leader's — winners, payments, timings, everything.
	promotedWAL := n2.WAL("s1")
	if promotedWAL == nil {
		t.Fatal("promoted node exposes no WAL for s1")
	}
	postState, _, err := promotedWAL.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	postCS := postState.Campaigns[campA]
	if postCS == nil || len(postCS.Completed) < 4 {
		t.Fatalf("promoted leader: want ≥4 settled rounds for %s, got %+v", campA, postCS)
	}
	for i, pre := range preCS.Completed {
		preJSON, err := json.Marshal(pre)
		if err != nil {
			t.Fatal(err)
		}
		postJSON, err := json.Marshal(postCS.Completed[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(preJSON, postJSON) {
			t.Errorf("round %d diverged across failover:\n  leader:   %s\n  promoted: %s",
				pre.Round, preJSON, postJSON)
		}
	}

	// Journal bytes: the promoted node's journal prefix must match what the
	// dead leader would have written.
	postEntries := platform.JournalFromState(postState)
	preEntries := platform.JournalFromState(preState)
	if len(postEntries) < len(preEntries) {
		t.Fatalf("promoted journal has %d entries, leader had %d — settled rounds lost",
			len(postEntries), len(preEntries))
	}
	postJournal := journalBytes(t, postEntries[:len(preEntries)])
	if !bytes.Equal(preJournal, postJournal) {
		t.Errorf("journal bytes diverged across failover:\n--- leader ---\n%s--- promoted ---\n%s",
			preJournal, postJournal)
	}

	// Reputation continuity across promotion: the promoted engine was seeded
	// from the replicated checkpoint, so every user the dead leader had
	// evidence on must carry identical state on the promoted node (rounds 3–4
	// use fresh users and cannot have touched them), and the promoted live
	// store must agree byte-for-byte with its own durable checkpoint.
	if postState.Reputation == nil {
		t.Fatal("promoted WAL has no reputation checkpoint")
	}
	postRep, err := json.Marshal(*postState.Reputation)
	if err != nil {
		t.Fatal(err)
	}
	promotedLive, err := json.Marshal(n2.Reputation("s1").Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(postRep, promotedLive) {
		t.Errorf("promoted live reputation state diverged from its durable checkpoint:\nlive    %s\ndurable %s",
			promotedLive, postRep)
	}
	postByUser := map[int]int{}
	for i, u := range postState.Reputation.Users {
		postByUser[u.User] = i
	}
	for _, pre := range preState.Reputation.Users {
		i, ok := postByUser[pre.User]
		if !ok {
			t.Errorf("user %d's reliability evidence lost across failover", pre.User)
			continue
		}
		if got := postState.Reputation.Users[i]; got != pre {
			t.Errorf("user %d's reliability evidence changed across failover: pre %+v post %+v",
				pre.User, pre, got)
		}
	}

	// The promoted shard's auditor starts at the round Restore reopens, so
	// it checks exactly the rounds settled after the kill.
	assertAudited(t, "n2", n2.AuditReports(), map[string]uint64{
		"s1": uint64(len(postCS.Completed) - len(preCS.Completed)),
		"s2": 2,
	})

	// The replica applied at least everything the leader had settled.
	if n2.AppliedSeq() < preSeq {
		t.Errorf("replica applied seq %d < leader snapshot seq %d", n2.AppliedSeq(), preSeq)
	}

	routed, _, _ := router.Stats()
	if routed["s1"] == 0 || routed["s2"] == 0 {
		t.Errorf("router stats missing traffic: %v", routed)
	}
}

// assertAudited checks a node's per-shard audit reports: exactly the shards
// in want, each having checked want[shard] rounds with no violation.
func assertAudited(t *testing.T, node string, reports []obs.AuditReport, want map[string]uint64) {
	t.Helper()
	if len(reports) != len(want) {
		t.Errorf("%s: %d audit reports, want one per led shard %v", node, len(reports), want)
	}
	for _, r := range reports {
		if r.RoundsChecked != want[r.Shard] {
			t.Errorf("%s: shard %s auditor checked %d rounds, want %d", node, r.Shard, r.RoundsChecked, want[r.Shard])
		}
		if r.Violations != 0 {
			t.Errorf("%s: shard %s auditor found %d violations: %s", node, r.Shard, r.Violations, r.LastViolation)
		}
	}
}
