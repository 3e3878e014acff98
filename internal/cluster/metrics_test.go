package cluster

import (
	"bufio"
	"math"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
)

// TestNodeMetricsAfterPromotion pins a node's ops surface once a promotion
// makes it lead two shards: /metrics carries every led shard's engine, WAL,
// auditor and reputation families, each sample labelled with its shard
// first, under exactly one # TYPE header per family name; /debug/audit and
// /debug/reputation carry one report per led shard, stamped with the shard;
// /debug/spans merges both shards' engine spans in end order; and /healthz
// is liveness, never the audit status.
func TestNodeMetricsAfterPromotion(t *testing.T) {
	ring := NewRing([]string{"s1", "s2"}, 0)
	campA, campB := pickCampaign(t, ring, "s1"), pickCampaign(t, ring, "s2")
	n1, err := StartNode(NodeConfig{
		Name:       "n1",
		Shard:      "s1",
		StateDir:   t.TempDir(),
		AgentAddr:  "127.0.0.1:0",
		RepAddr:    "127.0.0.1:0",
		Campaigns:  []engine.CampaignConfig{clusterCampaign(campA, 2)},
		Audit:      true,
		Reputation: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Halt()
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
			AgentAddr: reserveAddr(t),
		},
		FailoverAfter: 2,
		DialRetry:     30 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	// The replica must hold the s1 campaign before the leader dies, so the
	// promoted engine has something to export.
	waitFor(t, "replica caught up", func() bool {
		last := n1.WAL("s1").LastSeq()
		return last > 0 && n2.AppliedSeq() == last
	})
	n1.Halt()
	waitFor(t, "n2 promoted to s1 leader", func() bool { return n2.Roles()["s1"] == RoleLeader })

	// One round on each shard n2 now leads, so both engines' span rings
	// hold records.
	quick := agent.Backoff{Attempts: 10, Base: 50 * time.Millisecond, Max: time.Second}
	playClusterRound(t, n2.AgentAddr("s2"), campB, 1, quick)
	playClusterRound(t, n2.AgentAddr("s1"), campA, 1, quick)
	recs := n2.SpanRecords(math.MaxInt)
	campaigns := map[string]bool{}
	for i, r := range recs {
		campaigns[r.Campaign] = true
		if i > 0 && spanEnd(r).Before(spanEnd(recs[i-1])) {
			t.Errorf("span %d (%s) ends at %v, before span %d's end %v", i, r.Name, spanEnd(r), i-1, spanEnd(recs[i-1]))
		}
	}
	if !campaigns[campA] || !campaigns[campB] {
		t.Errorf("SpanRecords covers campaigns %v, want both %s (s1) and %s (s2)", campaigns, campA, campB)
	}
	if h := n2.Health(); h.Status == obs.StatusDegraded {
		t.Errorf("Health().Status = %q: liveness must not carry the audit status", h.Status)
	}

	var buf strings.Builder
	if err := obs.RenderMetrics(&buf, n2.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	shards := map[string]map[string]bool{} // family → shard labels seen
	family := ""
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(rest, " ")
			types[family]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(family, "crowdsense_cluster_") || family == "crowdsense_replication_lag_seconds" {
			continue // node-wide, not per shard
		}
		name, labels, ok := strings.Cut(line, "{")
		labels, shardFirst := strings.CutPrefix(labels, `shard="`)
		if !ok || strings.Contains(name, " ") || !shardFirst {
			t.Errorf("per-shard sample without a leading shard label: %s", line)
			continue
		}
		shard, _, _ := strings.Cut(labels, `"`)
		if shards[family] == nil {
			shards[family] = map[string]bool{}
		}
		shards[family][shard] = true
	}
	for name, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d # TYPE lines, want 1", name, n)
		}
	}
	for _, name := range []string{
		"crowdsense_bids_accepted_total",    // engine
		"crowdsense_round_duration_seconds", // engine
		"crowdsense_wal_appends_total",
		"crowdsense_wal_fsync_seconds",
		"crowdsense_recovery_replayed_events", // WAL
		"crowdsense_audit_rounds_checked_total",
		"crowdsense_reputation_tracked_users",
	} {
		if !shards[name]["s1"] || !shards[name]["s2"] {
			t.Errorf("family %s has samples for shards %v, want s1 and s2", name, shards[name])
		}
	}
	if t.Failed() {
		t.Logf("rendered metrics:\n%s", buf.String())
	}

	var audits, reps []string
	for _, r := range n2.AuditReports() {
		audits = append(audits, r.Shard)
	}
	for _, r := range n2.ReputationReports() {
		reps = append(reps, r.Shard)
	}
	if strings.Join(audits, ",") != "s1,s2" || strings.Join(reps, ",") != "s1,s2" {
		t.Errorf("report shards: audit %v, reputation %v; want [s1 s2] for both", audits, reps)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
