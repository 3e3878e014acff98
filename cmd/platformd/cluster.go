package main

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/buildinfo"
	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
)

// clusterOptions carries the -cluster flag family into runCluster.
type clusterOptions struct {
	node      string        // node identity for span records and trace context
	journal   *span.Journal // span journal backing spanSinks, for health metrics (may be nil)
	shards    []string      // the ring, identical on every member
	shard     string        // shard this node leads; empty runs the router
	peers     string        // router member map: shard=addr[|standby],...
	addr      string        // agent listen address (node) or dial address (router)
	repAddr   string        // replication listen address (node; empty = no followers)
	stateDir  string        // shard WAL directory (node; required)
	follow    string        // standby spec: shard@leaderRepAddr
	followDir string        // replica WAL directory (required with -follow)
	followAdr string        // standby agent address bound at promotion (required with -follow)

	campaigns   int
	tasks       []auction.Task
	bidders     int
	rounds      int
	alpha       float64
	epsilon     float64
	window      time.Duration
	workers     int
	spanSinks   []span.Sink
	metricsAddr string
	audit       bool
	auditSLO    *audit.SLOConfig
	reputation  bool
	repPrior    float64
}

// runCluster is platformd's sharded mode: with -shard it leads that shard
// (and optionally stands by for another); without, it fronts the cluster as
// the shard router on -addr.
func runCluster(ctx context.Context, o clusterOptions) error {
	ring := cluster.NewRing(o.shards, 0)
	if len(ring.Shards()) == 0 {
		return fmt.Errorf("-cluster needs at least one shard name")
	}
	logf := func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) }

	if o.shard == "" {
		members, err := parsePeers(o.peers)
		if err != nil {
			return err
		}
		if len(members) == 0 {
			return fmt.Errorf("router mode needs -peers (shard=addr[|standby],...)")
		}
		r, err := cluster.StartRouter(o.addr, cluster.RouterConfig{
			Ring: ring, Members: members, Logf: logf,
			SpanSinks: o.spanSinks, Node: o.node,
		})
		if err != nil {
			return err
		}
		slog.Info("shard router up", "addr", r.Addr(), "shards", o.shards, "members", members)
		<-ctx.Done()
		r.Close()
		routed, rejected, rerouted := r.Stats()
		slog.Info("router stats", "routed", routed, "rejected", rejected, "rerouted", rerouted)
		return nil
	}

	if o.stateDir == "" {
		return fmt.Errorf("cluster node mode needs -state-dir (the shard WAL is not optional)")
	}
	owner := func(id string) bool {
		s, ok := ring.Owner(id)
		return ok && s == o.shard
	}
	// The campaign universe (c1..cN) is cluster-wide; each node registers
	// only the campaigns the ring places on its shard.
	n := o.campaigns
	if n <= 0 {
		n = 1
	}
	var owned []engine.CampaignConfig
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%d", i+1)
		if !owner(id) {
			continue
		}
		owned = append(owned, engine.CampaignConfig{
			ID:              id,
			Tasks:           o.tasks,
			ExpectedBidders: o.bidders,
			BidWindow:       o.window,
			Rounds:          o.rounds,
			Alpha:           o.alpha,
			Epsilon:         o.epsilon,
		})
	}

	cfg := cluster.NodeConfig{
		Name:      o.node,
		Shard:     o.shard,
		StateDir:  o.stateDir,
		AgentAddr: o.addr,
		RepAddr:   o.repAddr,
		Campaigns: owned,
		Engine:    engine.Config{Workers: o.workers},
		SpanSinks: o.spanSinks,
		Logf:      logf,
		Audit:     o.audit,
		AuditSLO:  o.auditSLO,

		Reputation:      o.reputation,
		ReputationPrior: o.repPrior,
	}
	if o.follow != "" {
		shard, leaderRep, ok := strings.Cut(o.follow, "@")
		if !ok || shard == "" || leaderRep == "" {
			return fmt.Errorf("-follow wants shard@leaderRepAddr, got %q", o.follow)
		}
		if o.followDir == "" || o.followAdr == "" {
			return fmt.Errorf("-follow needs -follow-dir and -follow-addr")
		}
		cfg.Follow = &cluster.FollowConfig{
			Shard:     shard,
			LeaderRep: leaderRep,
			StateDir:  o.followDir,
			AgentAddr: o.followAdr,
		}
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		return err
	}
	slog.Info("cluster node up", "shard", o.shard, "agent", node.AgentAddr(o.shard),
		"rep", node.RepAddr(), "campaigns", len(owned), "follows", o.follow)

	if o.metricsAddr != "" {
		srv, err := obs.Serve(o.metricsAddr, obs.Options{
			Gather: func() []obs.Family {
				fams := append(node.MetricFamilies(), obs.JournalFamilies(o.journal)...)
				fams = append(fams, obs.RuntimeFamilies()...)
				return append(fams, buildinfo.Family())
			},
			Health:     func() obs.Health { return node.Readiness().Health },
			Ready:      node.Readiness,
			Audit:      node.AuditReports,
			Reputation: node.ReputationReports,
		})
		if err != nil {
			node.Close()
			return err
		}
		defer srv.Close()
		slog.Info("ops endpoint up", "url", "http://"+srv.Addr().String(),
			"paths", "/metrics /healthz /readyz /debug/audit /debug/reputation (per-shard roles and audit in /readyz)")
	}

	<-ctx.Done()
	return node.Close()
}

// parsePeers decodes the router's member map: "s1=addr1|addr2,s2=addr3".
// Preference order within a shard is the listed order — leader first, then
// standbys that answer only after a promotion.
func parsePeers(s string) (map[string][]string, error) {
	members := make(map[string][]string)
	if s == "" {
		return members, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		shard, addrs, ok := strings.Cut(part, "=")
		if !ok || shard == "" || addrs == "" {
			return nil, fmt.Errorf("-peers entry %q wants shard=addr[|standby]", part)
		}
		for _, a := range strings.Split(addrs, "|") {
			if a = strings.TrimSpace(a); a != "" {
				members[shard] = append(members[shard], a)
			}
		}
	}
	return members, nil
}
