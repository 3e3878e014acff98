package main

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs/span"
)

// runCluster is platformd's sharded mode: with -shard it leads that shard
// (and optionally stands by for another); without, it fronts the cluster as
// the shard router on -addr. A node's engines, including one gained by
// promotion, run the standalone round policy (hook), and its ops endpoint is
// the standalone one over the node's led shards.
func runCluster(ctx context.Context, o *options, spans *span.Journal, hook func(engine.RoundResult)) error {
	shards := strings.Split(o.cluster, ",")
	ring := cluster.NewRing(shards, 0)
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
			SpanSinks: spanSinks(spans), Node: o.node,
		})
		if err != nil {
			return err
		}
		slog.Info("shard router up", "addr", r.Addr(), "shards", shards, "members", members)
		<-ctx.Done()
		r.Close()
		routed, rejected, rerouted := r.Stats()
		slog.Info("router stats", "routed", routed, "rejected", rejected, "rerouted", rerouted)
		return nil
	}

	if o.stateDir == "" {
		return fmt.Errorf("cluster node mode needs -state-dir (the shard WAL is not optional)")
	}
	// The campaign universe (c1..cN) is cluster-wide; each node registers
	// only the campaigns the ring places on its shard.
	var owned []engine.CampaignConfig
	for _, id := range campaignIDs(max(o.campaigns, 1)) {
		if s, ok := ring.Owner(id); ok && s == o.shard {
			owned = append(owned, o.campaign(id))
		}
	}

	cfg := cluster.NodeConfig{
		Name:      o.node,
		Shard:     o.shard,
		StateDir:  o.stateDir,
		AgentAddr: o.addr,
		RepAddr:   o.repAddr,
		Campaigns: owned,
		Engine:    engine.Config{Workers: o.workers, OnRound: hook},
		SpanSinks: spanSinks(spans),
		Logf:      logf,
		Audit:     o.audit,
		AuditSLO:  o.slo,

		Reputation:      o.reputation,
		ReputationPrior: o.repPrior,
	}
	if o.follow != "" {
		shard, leaderRep, ok := strings.Cut(o.follow, "@")
		if !ok || shard == "" || leaderRep == "" {
			return fmt.Errorf("-follow wants shard@leaderRepAddr, got %q", o.follow)
		}
		if o.followDir == "" || o.followAddr == "" {
			return fmt.Errorf("-follow needs -follow-dir and -follow-addr")
		}
		cfg.Follow = &cluster.FollowConfig{
			Shard:     shard,
			LeaderRep: leaderRep,
			StateDir:  o.followDir,
			AgentAddr: o.followAddr,
		}
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		return err
	}
	slog.Info("cluster node up", "shard", o.shard, "agent", node.AgentAddr(o.shard),
		"rep", node.RepAddr(), "campaigns", len(owned), "follows", o.follow)

	if o.metricsAddr != "" {
		srv, err := serveOps(o.metricsAddr, node, spans)
		if err != nil {
			node.Close()
			return err
		}
		defer srv.Close()
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
