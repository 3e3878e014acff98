package cluster

import (
	"sort"
	"sync/atomic"
	"time"

	"crowdsense/internal/obs"
)

// clusterStats are a node's monotonic replication/failover counters, updated
// lock-free off the replication paths.
type clusterStats struct {
	replicatedEvents atomic.Int64
	replicatedBytes  atomic.Int64
	snapshotsSent    atomic.Int64
	acks             atomic.Int64
	bootstraps       atomic.Int64
	failovers        atomic.Int64
	failoverNs       atomic.Int64  // duration of the last failover
	repLagNs         atomic.Int64  // send→durable-ack lag of the newest replicated frame
	appliedSeq       atomic.Uint64 // follower's durable replica position
}

// shardLabel is the label every per-shard sample a node exports carries.
func shardLabel(shard string) obs.Label { return obs.Label{Name: "shard", Value: shard} }

// MetricFamilies renders everything the node exports on /metrics: its
// crowdsense_cluster_* families, then — per led shard, in shard order — the
// shard's engine, WAL, auditor and reputation families with a shard label
// prepended. A node that leads two shards after a promotion therefore
// repeats family names; obs.RenderMetrics merges them under one header.
func (n *Node) MetricFamilies() []obs.Family {
	fams := n.clusterFamilies()
	for _, s := range n.led() {
		fams = append(fams, obs.WithLabel(s.MetricFamilies(), shardLabel(s.id))...)
	}
	return fams
}

// clusterFamilies renders the node's replication and failover state.
func (n *Node) clusterFamilies() []obs.Family {
	s := &n.stats

	roleValue := map[string]float64{RoleFollower: 0, RoleLeader: 1, RoleRecovering: 2}
	roles := n.Roles()
	shards := make([]string, 0, len(roles))
	for shard := range roles {
		shards = append(shards, shard)
	}
	sort.Strings(shards)
	roleSamples := make([]obs.Sample, 0, len(shards))
	for _, shard := range shards {
		roleSamples = append(roleSamples, obs.Sample{
			Labels: []obs.Label{shardLabel(shard), {Name: "role", Value: roles[shard]}},
			Value:  roleValue[roles[shard]],
		})
	}

	var lag int64
	var followers int
	n.mu.Lock()
	rep := n.rep
	n.mu.Unlock()
	if rep != nil {
		lag, followers = rep.lagInfo()
	}

	return []obs.Family{
		{
			Name:    "crowdsense_cluster_shard_role",
			Help:    "This node's role per shard (0 follower, 1 leader, 2 recovering).",
			Type:    obs.TypeGauge,
			Samples: roleSamples,
		},
		{
			Name:    "crowdsense_cluster_replicated_events_total",
			Help:    "WAL events shipped to followers.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.replicatedEvents.Load())}},
		},
		{
			Name:    "crowdsense_cluster_replicated_bytes_total",
			Help:    "Framed replication bytes shipped to followers.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.replicatedBytes.Load())}},
		},
		{
			Name:    "crowdsense_cluster_snapshots_sent_total",
			Help:    "Snapshot bootstraps shipped to followers whose position was compacted away.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.snapshotsSent.Load())}},
		},
		{
			Name:    "crowdsense_cluster_acks_total",
			Help:    "Durable acks received from followers.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.acks.Load())}},
		},
		{
			Name:    "crowdsense_cluster_replica_bootstraps_total",
			Help:    "Times this node's replica was re-seeded from a leader snapshot.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.bootstraps.Load())}},
		},
		{
			Name:    "crowdsense_cluster_replication_lag_events",
			Help:    "Worst connected-follower lag behind this leader's durable seq.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(lag)}},
		},
		{
			Name:    "crowdsense_replication_lag_seconds",
			Help:    "Send→durable-ack lag of the newest frame replicated to a follower.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: time.Duration(s.repLagNs.Load()).Seconds()}},
		},
		{
			Name:    "crowdsense_cluster_followers_connected",
			Help:    "Follower replication sessions currently connected to this leader.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(followers)}},
		},
		{
			Name:    "crowdsense_cluster_replica_applied_seq",
			Help:    "This follower's durable replica position.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(s.appliedSeq.Load())}},
		},
		{
			Name:    "crowdsense_cluster_failovers_total",
			Help:    "Follower promotions this node has performed.",
			Type:    obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(s.failovers.Load())}},
		},
		{
			Name:    "crowdsense_cluster_failover_seconds",
			Help:    "Duration of this node's last failover (replica replay to serving).",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: time.Duration(s.failoverNs.Load()).Seconds()}},
		},
	}
}
