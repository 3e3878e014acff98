package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/platform"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
)

// Shard roles reported through /readyz and metrics.
const (
	RoleLeader     = "leader"
	RoleFollower   = "follower"
	RoleRecovering = "recovering"
)

// FollowConfig makes a node the standby for another shard: it replicates
// that shard's WAL into its own state directory and promotes itself to
// leader when the current leader stops answering.
type FollowConfig struct {
	// Shard is the shard being followed.
	Shard string
	// LeaderRep is the current leader's replication listen address.
	LeaderRep string
	// StateDir holds the replica WAL.
	StateDir string
	// AgentAddr is the standby agent listen address: bound only at
	// promotion, so the router can probe it cold until then.
	AgentAddr string
	// RepAddr, if non-empty, is where the promoted leader serves its own
	// followers.
	RepAddr string
}

// NodeConfig parameterizes one cluster node: the leader of exactly one
// shard, optionally standing by for one other.
type NodeConfig struct {
	// Name identifies the node in logs, spans, and replication hellos.
	Name string
	// Shard is the shard this node leads.
	Shard string
	// StateDir holds the shard's WAL; recovered on start.
	StateDir string
	// AgentAddr is the agent listen address ("127.0.0.1:0" picks a port).
	AgentAddr string
	// RepAddr is the replication listen address for this shard's followers.
	// Empty disables replication serving.
	RepAddr string
	// Campaigns are registered when the state directory starts empty;
	// non-empty state is restored instead and Campaigns is ignored.
	Campaigns []engine.CampaignConfig
	// Engine tunes the embedded engine. Store, SpanSinks and OnRoundOpen are
	// managed by the node; other fields pass through.
	Engine engine.Config
	// SpanSinks receive replication/failover/recovery spans (and are wired
	// into the embedded engine).
	SpanSinks []span.Sink
	// FailoverAfter is how many consecutive failed redials (after at least
	// one successful session) declare the followed leader dead. Zero means 3.
	FailoverAfter int
	// DialRetry is the wait between redials. Zero means 100 ms.
	DialRetry time.Duration
	// Follow, if set, makes this node the standby for another shard.
	Follow *FollowConfig
	// Audit, when true, runs a live mechanism auditor per led shard: the
	// shard's engine feeds it every event after the WAL, it re-checks every
	// settled round's invariants, and it feeds the shard-labelled audit
	// status into Readiness and MetricFamilies. A shard gained by promotion
	// gets its own auditor.
	Audit bool
	// AuditSLO passes latency-SLO targets to each shard auditor (nil means
	// invariant checking only).
	AuditSLO *audit.SLOConfig
	// Reputation, when true, runs a reputation store per led shard: the
	// shard's engine feeds it every event, discounts declared PoS by learned
	// reliability at winner determination, and checkpoints the state into
	// the shard WAL — so a promoted follower resumes with the exact r̂ state
	// the dead leader had at its last settled round. A shard gained by
	// promotion gets its own store, seeded from the replicated checkpoint.
	Reputation bool
	// ReputationPrior is the prior pseudo-strength for each shard store
	// (0 = reputation.DefaultPriorStrength).
	ReputationPrior float64
	// Logf, if set, receives one-line node lifecycle logs.
	Logf func(format string, args ...any)
}

func (c NodeConfig) failoverAfter() int {
	if c.FailoverAfter <= 0 {
		return 3
	}
	return c.FailoverAfter
}

func (c NodeConfig) dialRetry() time.Duration {
	if c.DialRetry <= 0 {
		return 100 * time.Millisecond
	}
	return c.DialRetry
}

// shardState is one shard's presence on a node: the role, and — when
// leading — the live engine, WAL, and (when enabled) auditor and reputation
// store.
type shardState struct {
	role string
	eng  *engine.Engine
	wal  *store.WAL
	aud  *audit.Auditor
	rep  *reputation.Store
}

// ledShard is one entry of a Node.led snapshot: a led shard and its parts.
type ledShard struct {
	id string
	shardState
}

// Node is one platformd process's cluster presence: leader of cfg.Shard,
// optional follower of cfg.Follow.Shard. Start brings up the leader side
// (recover → engine → listeners) and, when configured, the follower loop;
// Close tears everything down. Halt kills the node abruptly — listeners and
// replication sessions die, the WAL is abandoned without a final flush —
// which is how tests simulate a crash.
type Node struct {
	cfg    NodeConfig
	spans  *span.Tracer
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	shards map[string]*shardState // by shard name
	closed bool

	rep   *repServer // leader-side replication for cfg.Shard (nil when RepAddr empty)
	stats clusterStats
}

// StartNode recovers the node's shard state and brings up its listeners.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Shard == "" || cfg.StateDir == "" || cfg.AgentAddr == "" {
		return nil, errors.New("cluster: node needs Shard, StateDir, AgentAddr")
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:    cfg,
		spans:  span.New(cfg.SpanSinks...).SetNode(cfg.Name),
		ctx:    ctx,
		cancel: cancel,
		shards: make(map[string]*shardState),
	}
	led, err := n.startLeader(cfg.Shard, cfg.StateDir, cfg.AgentAddr, cfg.Campaigns)
	if err != nil {
		cancel()
		return nil, err
	}
	n.setShard(cfg.Shard, led)
	if cfg.RepAddr != "" {
		rep, err := newRepServer(n, cfg.Shard, cfg.RepAddr, led.wal)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.rep = rep
	}
	if f := cfg.Follow; f != nil {
		if f.Shard == "" || f.LeaderRep == "" || f.StateDir == "" || f.AgentAddr == "" {
			n.Close()
			return nil, errors.New("cluster: follow needs Shard, LeaderRep, StateDir, AgentAddr")
		}
		n.setShard(f.Shard, &shardState{role: RoleFollower})
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.runFollower(*f)
		}()
	}
	return n, nil
}

// startLeader recovers dir, builds an engine serving the shard's campaigns
// on addr, runs it, and returns the shard's leader state. Fresh state
// registers the configured campaigns; recovered state resumes them. With
// NodeConfig.Audit set, a per-shard auditor rides the engine's store fan-out
// after the WAL and its status gates readiness. With NodeConfig.Reputation
// set, a per-shard reputation store rides the engine's emit path and is
// seeded from the recovered state's last durable checkpoint.
func (n *Node) startLeader(shard, dir, addr string, campaigns []engine.CampaignConfig) (*shardState, error) {
	rec, err := platform.Recover(dir, n.sinks()...)
	if err != nil {
		return nil, err
	}
	ecfg := n.cfg.Engine
	ecfg.NodeID = n.cfg.Name
	ecfg.Store = store.Multi(rec.WAL, ecfg.Store)
	ecfg.SpanSinks = append(ecfg.SpanSinks, n.cfg.SpanSinks...)
	var aud *audit.Auditor
	if n.cfg.Audit {
		var acfg audit.Config
		if n.cfg.AuditSLO != nil {
			slo := *n.cfg.AuditSLO
			acfg.SLO = &slo
		}
		aud = audit.New(acfg)
		// The auditor is a span sink (SLO feed), the readiness gate, and an
		// event store after the WAL: it checks each round as it settles on
		// the emit path, starting with the round Restore reopens.
		ecfg.Store = store.Multi(ecfg.Store, aud)
		ecfg.SpanSinks = append(ecfg.SpanSinks, aud)
		ecfg.AuditStatus = aud.Status
	}
	var rep *reputation.Store
	if n.cfg.Reputation {
		rep, err = reputation.NewStore(reputation.StoreConfig{PriorStrength: n.cfg.ReputationPrior})
		if err != nil {
			rec.WAL.Close()
			return nil, fmt.Errorf("cluster: shard %s reputation: %w", shard, err)
		}
		// The engine feeds the store on the emit path and seeds it from
		// rec.State.Reputation inside Restore, so a promoted follower picks
		// up the replicated checkpoint.
		ecfg.Reputation = rep
	}
	eng := engine.New(ecfg)
	if aud != nil {
		aud.SetSpans(eng.SpanTracer())
	}
	if rec.HasCampaigns() {
		if err := eng.Restore(rec.State); err != nil {
			rec.WAL.Close()
			return nil, fmt.Errorf("cluster: restore shard %s: %w", shard, err)
		}
		n.logf("node %s: shard %s restored (%d campaigns, %d events replayed)",
			n.cfg.Name, shard, len(rec.State.Order), rec.Info.ReplayedEvents)
	} else {
		for _, cc := range campaigns {
			if err := eng.AddCampaign(cc); err != nil {
				rec.WAL.Close()
				return nil, fmt.Errorf("cluster: register %s on shard %s: %w", cc.ID, shard, err)
			}
		}
	}
	if err := eng.Listen(addr); err != nil {
		rec.WAL.Close()
		return nil, fmt.Errorf("cluster: shard %s: %w", shard, err)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := eng.Serve(n.ctx); err != nil && n.ctx.Err() == nil {
			n.logf("node %s: shard %s engine: %v", n.cfg.Name, shard, err)
		}
	}()
	return &shardState{role: RoleLeader, eng: eng, wal: rec.WAL, aud: aud, rep: rep}, nil
}

// AgentAddr returns the bound agent address for a shard this node currently
// leads ("" otherwise) — tests and examples use it with ":0" listeners.
func (n *Node) AgentAddr(shard string) string {
	if eng := n.Engine(shard); eng != nil {
		if a := eng.Addr(); a != nil {
			return a.String()
		}
	}
	return ""
}

// RepAddr returns the bound replication address for the shard this node
// leads ("" when replication serving is off).
func (n *Node) RepAddr() string {
	if n.rep == nil {
		return ""
	}
	return n.rep.addr()
}

// leading returns shard's state if this node leads it, the zero state
// otherwise.
func (n *Node) leading(shard string) shardState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s := n.shards[shard]; s != nil && s.role == RoleLeader {
		return *s
	}
	return shardState{}
}

// Engine returns the live engine for a shard this node leads, nil otherwise.
func (n *Node) Engine(shard string) *engine.Engine { return n.leading(shard).eng }

// WAL returns the live WAL for a shard this node leads, nil otherwise.
func (n *Node) WAL(shard string) *store.WAL { return n.leading(shard).wal }

// Reputation returns the live reputation store for a shard this node leads,
// nil otherwise (or when the loop is disabled).
func (n *Node) Reputation(shard string) *reputation.Store { return n.leading(shard).rep }

// led snapshots the shards this node leads, sorted by shard — the one view
// behind readiness, the /debug reports and the per-shard metric families.
func (n *Node) led() []ledShard {
	n.mu.Lock()
	out := make([]ledShard, 0, len(n.shards))
	for id, s := range n.shards {
		if s.role == RoleLeader {
			out = append(out, ledShard{id: id, shardState: *s})
		}
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Roles reports every shard this node participates in and its current role —
// the payload behind /readyz's per-shard report.
func (n *Node) Roles() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.shards))
	for shard, s := range n.shards {
		out[shard] = s.role
	}
	return out
}

// Health is the node's liveness: the led engines' Health merged (see
// mergeHealth), recovering while a shard promotes, idle
// when nothing is led. Like Engine.Health it never carries the audit status.
func (n *Node) Health() obs.Health {
	var hs []obs.Health
	for _, s := range n.led() {
		hs = append(hs, s.eng.Health())
	}
	return mergeHealth(hs, n.Roles())
}

// Readiness merges the led shards' engine readiness with per-shard roles
// and, when auditing is on, each led shard's audit status — one degraded
// shard answers 503 for the whole node (obs.Readiness.OK).
func (n *Node) Readiness() obs.Readiness {
	roles := n.Roles()
	rep := obs.Readiness{Campaigns: map[string]obs.CampaignStatus{}, Shards: roles}
	var hs []obs.Health
	for _, s := range n.led() {
		er := s.eng.Readiness()
		hs = append(hs, er.Health)
		for id, st := range er.Campaigns {
			rep.Campaigns[id] = st
		}
		if s.aud != nil {
			if rep.ShardAudit == nil {
				rep.ShardAudit = make(map[string]*obs.AuditStatus)
			}
			rep.ShardAudit[s.id] = s.aud.Status()
		}
	}
	rep.Health = mergeHealth(hs, roles)
	return rep
}

// mergeHealth folds the led shards' health reports into one: the last
// report not OK, else the first; recovering while any shard promotes; idle
// when nothing is led.
func mergeHealth(hs []obs.Health, roles map[string]string) obs.Health {
	var h obs.Health
	for _, sh := range hs {
		if h.Status == "" || !sh.OK() {
			h = sh
		}
	}
	for _, role := range roles {
		if role == RoleRecovering {
			h.Status = obs.StatusRecovering
		}
	}
	if h.Status == "" {
		h.Status = obs.StatusIdle
	}
	return h
}

// SpanRecords returns up to n of the led engines' most recent span records,
// merged oldest first by end time — the /debug/spans and /debug/rounds feed.
func (n *Node) SpanRecords(limit int) []span.Record {
	if limit <= 0 {
		return nil
	}
	var recs []span.Record
	for _, s := range n.led() {
		recs = append(recs, s.eng.SpanRecords(limit)...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return spanEnd(recs[i]).Before(spanEnd(recs[j])) })
	if len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	return recs
}

func spanEnd(r span.Record) time.Time { return r.Start.Add(r.Duration()) }

// AuditReports collects the led shards' /debug/audit payloads, sorted and
// stamped by shard. Empty (not nil) when auditing is off.
func (n *Node) AuditReports() []obs.AuditReport {
	reports := []obs.AuditReport{}
	for _, s := range n.led() {
		if s.aud != nil {
			r := s.aud.Report()
			r.Shard = s.id
			reports = append(reports, r)
		}
	}
	return reports
}

// ReputationReports collects the led shards' /debug/reputation payloads,
// sorted and stamped by shard. Empty (not nil) when the loop is off.
func (n *Node) ReputationReports() []obs.ReputationReport {
	reports := []obs.ReputationReport{}
	for _, s := range n.led() {
		if s.rep != nil {
			r := s.rep.Report()
			r.Shard = s.id
			reports = append(reports, r)
		}
	}
	return reports
}

// setShard installs a shard's state (its role, and its parts when leading).
func (n *Node) setShard(shard string, s *shardState) {
	n.mu.Lock()
	n.shards[shard] = s
	n.mu.Unlock()
}

// promote turns the follower of shard f into its leader: replay the replica,
// restore an engine, bind the standby agent address, start serving — and
// optionally start a replication server of our own.
func (n *Node) promote(f FollowConfig, replicaSeq uint64) error {
	started := time.Now()
	n.stats.failovers.Add(1)
	n.setShard(f.Shard, &shardState{role: RoleRecovering})
	sp := n.spans.Start(span.NameFailover,
		span.Str("shard", f.Shard),
		span.Str("node", n.cfg.Name),
		span.Int("replica_seq", int64(replicaSeq)),
	)
	led, err := n.startLeader(f.Shard, f.StateDir, f.AgentAddr, nil)
	if err != nil {
		sp.EndWith(span.Str("error", err.Error()))
		n.setShard(f.Shard, &shardState{role: RoleFollower})
		return err
	}
	n.setShard(f.Shard, led)
	if f.RepAddr != "" {
		rep, err := newRepServer(n, f.Shard, f.RepAddr, led.wal)
		if err != nil {
			n.logf("node %s: promoted shard %s but replication listener failed: %v", n.cfg.Name, f.Shard, err)
		} else {
			n.mu.Lock()
			if n.rep == nil {
				n.rep = rep
			} else {
				n.mu.Unlock()
				rep.close()
				n.mu.Lock()
			}
			n.mu.Unlock()
		}
	}
	elapsed := time.Since(started)
	n.stats.failoverNs.Store(int64(elapsed))
	sp.EndWith(span.Int("replayed_events", int64(replicaSeq)))
	n.logf("node %s: promoted to leader of shard %s in %v (replica seq %d)",
		n.cfg.Name, f.Shard, elapsed, replicaSeq)
	return nil
}

// Close shuts the node down cleanly: listeners stop, the follower loop
// exits, WALs flush and close.
func (n *Node) Close() error {
	return n.shutdown(true)
}

// Halt kills the node as a crash would: everything stops, but WAL contents
// beyond the last group commit are abandoned with the process.
func (n *Node) Halt() {
	n.shutdown(false)
}

func (n *Node) shutdown(flush bool) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	rep := n.rep
	var wals []*store.WAL
	for _, s := range n.shards {
		if s.wal != nil {
			wals = append(wals, s.wal)
		}
	}
	n.mu.Unlock()

	n.cancel()
	if rep != nil {
		rep.close()
	}
	var errs []error
	for _, w := range wals {
		// Closing the WAL flushes; a crash simulation still closes (the
		// test's quiesce step guarantees nothing unflushed matters), because
		// leaking the flusher goroutine would trip the race detector's
		// goroutine accounting across tests.
		if err := w.Close(); err != nil && flush {
			errs = append(errs, err)
		}
	}
	// Engines stop via ctx cancellation.
	n.wg.Wait()
	return errors.Join(errs...)
}

func (n *Node) sinks() []span.Sink {
	return n.cfg.SpanSinks
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// dialTimeout bounds one replication dial.
const dialTimeout = 2 * time.Second

func dialRep(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}
