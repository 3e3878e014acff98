// Command platformd runs the crowdsensing platform server: it publishes
// tasks, collects sealed bids from agentd processes, runs the fault-tolerant
// mechanism, and settles execution-contingent rewards. Outside cluster mode
// every run is one engine serving its campaigns on one port: a single
// campaign named "default" unless -campaigns asks for c1..cN. Agents that
// name no campaign land in the first one. The engine's metrics snapshot is
// printed at exit. A standalone run and a cluster node assemble every
// shard they serve the same way, with cluster.BuildShard: recover the
// -state-dir WAL, build the auditor and the reputation store, and order the
// engine's event fan-out. Both log every settled round and stop when a
// round fails for a reason other than infeasibility: winner determination
// itself broke.
//
// Example (single task, three bidders, one round):
//
//	platformd -addr 127.0.0.1:7373 -tasks 1 -requirement 0.9 -bidders 3
//
// Example (five tasks, ten bidders, 30 s bid window):
//
//	platformd -tasks 5 -bidders 10 -window 30s
//
// Example (eight concurrent campaigns c1..c8 on one port, two rounds each):
//
//	platformd -campaigns 8 -tasks 2 -bidders 5 -rounds 2 -window 30s
//
// Example (live telemetry: four campaigns plus an HTTP ops endpoint serving
// /metrics in Prometheus text format, /healthz (liveness), /readyz,
// /debug/rounds, /debug/spans, /debug/audit, /debug/reputation, and pprof —
// the same set on a cluster node, where it covers every shard the node
// leads):
//
//	platformd -campaigns 4 -bidders 5 -rounds 2 -metrics-addr :9090
//	curl localhost:9090/metrics
//
// Example (lifecycle tracing: record every campaign/round/phase/solver span
// to a durable JSONL journal, then analyze or convert it with obsctl):
//
//	platformd -bidders 3 -rounds 5 -span-journal spans.jsonl
//	obsctl summary spans.jsonl
//	obsctl convert spans.jsonl > trace.json   # open in ui.perfetto.dev
//
// Example (durable state: every campaign transition is written to a
// write-ahead log; killing the process mid-campaign and restarting with the
// same -state-dir replays the log and resumes at the last durable round
// boundary — campaign flags are then ignored, the recovered specs govern):
//
//	platformd -bidders 3 -rounds 5 -state-dir ./state
//	kill %1 && platformd -state-dir ./state
//
// Example (cluster mode: campaigns c1..c4 sharded across two nodes behind a
// router; node B replicates shard s1's WAL and promotes itself if node A
// dies — agents keep dialing :7000 throughout):
//
//	platformd -cluster s1,s2 -shard s1 -addr :7001 -rep-addr :8001 \
//	    -state-dir ./s1 -campaigns 4 -bidders 2 -rounds 3
//	platformd -cluster s1,s2 -shard s2 -addr :7002 \
//	    -state-dir ./s2 -campaigns 4 -bidders 2 -rounds 3 \
//	    -follow s1@127.0.0.1:8001 -follow-dir ./s1-replica -follow-addr :7004
//	platformd -cluster s1,s2 -addr :7000 \
//	    -peers 's1=127.0.0.1:7001|127.0.0.1:7004,s2=127.0.0.1:7002'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/buildinfo"
	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/obs/spantool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		slog.Error("platformd failed", "err", err)
		os.Exit(1)
	}
}

// options is platformd's parsed command line, read by both serving modes.
// parseOptions defaults node by mode, sets audit when -slo-p99 names
// targets (parsed into slo, nil without any), and parses logLevel.
type options struct {
	addr, journal, spanJournal, stateDir, metricsAddr, node string
	tasks, bidders, rounds, workers, campaigns              int
	requirement, alpha, epsilon, repPrior                   float64
	window                                                  time.Duration
	audit, reputation, version                              bool
	slo                                                     *audit.SLOConfig
	logLevel                                                slog.Level

	// Cluster mode: shard the campaign universe across several platformd
	// processes behind one router. See runCluster.
	cluster, shard, peers, repAddr, follow, followDir, followAddr string
}

// parseOptions parses and checks the command line. Bad input is refused
// here, before anything listens or any file is created.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	var sloP99, logLevel string
	fs := flag.NewFlagSet("platformd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7373", "listen address")
	fs.IntVar(&o.tasks, "tasks", 1, "number of tasks to publish (IDs 1..n)")
	fs.Float64Var(&o.requirement, "requirement", 0.8, "PoS requirement per task")
	fs.IntVar(&o.bidders, "bidders", 3, "bids to collect before running the auction")
	fs.Float64Var(&o.alpha, "alpha", mechanism.DefaultAlpha, "reward scaling factor")
	fs.Float64Var(&o.epsilon, "epsilon", 0.5, "FPTAS parameter (single task)")
	fs.DurationVar(&o.window, "window", 0, "bid window after the first bid (0 = wait for all)")
	fs.IntVar(&o.rounds, "rounds", 1, "auction rounds to serve before exiting")
	fs.IntVar(&o.campaigns, "campaigns", 0, "serve this many concurrent campaigns (c1..cN) on one port (0 = one campaign named default)")
	fs.IntVar(&o.workers, "workers", 0, "winner-determination worker pool size (0 = auto)")
	fs.StringVar(&o.journal, "journal", "", "append one JSON line per round to this file (not with -cluster: a shard's rounds are in its -state-dir WAL)")
	fs.StringVar(&o.spanJournal, "span-journal", "", "record lifecycle spans (campaign/round/phase/solver) to this JSONL file, rotated by size")
	fs.StringVar(&o.node, "node", "", "node identity stamped into span records and cross-process trace context, so obsctl stitch can merge this journal with other nodes' (default: shard@addr in cluster node mode, \"router\" for the router, else \"platform\")")
	fs.StringVar(&o.stateDir, "state-dir", "", "durable state directory: campaign events are written to a WAL there, and on restart the log is replayed to resume campaigns at the last durable round boundary (empty = in-memory only)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve "+opsPaths+" on this address, standalone or as a cluster node (not the router; empty = off)")
	fs.BoolVar(&o.audit, "audit", false, "run the live mechanism auditor: every settled round is checked against the paper's economic invariants (IR, budget, α reward gap, settlement arithmetic); violations degrade /readyz and surface on /debug/audit")
	fs.StringVar(&sloP99, "slo-p99", "", "comma-separated span=duration p99 latency targets for the live auditor, e.g. round=250ms,phase.computing=50ms (a bare duration targets the round span); implies -audit")
	fs.BoolVar(&o.reputation, "reputation", false, "close the learning loop: learn per-user reliability from execution outcomes, run the mechanism on discounted PoS (costs stay declared, but critical PoS and the EC reward pair are priced on the discounted PoS; see ROADMAP, within-round strategy-proofness), checkpoint the learned state into the WAL, and surface it on /metrics and /debug/reputation")
	fs.Float64Var(&o.repPrior, "reputation-prior", 0, "reputation prior pseudo-strength pulling unknown users toward reliability 1 (0 = default)")
	fs.StringVar(&logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	fs.StringVar(&o.cluster, "cluster", "", "comma-separated shard names forming the cluster ring (enables cluster mode; identical on every member)")
	fs.StringVar(&o.shard, "shard", "", "shard this node leads (cluster mode; empty with -peers runs the shard router)")
	fs.StringVar(&o.peers, "peers", "", "router member map shard=addr[|standby],... — leader address first, standbys answer only after promotion")
	fs.StringVar(&o.repAddr, "rep-addr", "", "replication listen address for this shard's followers (cluster node mode; empty = no followers)")
	fs.StringVar(&o.follow, "follow", "", "stand by for another shard: shard@leaderRepAddr (cluster node mode)")
	fs.StringVar(&o.followDir, "follow-dir", "", "replica WAL directory for -follow")
	fs.StringVar(&o.followAddr, "follow-addr", "", "standby agent address for -follow, bound only at promotion")
	fs.Parse(args)

	if o.version {
		return o, nil
	}
	if o.rounds < 1 {
		return nil, fmt.Errorf("-rounds %d must be positive", o.rounds)
	}
	if o.journal != "" && o.cluster != "" {
		// A shard's round journal is derived from its WAL
		// (platform.JournalFromState); nothing would write this file.
		return nil, errors.New("-journal is not supported with -cluster: each shard's settled rounds are in its -state-dir WAL")
	}
	if o.metricsAddr != "" && o.cluster != "" && o.shard == "" {
		// The router holds no campaign state; its only telemetry is spans.
		return nil, errors.New("-metrics-addr is not supported by the shard router: serve it on the cluster nodes")
	}
	targets, err := spantool.ParseSLOTargets(sloP99)
	if err != nil {
		return nil, fmt.Errorf("-slo-p99: %w", err)
	}
	if len(targets) > 0 {
		o.slo = &audit.SLOConfig{Targets: targets}
		o.audit = true
	}
	if err := o.logLevel.UnmarshalText([]byte(logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", logLevel, err)
	}
	if o.node == "" {
		switch {
		case o.cluster != "" && o.shard != "":
			o.node = o.shard + "@" + o.addr
		case o.cluster != "":
			o.node = "router"
		default:
			o.node = "platform"
		}
	}
	return o, nil
}

// campaign is the campaign a fresh start registers under id.
func (o *options) campaign(id string) engine.CampaignConfig {
	tasks := make([]auction.Task, o.tasks)
	for i := range tasks {
		tasks[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: o.requirement}
	}
	return engine.CampaignConfig{
		ID:              id,
		Tasks:           tasks,
		ExpectedBidders: o.bidders,
		BidWindow:       o.window,
		Rounds:          o.rounds,
		Alpha:           o.alpha,
		Epsilon:         o.epsilon,
	}
}

// run parses the command line and serves until every campaign finishes (a
// cluster node serves until ctx ends), a round fails for a reason other than
// infeasibility, or ctx ends.
func run(ctx context.Context, args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.version {
		fmt.Println("platformd " + buildinfo.String())
		return nil
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: o.logLevel})))

	var spans *span.Journal
	if o.spanJournal != "" {
		sj, err := span.OpenJournal(span.JournalConfig{Path: o.spanJournal, Node: o.node})
		if err != nil {
			return err
		}
		spans = sj
		defer func() {
			if err := sj.Close(); err != nil {
				slog.Warn("span journal close", "err", err)
			}
			if n := sj.Dropped(); n > 0 {
				slog.Warn("span journal dropped records", "dropped", n)
			}
		}()
		slog.Info("span journal attached", "path", o.spanJournal, "node", o.node)
	}

	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	hook := onRound(time.Now(), abort)
	if o.cluster != "" {
		err = runCluster(ctx, o, spans, hook)
	} else {
		err = runEngine(ctx, o, spans, hook)
	}
	if cause := context.Cause(ctx); errors.Is(cause, errRoundFailed) {
		return cause
	}
	return err
}

// spanSinks lists the -span-journal journal as a span sink, if one is open.
func spanSinks(j *span.Journal) []span.Sink {
	if j == nil {
		return nil
	}
	return []span.Sink{j}
}

// shardConfig turns the options into the settings both serving modes build
// their shards from (cluster.BuildShard): a standalone run uses them as they
// are, a cluster node adds its shard, addresses and campaigns.
func (o *options) shardConfig(spans *span.Journal, hook func(engine.RoundResult)) cluster.NodeConfig {
	return cluster.NodeConfig{
		Name:            o.node,
		StateDir:        o.stateDir,
		Engine:          engine.Config{Workers: o.workers, OnRound: hook},
		SpanSinks:       spanSinks(spans),
		Audit:           o.audit,
		AuditSLO:        o.slo,
		Reputation:      o.reputation,
		ReputationPrior: o.repPrior,
	}
}

// runEngine is platformd's one non-cluster serving path: it builds the shard
// (registering the campaigns, or resuming the recovered ones), serves it on
// one listener until its campaigns finish, and prints the engine's metrics
// snapshot on exit.
func runEngine(ctx context.Context, o *options, spans *span.Journal, hook func(engine.RoundResult)) error {
	start := time.Now()
	cfg := o.shardConfig(spans, hook)
	for _, id := range campaignIDs(o.campaigns) {
		cfg.Campaigns = append(cfg.Campaigns, o.campaign(id))
	}

	// The ops endpoint comes up before recovery so /readyz can answer 503
	// "recovering" while the WAL replays; the shard swaps in when serving.
	ops := &opsState{}
	if o.metricsAddr != "" {
		srv, err := serveOps(o.metricsAddr, ops, spans)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	var journal io.Writer
	if o.journal != "" {
		f, err := os.OpenFile(o.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		journal = f
	}

	ops.recovering.Store(o.stateDir != "")
	sh, err := cluster.BuildShard(cfg, journal)
	if err != nil {
		return err
	}
	defer func() {
		if err := sh.Close(); err != nil {
			slog.Warn("wal close", "err", err)
		}
	}()
	if sh.WAL != nil {
		info := sh.Recovery
		slog.Info("durable state recovered", "dir", o.stateDir,
			"replayed_events", info.ReplayedEvents,
			"snapshot_seq", info.SnapshotSeq,
			"truncated_bytes", info.TruncatedBytes,
			"dropped_segments", info.DroppedSegments)
	}
	if sh.Restored {
		slog.Info("resuming recovered campaigns; campaign flags ignored", "campaigns", sh.Campaigns)
	}
	if err := sh.Engine.Listen(o.addr); err != nil {
		return err
	}
	slog.Info("engine listening", "addr", sh.Engine.Addr().String(), "campaigns", sh.Campaigns,
		"rounds", o.rounds, "tasks", o.tasks, "requirement", o.requirement, "bidders", o.bidders,
		"audit", o.audit, "reputation", o.reputation)
	ops.serve(sh)

	err = sh.Engine.Serve(ctx)
	fmt.Printf("\nengine metrics after %s:\n%s\n",
		time.Since(start).Round(time.Millisecond), sh.Engine.Snapshot())
	return err
}

// opsSource is what the ops endpoint reads, in either serving mode: the
// standalone opsState or a *cluster.Node.
type opsSource interface {
	MetricFamilies() []obs.Family
	Health() obs.Health
	Readiness() obs.Readiness
	AuditReports() []obs.AuditReport
	ReputationReports() []obs.ReputationReport
	SpanRecords(n int) []span.Record
}

// opsPaths lists what serveOps serves, for the -metrics-addr help and the
// start-up log line.
const opsPaths = "/metrics /healthz /readyz /debug/rounds /debug/spans /debug/audit /debug/reputation /debug/pprof/"

// serveOps starts the observability endpoint over src, adding the span
// journal's, the runtime's and the build's families to its metrics, and
// reports where it landed.
func serveOps(addr string, src opsSource, spans *span.Journal) (*obs.OpsServer, error) {
	srv, err := obs.Serve(addr, obs.Options{
		Gather: func() []obs.Family {
			fams := append(src.MetricFamilies(), obs.JournalFamilies(spans)...)
			fams = append(fams, obs.RuntimeFamilies()...)
			return append(fams, buildinfo.Family())
		},
		Health:     src.Health,
		Ready:      src.Readiness,
		Spans:      src.SpanRecords,
		Audit:      src.AuditReports,
		Reputation: src.ReputationReports,
	})
	if err != nil {
		return nil, err
	}
	slog.Info("ops endpoint up", "url", "http://"+srv.Addr().String(), "paths", opsPaths)
	return srv, nil
}

// opsState is the standalone opsSource and the swap point between
// "recovering" and "serving": until a shard is installed, /readyz answers
// 503 recovering while a WAL replays (idle otherwise) and /metrics and the
// /debug reports are empty; once the shard serves, its full surface is
// exposed.
type opsState struct {
	shard      atomic.Pointer[cluster.Shard]
	recovering atomic.Bool
}

// serve installs the serving shard and ends the recovering window.
func (o *opsState) serve(sh *cluster.Shard) {
	o.shard.Store(sh)
	o.recovering.Store(false)
}

func (o *opsState) MetricFamilies() []obs.Family {
	if sh := o.shard.Load(); sh != nil {
		return sh.MetricFamilies()
	}
	return nil
}

func (o *opsState) AuditReports() []obs.AuditReport {
	if sh := o.shard.Load(); sh != nil {
		return sh.AuditReports()
	}
	return nil
}

func (o *opsState) ReputationReports() []obs.ReputationReport {
	if sh := o.shard.Load(); sh != nil {
		return sh.ReputationReports()
	}
	return nil
}

func (o *opsState) Health() obs.Health {
	if sh := o.shard.Load(); sh != nil {
		return sh.Engine.Health()
	}
	status := obs.StatusIdle
	if o.recovering.Load() {
		status = obs.StatusRecovering
	}
	return obs.Health{Status: status}
}

func (o *opsState) Readiness() obs.Readiness {
	if sh := o.shard.Load(); sh != nil {
		return sh.Engine.Readiness()
	}
	return obs.Readiness{Health: o.Health()}
}

func (o *opsState) SpanRecords(n int) []span.Record {
	if sh := o.shard.Load(); sh != nil {
		return sh.Engine.SpanRecords(n)
	}
	return nil
}

// errRoundFailed marks a round that failed for a reason other than
// infeasibility. Such a round stops the platform: an infeasible round is
// void and the campaign goes on, anything else means winner determination
// itself broke.
var errRoundFailed = errors.New("round failed")

// onRound logs each settled round and aborts serving, with errRoundFailed as
// the cause, on a round that failed for a reason other than infeasibility.
func onRound(start time.Time, abort context.CancelCauseFunc) func(engine.RoundResult) {
	return func(r engine.RoundResult) {
		logRound(r, time.Since(start))
		if r.Err != nil && !errors.Is(r.Err, mechanism.ErrInfeasible) {
			abort(fmt.Errorf("%w: campaign %s round %d: %w", errRoundFailed, r.Campaign, r.Round, r.Err))
		}
	}
}

// campaignIDs names the campaigns a fresh start registers: c1..cN, or one
// campaign named "default" when n is 0 — the ID single-campaign state
// directories carry, so their WALs restore unchanged.
func campaignIDs(n int) []string {
	if n <= 0 {
		return []string{"default"}
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i+1)
	}
	return ids
}

// logRound summarizes one completed auction round.
func logRound(result engine.RoundResult, elapsed time.Duration) {
	log := slog.With("campaign", result.Campaign, "round", result.Round)
	if result.Err != nil {
		log.Warn("round void", "elapsed", elapsed.Round(time.Millisecond), "err", result.Err)
		return
	}
	log.Info("round settled",
		"elapsed", elapsed.Round(time.Millisecond),
		"mechanism", result.Outcome.Mechanism,
		"bids", len(result.Bids),
		"winners", len(result.Outcome.Selected),
		"social_cost", fmt.Sprintf("%.2f", result.Outcome.SocialCost))
	for _, aw := range result.Outcome.Awards {
		settle, reported := result.Settlements[aw.User]
		switch {
		case !reported:
			log.Info("winner unreported", "agent", int(aw.User), "critical_pos", fmt.Sprintf("%.3f", aw.CriticalPoS))
		case settle.Success:
			log.Info("winner succeeded", "agent", int(aw.User),
				"critical_pos", fmt.Sprintf("%.3f", aw.CriticalPoS), "paid", fmt.Sprintf("%.2f", settle.Reward))
		default:
			log.Info("winner failed", "agent", int(aw.User),
				"critical_pos", fmt.Sprintf("%.3f", aw.CriticalPoS), "paid", fmt.Sprintf("%.2f", settle.Reward))
		}
	}
}
