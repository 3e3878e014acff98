// Command platformd runs the crowdsensing platform server: it publishes
// tasks, collects sealed bids from agentd processes, runs the fault-tolerant
// mechanism, and settles execution-contingent rewards. Outside cluster mode
// every run is one engine serving its campaigns on one port: a single
// campaign named "default" unless -campaigns asks for c1..cN. Agents that
// name no campaign land in the first one. The engine's metrics snapshot is
// printed at exit.
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
// /metrics in Prometheus text format, /healthz, /readyz, /debug/rounds,
// /debug/spans, and pprof):
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
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/buildinfo"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/obs/spantool"
	"crowdsense/internal/platform"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("platformd failed", "err", err)
		os.Exit(1)
	}
}

// run parses the command line and serves until every campaign finishes, a
// round fails for a reason other than infeasibility, or a signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("platformd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7373", "listen address")
		tasks       = fs.Int("tasks", 1, "number of tasks to publish (IDs 1..n)")
		requirement = fs.Float64("requirement", 0.8, "PoS requirement per task")
		bidders     = fs.Int("bidders", 3, "bids to collect before running the auction")
		alpha       = fs.Float64("alpha", mechanism.DefaultAlpha, "reward scaling factor")
		epsilon     = fs.Float64("epsilon", 0.5, "FPTAS parameter (single task)")
		window      = fs.Duration("window", 0, "bid window after the first bid (0 = wait for all)")
		rounds      = fs.Int("rounds", 1, "auction rounds to serve before exiting")
		campaigns   = fs.Int("campaigns", 0, "serve this many concurrent campaigns (c1..cN) on one port (0 = one campaign named default)")
		workers     = fs.Int("workers", 0, "winner-determination worker pool size (0 = auto)")
		journal     = fs.String("journal", "", "append one JSON line per round to this file (not with -cluster: a shard's rounds are in its -state-dir WAL)")
		spanJournal = fs.String("span-journal", "", "record lifecycle spans (campaign/round/phase/solver) to this JSONL file, rotated by size")
		nodeFlag    = fs.String("node", "", "node identity stamped into span records and cross-process trace context, so obsctl stitch can merge this journal with other nodes' (default: shard@addr in cluster node mode, \"router\" for the router, else \"platform\")")
		stateDir    = fs.String("state-dir", "", "durable state directory: campaign events are written to a WAL there, and on restart the log is replayed to resume campaigns at the last durable round boundary (empty = in-memory only)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/rounds, /debug/spans, /debug/audit, and pprof on this address (empty = off)")
		auditFlag   = fs.Bool("audit", false, "run the live mechanism auditor: every settled round is checked against the paper's economic invariants (IR, budget, α reward gap, settlement arithmetic); violations degrade /readyz and surface on /debug/audit")
		sloP99      = fs.String("slo-p99", "", "comma-separated span=duration p99 latency targets for the live auditor, e.g. round=250ms,phase.computing=50ms (a bare duration targets the round span); implies -audit")
		repFlag     = fs.Bool("reputation", false, "close the learning loop: learn per-user reliability from execution outcomes, run the mechanism on discounted PoS (costs stay declared, but critical PoS and the EC reward pair are priced on the discounted PoS; see ROADMAP, within-round strategy-proofness), checkpoint the learned state into the WAL, and surface it on /metrics and /debug/reputation")
		repPrior    = fs.Float64("reputation-prior", 0, "reputation prior pseudo-strength pulling unknown users toward reliability 1 (0 = default)")
		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error")
		version     = fs.Bool("version", false, "print version and exit")

		// Cluster mode: shard the campaign universe across several platformd
		// processes behind one router. See runCluster.
		clusterArg = fs.String("cluster", "", "comma-separated shard names forming the cluster ring (enables cluster mode; identical on every member)")
		shard      = fs.String("shard", "", "shard this node leads (cluster mode; empty with -peers runs the shard router)")
		peers      = fs.String("peers", "", "router member map shard=addr[|standby],... — leader address first, standbys answer only after promotion")
		repAddr    = fs.String("rep-addr", "", "replication listen address for this shard's followers (cluster node mode; empty = no followers)")
		follow     = fs.String("follow", "", "stand by for another shard: shard@leaderRepAddr (cluster node mode)")
		followDir  = fs.String("follow-dir", "", "replica WAL directory for -follow")
		followAddr = fs.String("follow-addr", "", "standby agent address for -follow, bound only at promotion")
	)
	fs.Parse(args)

	if *version {
		fmt.Println("platformd " + buildinfo.String())
		return nil
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds %d must be positive", *rounds)
	}
	if *journal != "" && *clusterArg != "" {
		// A shard's round journal is derived from its WAL
		// (platform.JournalFromState); nothing would write this file.
		return errors.New("-journal is not supported with -cluster: each shard's settled rounds are in its -state-dir WAL")
	}

	sloTargets, err := spantool.ParseSLOTargets(*sloP99)
	if err != nil {
		return fmt.Errorf("-slo-p99: %w", err)
	}
	var sloCfg *audit.SLOConfig
	if len(sloTargets) > 0 {
		sloCfg = &audit.SLOConfig{Targets: sloTargets}
	}
	auditOn := *auditFlag || sloCfg != nil

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: level})))

	specs := make([]auction.Task, *tasks)
	for i := range specs {
		specs[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: *requirement}
	}

	var journalFile *os.File
	if *journal != "" {
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		journalFile = f
	}

	nodeName := *nodeFlag
	if nodeName == "" {
		switch {
		case *clusterArg != "" && *shard != "":
			nodeName = *shard + "@" + *addr
		case *clusterArg != "":
			nodeName = "router"
		default:
			nodeName = "platform"
		}
	}

	var spanSinks []span.Sink
	var spanJ *span.Journal
	if *spanJournal != "" {
		sj, err := span.OpenJournal(span.JournalConfig{Path: *spanJournal, Node: nodeName})
		if err != nil {
			return err
		}
		spanJ = sj
		defer func() {
			if err := sj.Close(); err != nil {
				slog.Warn("span journal close", "err", err)
			}
			if n := sj.Dropped(); n > 0 {
				slog.Warn("span journal dropped records", "dropped", n)
			}
		}()
		spanSinks = append(spanSinks, sj)
		slog.Info("span journal attached", "path", *spanJournal, "node", nodeName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *clusterArg != "" {
		return runCluster(ctx, clusterOptions{
			node:        nodeName,
			journal:     spanJ,
			shards:      strings.Split(*clusterArg, ","),
			shard:       *shard,
			peers:       *peers,
			addr:        *addr,
			repAddr:     *repAddr,
			stateDir:    *stateDir,
			follow:      *follow,
			followDir:   *followDir,
			followAdr:   *followAddr,
			campaigns:   *campaigns,
			tasks:       specs,
			bidders:     *bidders,
			rounds:      *rounds,
			alpha:       *alpha,
			epsilon:     *epsilon,
			window:      *window,
			workers:     *workers,
			spanSinks:   spanSinks,
			metricsAddr: *metricsAddr,
			audit:       auditOn,
			auditSLO:    sloCfg,
			reputation:  *repFlag,
			repPrior:    *repPrior,
		})
	}

	// The ops endpoint comes up before recovery so /readyz can answer 503
	// "recovering" while the WAL replays; the engine swaps in when ready.
	ops := &opsState{}
	ops.journal.Store(spanJ)
	var aud *audit.Auditor
	if auditOn {
		aud = audit.New(audit.Config{SLO: sloCfg})
		// The auditor is also a span sink: span end events feed its SLO
		// engine, alongside whatever journal -span-journal attached.
		spanSinks = append(spanSinks, aud)
		ops.aud.Store(aud)
		sloCount := 0
		if sloCfg != nil {
			sloCount = len(sloCfg.Targets)
		}
		slog.Info("live auditor enabled", "slo_targets", sloCount)
	}
	var rep *reputation.Store
	if *repFlag {
		rep, err = reputation.NewStore(reputation.StoreConfig{PriorStrength: *repPrior})
		if err != nil {
			return err
		}
		ops.rep.Store(rep)
		slog.Info("reputation loop enabled", "prior", *repPrior)
	}
	if *metricsAddr != "" {
		srv, err := serveOps(*metricsAddr, ops)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// Recover durable state, if configured. The WAL is the first event
	// store; a round journal rides the same stream through a JournalStore.
	var rec *platform.Recovered
	var eventStore store.Store
	if *stateDir != "" {
		ops.recovering.Store(true)
		r, err := platform.Recover(*stateDir, spanSinks...)
		if err != nil {
			return err
		}
		rec = r
		ops.wal.Store(r.WAL)
		defer func() {
			if err := r.WAL.Close(); err != nil {
				slog.Warn("wal close", "err", err)
			}
		}()
		slog.Info("durable state recovered", "dir", *stateDir,
			"campaigns", len(r.State.Order),
			"replayed_events", r.Info.ReplayedEvents,
			"snapshot_seq", r.Info.SnapshotSeq,
			"truncated_bytes", r.Info.TruncatedBytes,
			"dropped_segments", r.Info.DroppedSegments)
		eventStore = r.WAL
	}
	// The round journal is derived from the same event stream (one encoder,
	// no drift).
	if journalFile != nil {
		var seed *store.State
		if rec != nil {
			seed = rec.State
		}
		js, err := platform.NewJournalStore(journalFile, seed)
		if err != nil {
			return err
		}
		eventStore = store.Multi(eventStore, js)
	}

	// The auditor rides the emit path after the WAL and the journal,
	// checking each round as it settles.
	if aud != nil {
		eventStore = store.Multi(eventStore, aud)
	}

	return runEngine(ctx, engineOptions{
		addr:      *addr,
		node:      nodeName,
		tasks:     specs,
		bidders:   *bidders,
		window:    *window,
		rounds:    *rounds,
		campaigns: *campaigns,
		workers:   *workers,
		alpha:     *alpha,
		epsilon:   *epsilon,
		spanSinks: spanSinks,
		store:     eventStore,
		recovered: rec,
		ops:       ops,
		aud:       aud,
		rep:       rep,
	})
}

type engineOptions struct {
	addr      string
	node      string
	tasks     []auction.Task
	bidders   int
	window    time.Duration
	rounds    int
	campaigns int // 0 registers one campaign named "default"
	workers   int
	alpha     float64
	epsilon   float64
	spanSinks []span.Sink
	store     store.Store
	recovered *platform.Recovered
	ops       *opsState
	aud       *audit.Auditor
	rep       *reputation.Store
}

// opsState is the swap point between "recovering" and "serving" for the ops
// endpoint: before an engine is installed, /readyz answers 503 recovering
// (when a WAL replay is in progress) and /metrics serves WAL counters only;
// once the engine takes over, its full surface is exposed.
type opsState struct {
	eng        atomic.Pointer[engine.Engine]
	wal        atomic.Pointer[store.WAL]
	aud        atomic.Pointer[audit.Auditor]
	rep        atomic.Pointer[reputation.Store]
	journal    atomic.Pointer[span.Journal]
	recovering atomic.Bool
}

func (o *opsState) setEngine(e *engine.Engine) {
	o.eng.Store(e)
	o.recovering.Store(false)
}

func (o *opsState) gather() []obs.Family {
	var fams []obs.Family
	if e := o.eng.Load(); e != nil {
		fams = e.MetricFamilies()
	}
	if w := o.wal.Load(); w != nil {
		fams = append(fams, w.Families()...)
	}
	if a := o.aud.Load(); a != nil {
		fams = append(fams, a.Families()...)
	}
	if r := o.rep.Load(); r != nil {
		fams = append(fams, r.Families()...)
	}
	fams = append(fams, obs.JournalFamilies(o.journal.Load())...)
	fams = append(fams, obs.RuntimeFamilies()...)
	return append(fams, buildinfo.Family())
}

func (o *opsState) audit() []obs.AuditReport {
	if a := o.aud.Load(); a != nil {
		return []obs.AuditReport{a.Report()}
	}
	return nil
}

func (o *opsState) reputation() []obs.ReputationReport {
	if r := o.rep.Load(); r != nil {
		return []obs.ReputationReport{r.Report()}
	}
	return nil
}

func (o *opsState) health() obs.Health {
	if e := o.eng.Load(); e != nil {
		return e.Health()
	}
	status := obs.StatusIdle
	if o.recovering.Load() {
		status = obs.StatusRecovering
	}
	return obs.Health{Status: status}
}

func (o *opsState) ready() obs.Readiness {
	if e := o.eng.Load(); e != nil {
		return e.Readiness()
	}
	return obs.Readiness{Health: o.health()}
}

func (o *opsState) spans(n int) []span.Record {
	if e := o.eng.Load(); e != nil {
		return e.SpanRecords(n)
	}
	return nil
}

// serveOps starts the observability endpoint over the swap point and
// reports where it landed.
func serveOps(addr string, ops *opsState) (*obs.OpsServer, error) {
	srv, err := obs.Serve(addr, obs.Options{
		Gather:     ops.gather,
		Health:     ops.health,
		Ready:      ops.ready,
		Spans:      ops.spans,
		Audit:      ops.audit,
		Reputation: ops.reputation,
	})
	if err != nil {
		return nil, err
	}
	slog.Info("ops endpoint up", "url", "http://"+srv.Addr().String(),
		"paths", "/metrics /healthz /readyz /debug/rounds /debug/spans /debug/audit /debug/reputation /debug/pprof/")
	return srv, nil
}

// errRoundFailed marks a round that failed for a reason other than
// infeasibility. Such a round stops the platform: an infeasible round is
// void and the campaign goes on, anything else means winner determination
// itself broke.
var errRoundFailed = errors.New("round failed")

// runEngine is platformd's one non-cluster serving path: it registers the
// campaigns (or resumes the recovered ones), serves them on one listener
// until they finish, and prints the engine's metrics snapshot on exit.
func runEngine(ctx context.Context, opts engineOptions) error {
	start := time.Now()
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	ecfg := engine.Config{
		Workers:    opts.workers,
		NodeID:     opts.node,
		SpanSinks:  opts.spanSinks,
		Store:      opts.store,
		Reputation: opts.rep,
		OnRound:    onRound(start, abort),
	}
	if opts.aud != nil {
		ecfg.AuditStatus = opts.aud.Status
	}
	eng := engine.New(ecfg)
	if opts.aud != nil {
		// Audit spans land in the engine's own ring and journal.
		opts.aud.SetSpans(eng.SpanTracer())
	}
	if opts.recovered.HasCampaigns() {
		if err := eng.Restore(opts.recovered.State); err != nil {
			return err
		}
		slog.Info("resuming recovered campaigns; campaign flags ignored",
			"campaigns", len(opts.recovered.State.Order))
	} else {
		for _, id := range campaignIDs(opts.campaigns) {
			err := eng.AddCampaign(engine.CampaignConfig{
				ID:              id,
				Tasks:           opts.tasks,
				ExpectedBidders: opts.bidders,
				BidWindow:       opts.window,
				Rounds:          opts.rounds,
				Alpha:           opts.alpha,
				Epsilon:         opts.epsilon,
			})
			if err != nil {
				return err
			}
		}
	}
	if err := eng.Listen(opts.addr); err != nil {
		return err
	}
	listening := []any{"addr", eng.Addr().String(), "campaigns", len(eng.Results()),
		"rounds", opts.rounds, "tasks", len(opts.tasks)}
	if len(opts.tasks) > 0 { // -tasks 0 is legal when resuming recovered campaigns
		listening = append(listening, "requirement", opts.tasks[0].Requirement)
	}
	slog.Info("engine listening", append(listening, "bidders", opts.bidders)...)
	if opts.ops != nil {
		opts.ops.setEngine(eng)
	}

	err := eng.Serve(ctx)
	fmt.Printf("\nengine metrics after %s:\n%s\n",
		time.Since(start).Round(time.Millisecond), eng.Snapshot())
	if cause := context.Cause(ctx); errors.Is(cause, errRoundFailed) {
		return cause
	}
	return err
}

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
