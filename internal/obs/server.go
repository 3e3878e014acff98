package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"crowdsense/internal/obs/span"
)

// Health statuses reported by /healthz.
const (
	// StatusOK: serving and the bid queue has headroom.
	StatusOK = "ok"
	// StatusIdle: the producer is not serving (not started, or finished).
	// Still healthy — an engine that completed all campaigns is not broken.
	StatusIdle = "idle"
	// StatusSaturated: the bid queue is at or beyond SaturationThreshold;
	// /readyz answers 503 so orchestrators can shed load (/healthz stays
	// 200 — a saturated process is overloaded, not dead).
	StatusSaturated = "saturated"
	// StatusRecovering: the process is replaying durable state (snapshot +
	// WAL) and not yet accepting agents; /readyz answers 503 until the
	// engine takes over (/healthz stays 200 — recovery is progress, not
	// death).
	StatusRecovering = "recovering"
	// StatusDegraded: the live auditor found a mechanism-invariant violation
	// or a breaching latency SLO. The process keeps serving (/healthz stays
	// 200 — restarting would destroy the evidence and fix nothing), but
	// /readyz answers 503 so orchestrators route new campaigns elsewhere
	// while operators investigate.
	StatusDegraded = "degraded"
)

// SaturationThreshold is the queue occupancy fraction at which a producer
// should report StatusSaturated.
const SaturationThreshold = 0.9

// Health is a producer's liveness/saturation report.
type Health struct {
	Status        string  `json:"status"`
	Serving       bool    `json:"serving"`
	OpenCampaigns int     `json:"open_campaigns"`
	QueueLen      int     `json:"queue_len"`
	QueueCap      int     `json:"queue_cap"`
	Saturation    float64 `json:"queue_saturation"`
}

// OK reports whether the health status maps to HTTP 200.
func (h Health) OK() bool {
	return h.Status != StatusSaturated && h.Status != StatusRecovering && h.Status != StatusDegraded
}

// CampaignStatus is one campaign's lifecycle position in a readiness report.
type CampaignStatus struct {
	State string `json:"state"` // collecting | computing | settling | closed
	Round int    `json:"round"` // 1-based current (or final) round
	// Degraded marks a campaign with at least one live-audit invariant
	// violation. The campaign keeps running — degrading routes traffic away
	// and pages an operator; killing it would erase the evidence.
	Degraded bool `json:"degraded,omitempty"`
}

// Readiness is the /readyz report: the health summary plus per-campaign
// status. Unlike liveness, readiness maps saturation to HTTP 503 so load
// balancers stop routing new agents while the bid queue drains.
//
// Shards appears only on cluster nodes: each shard the node participates in
// mapped to its role (leader | follower | recovering). Single-process
// deployments omit it, keeping the report backward compatible. ShardAudit
// likewise appears only on cluster nodes running per-shard auditors.
type Readiness struct {
	Health
	Campaigns  map[string]CampaignStatus `json:"campaigns"`
	Shards     map[string]string         `json:"shards,omitempty"`
	Audit      *AuditStatus              `json:"audit,omitempty"`
	ShardAudit map[string]*AuditStatus   `json:"shard_audit,omitempty"`
}

// OK reports whether the readiness report maps to HTTP 200: the health
// summary must be OK and no auditor — process-wide or per-shard — may be
// degraded.
func (r Readiness) OK() bool {
	if !r.Health.OK() {
		return false
	}
	if r.Audit.Degraded() {
		return false
	}
	for _, a := range r.ShardAudit {
		if a.Degraded() {
			return false
		}
	}
	return true
}

// Options wires the data sources behind the ops endpoints. A nil source
// disables its endpoint (404).
type Options struct {
	// Gather supplies the metric families for /metrics.
	Gather func() []Family
	// Health supplies the /healthz report.
	Health func() Health
	// Ready supplies the /readyz report.
	Ready func() Readiness
	// Spans supplies up to n recent lifecycle spans, oldest first, or all
	// it holds when n is larger (typically Engine.SpanRecords). It backs
	// /debug/spans, and /debug/rounds as the round-level subset of the
	// same records.
	Spans func(n int) []span.Record
	// Audit supplies the live-audit reports for /debug/audit — one per
	// auditor (single-process deployments have exactly one; cluster nodes
	// one per led shard).
	Audit func() []AuditReport
	// Reputation supplies the learned-reliability reports for
	// /debug/reputation — one per reputation store (single-process
	// deployments have exactly one; cluster nodes one per led shard).
	Reputation func() []ReputationReport
}

// NewMux assembles the ops endpoints on a fresh ServeMux:
//
//	/metrics       Prometheus text exposition format
//	/healthz       JSON liveness: always 200 while the process serves requests
//	/readyz        JSON readiness with per-campaign status, 503 when saturated
//	/debug/rounds  JSON of the recent round, phase and wd spans (?n= bounds the count)
//	/debug/spans   JSON of the recent lifecycle spans (?n= bounds the count)
//	/debug/audit   JSON live-audit reports (invariants + SLO burn rates)
//	/debug/reputation  JSON learned-reliability reports (the closed loop's state)
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Liveness and readiness are deliberately split: a saturated bid queue means
// "stop routing new agents here" (readiness 503), not "restart the process"
// (liveness stays 200). Pointing a restart-on-unhealthy orchestrator at a
// load signal turns every burst into a crash loop.
func NewMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	if opts.Gather != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = RenderMetrics(w, opts.Gather())
		})
	}
	if opts.Health != nil {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			h := opts.Health()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(h)
		})
	}
	if opts.Ready != nil {
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			rep := opts.Ready()
			if rep.Campaigns == nil {
				rep.Campaigns = map[string]CampaignStatus{}
			}
			w.Header().Set("Content-Type", "application/json")
			if !rep.OK() {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(rep)
		})
	}
	if opts.Spans != nil {
		mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
			n, ok := parseN(w, r)
			if !ok {
				return
			}
			writeRecords(w, opts.Spans(n))
		})
		mux.HandleFunc("/debug/rounds", func(w http.ResponseWriter, r *http.Request) {
			n, ok := parseN(w, r)
			if !ok {
				return
			}
			// Spans clamps n to what it holds: this reads all of it.
			writeRecords(w, roundRecords(opts.Spans(math.MaxInt), n))
		})
	}
	if opts.Audit != nil {
		mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
			reports := opts.Audit()
			if reports == nil {
				reports = []AuditReport{}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(reports)
		})
	}
	if opts.Reputation != nil {
		mux.HandleFunc("/debug/reputation", func(w http.ResponseWriter, r *http.Request) {
			reports := opts.Reputation()
			if reports == nil {
				reports = []ReputationReport{}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(reports)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseN reads the ?n= record bound shared by /debug/spans and
// /debug/rounds (default 100). A bad value answers 400 and reports false.
func parseN(w http.ResponseWriter, r *http.Request) (int, bool) {
	arg := r.URL.Query().Get("n")
	if arg == "" {
		return 100, true
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		http.Error(w, fmt.Sprintf("bad n %q", arg), http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// roundRecords keeps the last n round-level records of recs — the round,
// phase and wd spans — in their order.
func roundRecords(recs []span.Record, n int) []span.Record {
	var out []span.Record
	for _, rec := range recs {
		switch rec.Name {
		case span.NameRound, span.NamePhaseCollecting, span.NamePhaseComputing,
			span.NamePhaseSettling, span.NameWD:
			out = append(out, rec)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// writeRecords serves recs as a JSON array; none serves [], not null.
func writeRecords(w http.ResponseWriter, recs []span.Record) {
	if recs == nil {
		recs = []span.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(recs)
}

// OpsServer is a running ops endpoint; Close shuts it down.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr reports the bound address (useful with ":0").
func (s *OpsServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server, closing the listener and any open connections.
func (s *OpsServer) Close() error { return s.srv.Close() }

// Serve binds addr and serves the ops endpoints in the background. The
// returned server is live when Serve returns; callers own its Close.
func Serve(addr string, opts Options) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewMux(opts),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &OpsServer{ln: ln, srv: srv}, nil
}
