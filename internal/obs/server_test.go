package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"crowdsense/internal/obs/span"
)

func testOptions(h Health, ring *span.Ring) Options {
	return Options{
		Gather: func() []Family {
			return []Family{{
				Name:    "crowdsense_queue_len",
				Help:    "Bid queue length.",
				Type:    TypeGauge,
				Samples: []Sample{{Value: float64(h.QueueLen)}},
			}}
		},
		Health: func() Health { return h },
		Ready: func() Readiness {
			return Readiness{Health: h, Campaigns: map[string]CampaignStatus{
				"c1": {State: "collecting", Round: 2},
			}}
		},
		Spans: ring.Recent,
	}
}

func TestMuxMetrics(t *testing.T) {
	mux := NewMux(testOptions(Health{QueueLen: 42}, span.NewRing(8)))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q missing exposition version", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "crowdsense_queue_len 42") {
		t.Errorf("/metrics body missing gauge:\n%s", body)
	}
}

func TestMuxHealthz(t *testing.T) {
	// Liveness: every status — including saturated — answers 200. Queue
	// pressure is a routing signal (readiness), not a restart signal.
	cases := []Health{
		{Status: StatusOK, Serving: true, QueueLen: 1, QueueCap: 10, Saturation: 0.1},
		{Status: StatusIdle},
		{Status: StatusSaturated, Serving: true, QueueLen: 95, QueueCap: 100, Saturation: 0.95},
	}
	for _, h := range cases {
		mux := NewMux(testOptions(h, span.NewRing(8)))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("status %q: /healthz code %d, want 200", h.Status, rec.Code)
		}
		var got Health
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("status %q: bad /healthz JSON: %v", h.Status, err)
		}
		if got != h {
			t.Errorf("round-tripped health %+v, want %+v", got, h)
		}
	}
}

func TestMuxReadyz(t *testing.T) {
	cases := []struct {
		health Health
		code   int
	}{
		{Health{Status: StatusOK, Serving: true, QueueLen: 1, QueueCap: 10, Saturation: 0.1}, http.StatusOK},
		{Health{Status: StatusIdle}, http.StatusOK},
		{Health{Status: StatusSaturated, Serving: true, QueueLen: 95, QueueCap: 100, Saturation: 0.95}, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		mux := NewMux(testOptions(c.health, span.NewRing(8)))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if rec.Code != c.code {
			t.Errorf("status %q: /readyz code %d, want %d", c.health.Status, rec.Code, c.code)
		}
		var got Readiness
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("status %q: bad /readyz JSON: %v", c.health.Status, err)
		}
		if got.Health != c.health {
			t.Errorf("round-tripped health %+v, want %+v", got.Health, c.health)
		}
		if cs, ok := got.Campaigns["c1"]; !ok || cs.State != "collecting" || cs.Round != 2 {
			t.Errorf("campaign status %+v, want c1 collecting round 2", got.Campaigns)
		}
	}
	// A nil campaign map serves {} — not null — for JSON consumers.
	mux := NewMux(Options{Ready: func() Readiness { return Readiness{Health: Health{Status: StatusOK}} }})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"campaigns":{}`) {
		t.Errorf("nil campaigns body %q, want campaigns:{}", body)
	}
}

// TestMuxReadyzGoldenBody pins the full /readyz wire format — per-shard
// roles, the per-shard audit summary, and campaign degraded flags — so
// orchestrator probes and dashboards parsing the body never break silently.
func TestMuxReadyzGoldenBody(t *testing.T) {
	ready := Readiness{
		Health: Health{Status: StatusDegraded, Serving: true, OpenCampaigns: 2,
			QueueLen: 3, QueueCap: 64, Saturation: 0.5},
		Campaigns: map[string]CampaignStatus{
			"c1": {State: "collecting", Round: 4},
			"c2": {State: "settling", Round: 2, Degraded: true},
		},
		Shards: map[string]string{"s1": "leader", "s2": "follower"},
		ShardAudit: map[string]*AuditStatus{
			"s1": {Enabled: true, RoundsChecked: 6, Violations: 1,
				DegradedCampaigns: []string{"c2"},
				SLOBreaching:      []string{"phase.computing"},
				LastViolation:     "c2 r2: settlement_contract"},
		},
	}
	mux := NewMux(Options{Ready: func() Readiness { return ready }})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("degraded /readyz code %d, want 503", rec.Code)
	}
	want := `{"status":"degraded","serving":true,"open_campaigns":2,"queue_len":3,"queue_cap":64,` +
		`"queue_saturation":0.5,` +
		`"campaigns":{"c1":{"state":"collecting","round":4},"c2":{"state":"settling","round":2,"degraded":true}},` +
		`"shards":{"s1":"leader","s2":"follower"},` +
		`"shard_audit":{"s1":{"enabled":true,"rounds_checked":6,"violations":1,` +
		`"degraded_campaigns":["c2"],"slo_breaching":["phase.computing"],` +
		`"last_violation":"c2 r2: settlement_contract"}}}`
	if got := strings.TrimSpace(rec.Body.String()); got != want {
		t.Errorf("/readyz body drifted:\n got %s\nwant %s", got, want)
	}

	// The single-process shape: one clean auditor inline, no shard keys —
	// a clean audit keeps /readyz at 200.
	ready = Readiness{
		Health:    Health{Status: StatusOK, Serving: true, OpenCampaigns: 1, QueueCap: 64},
		Campaigns: map[string]CampaignStatus{"c1": {State: "collecting", Round: 1}},
		Audit:     &AuditStatus{Enabled: true, RoundsChecked: 9},
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("clean-audit /readyz code %d, want 200", rec.Code)
	}
	want = `{"status":"ok","serving":true,"open_campaigns":1,"queue_len":0,"queue_cap":64,` +
		`"queue_saturation":0,` +
		`"campaigns":{"c1":{"state":"collecting","round":1}},` +
		`"audit":{"enabled":true,"rounds_checked":9,"violations":0}}`
	if got := strings.TrimSpace(rec.Body.String()); got != want {
		t.Errorf("single-process /readyz body drifted:\n got %s\nwant %s", got, want)
	}
}

func TestMuxDebugRounds(t *testing.T) {
	// Three rounds' worth of spans interleaved with solver and agent spans;
	// /debug/rounds serves only the round-level ones, oldest first.
	ring := span.NewRing(64)
	tr := span.New(ring)
	var want []string
	for r := 1; r <= 3; r++ {
		rd := tr.Start(span.NameRound).Tag("c1", r)
		tr.Start(span.NameAgentSession).End()
		for _, name := range []string{span.NamePhaseCollecting, span.NamePhaseComputing} {
			rd.Child(name).End()
			want = append(want, fmt.Sprintf("%s/%d", name, r))
		}
		wd := rd.Child(span.NameWD)
		wd.Child(span.NameKnapsackSolve).End()
		wd.End()
		rd.Child(span.NamePhaseSettling).End()
		rd.End()
		want = append(want, fmt.Sprintf("%s/%d", span.NameWD, r),
			fmt.Sprintf("%s/%d", span.NamePhaseSettling, r), fmt.Sprintf("%s/%d", span.NameRound, r))
	}
	mux := NewMux(testOptions(Health{Status: StatusOK}, ring))

	get := func(query string) []string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/debug/rounds%s status %d", query, rec.Code)
		}
		var recs []span.Record
		if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
			t.Fatalf("bad /debug/rounds JSON: %v", err)
		}
		var got []string
		for _, r := range recs {
			got = append(got, fmt.Sprintf("%s/%d", r.Name, r.Round))
		}
		return got
	}
	if got := get(""); !reflect.DeepEqual(got, want) {
		t.Errorf("/debug/rounds = %v, want %v", got, want)
	}
	if got := get("?n=2"); !reflect.DeepEqual(got, want[len(want)-2:]) {
		t.Errorf("?n=2 returned %v, want %v", got, want[len(want)-2:])
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}

	// An empty ring must serve [] — not null — for JSON consumers.
	mux = NewMux(testOptions(Health{Status: StatusOK}, span.NewRing(8)))
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds", nil))
	if body := strings.TrimSpace(rec.Body.String()); body != "[]" {
		t.Errorf("empty ring body %q, want []", body)
	}
}

func TestMuxDebugSpans(t *testing.T) {
	ring := span.NewRing(8)
	tr := span.New(ring)
	for i := 0; i < 6; i++ {
		tr.Start("round", span.Int("i", int64(i))).Tag("c1", i+1).End()
	}
	mux := NewMux(Options{Spans: ring.Recent})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?n=2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/spans status %d", rec.Code)
	}
	var recs []span.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
		t.Fatalf("bad /debug/spans JSON: %v", err)
	}
	if len(recs) != 2 || recs[0].Round != 5 || recs[1].Round != 6 {
		t.Errorf("?n=2 returned %+v, want rounds 5 and 6", recs)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?n=-1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}

	// An empty ring must serve [] — not null.
	mux = NewMux(Options{Spans: span.NewRing(8).Recent})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if body := strings.TrimSpace(rec.Body.String()); body != "[]" {
		t.Errorf("empty ring body %q, want []", body)
	}
}

func TestMuxDisabledEndpoints(t *testing.T) {
	mux := NewMux(Options{}) // all sources nil
	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/debug/rounds", "/debug/spans"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s with nil source: status %d, want 404", path, rec.Code)
		}
	}
	// pprof stays wired regardless.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", rec.Code)
	}
}

func TestServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testOptions(Health{Status: StatusOK}, span.NewRing(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr().String() + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}
