package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
)

func TestQuantile(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}

	// A single sub-millisecond observation: interpolation toward the 1 ms
	// bucket bound must clamp to the observed maximum.
	var h histogram
	h.observe(500 * time.Microsecond)
	if got := h.snapshot().Quantile(0.5); got != 500*time.Microsecond {
		t.Errorf("single-obs Quantile(0.5) = %v, want 500µs (clamped to max)", got)
	}

	// Mixed buckets: 1 × ≤1ms, 2 × ≤5ms, 1 × +Inf.
	h = histogram{}
	h.observe(500 * time.Microsecond)
	h.observe(3 * time.Millisecond)
	h.observe(3 * time.Millisecond)
	h.observe(2 * time.Minute)
	s := h.snapshot()

	// Rank 2 of 4 lands mid-way into the (2ms, 5ms] bucket:
	// 2ms + (2−1)/2 · 3ms = 3.5ms.
	if got, want := s.Quantile(0.5), 3500*time.Microsecond; got != want {
		t.Errorf("Quantile(0.5) = %v, want %v", got, want)
	}
	// Rank 3.96 lands in the +Inf bucket, which reports the observed max.
	if got := s.Quantile(0.99); got != 2*time.Minute {
		t.Errorf("Quantile(0.99) = %v, want max", got)
	}
	// Out-of-range q is clamped.
	if got := s.Quantile(2); got != 2*time.Minute {
		t.Errorf("Quantile(2) = %v, want max", got)
	}
	if got := s.Quantile(-1); got != s.Quantile(0) {
		t.Errorf("Quantile(-1) = %v, want Quantile(0) = %v", got, s.Quantile(0))
	}

	// snapshot() pre-computes the p50/p95/p99 fields and String() shows them.
	if s.P50 != s.Quantile(0.5) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Errorf("precomputed quantiles %v/%v/%v disagree with Quantile", s.P50, s.P95, s.P99)
	}
	if str := s.String(); !strings.Contains(str, "p50=3.5ms") {
		t.Errorf("String() missing p50: %s", str)
	}
}

func TestBucketMarshalJSON(t *testing.T) {
	data, err := json.Marshal([]Bucket{
		{UpperBound: time.Millisecond, Count: 1},
		{UpperBound: -1, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"upper_bound":1000000,"count":1},{"upper_bound":"+Inf","count":2}]`
	if string(data) != want {
		t.Errorf("buckets marshal to %s, want %s", data, want)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of the exposition line starting with prefix.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no metric line with prefix %q in:\n%s", prefix, body)
	return 0
}

// TestOpsEndpointMidRun is the acceptance test for the telemetry layer: an
// engine serves rounds while the ops endpoint is scraped mid-run, and the
// scrape shows live counters and winner-determination quantiles.
func TestOpsEndpointMidRun(t *testing.T) {
	const agents = 3
	roundDone := make(chan RoundResult, 4)
	e := New(Config{
		ConnTimeout: 10 * time.Second,
		OnRound:     func(r RoundResult) { roundDone <- r },
	})
	cfg := singleTaskCampaign("c1", agents)
	cfg.Rounds = 2
	if err := e.AddCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if got := e.Health().Status; got != obs.StatusIdle {
		t.Errorf("pre-serve health %q, want %q", got, obs.StatusIdle)
	}
	addr, done := startEngine(t, e)

	ops, err := obs.Serve("127.0.0.1:0", obs.Options{
		Gather: e.MetricFamilies,
		Health: e.Health,
		Spans:  e.SpanRecords,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	base := "http://" + ops.Addr().String()

	runRound := func(round int) {
		var wg sync.WaitGroup
		for a := 0; a < agents; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				user := auction.UserID(100*round + a + 1)
				if _, err := runAgent(t, addr, "c1", user, float64(a)+1, 0.9); err != nil {
					t.Errorf("round %d agent %d: %v", round, user, err)
				}
			}(a)
		}
		wg.Wait()
		if r := <-roundDone; r.Err != nil {
			t.Fatalf("round %d void: %v", round, r.Err)
		}
	}
	runRound(1)

	// Mid-run: round 1 settled, round 2 still pending — the campaign is open
	// and the engine is serving while we scrape.
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if got := metricValue(t, body, `crowdsense_bids_accepted_total{campaign="c1"}`); got != agents {
		t.Errorf("bids_accepted = %v, want %d", got, agents)
	}
	if got := metricValue(t, body, `crowdsense_wd_duration_seconds{campaign="c1",quantile="0.5"}`); got <= 0 {
		t.Errorf("wd duration p50 = %v, want > 0", got)
	}
	if got := metricValue(t, body, `crowdsense_wd_duration_seconds_count{campaign="c1"}`); got != 1 {
		t.Errorf("wd duration count = %v, want 1", got)
	}
	if got := metricValue(t, body, `crowdsense_rounds_completed_total{campaign="c1"}`); got != 1 {
		t.Errorf("rounds_completed = %v, want 1", got)
	}
	if got := metricValue(t, body, `crowdsense_wd_winners{campaign="c1"}`); got <= 0 {
		t.Errorf("wd_winners gauge = %v, want > 0", got)
	}

	code, healthBody := httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, healthBody)
	}
	var h obs.Health
	if err := json.Unmarshal([]byte(healthBody), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != obs.StatusOK || !h.Serving || h.OpenCampaigns != 1 {
		t.Errorf("mid-run health %+v", h)
	}

	code, roundsBody := httpGet(t, base+"/debug/rounds")
	if code != http.StatusOK {
		t.Fatalf("/debug/rounds status %d", code)
	}
	var recs []span.Record
	if err := json.Unmarshal([]byte(roundsBody), &recs); err != nil {
		t.Fatal(err)
	}
	phases := 0
	var settled *span.Record
	for i, rec := range recs {
		if rec.Campaign != "c1" {
			t.Errorf("%s span for unexpected campaign %q", rec.Name, rec.Campaign)
		}
		if rec.Round != 1 {
			continue
		}
		switch rec.Name {
		case span.NamePhaseCollecting, span.NamePhaseComputing, span.NamePhaseSettling:
			phases++
		case span.NameRound:
			settled = &recs[i]
		}
	}
	if phases != 3 {
		t.Errorf("round 1 has %d phase spans, want 3: %+v", phases, recs)
	}
	if settled == nil {
		t.Fatalf("no round span for c1 round 1: %+v", recs)
	}
	if w, _ := settled.Attrs.Int("winners"); w <= 0 {
		t.Errorf("round span winners = %d, want > 0: %+v", w, settled.Attrs)
	}
	if settled.Attrs.Get("payment") == nil {
		t.Errorf("round span has no payment attribute: %+v", settled.Attrs)
	}

	runRound(2)
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if got := e.Health().Status; got != obs.StatusIdle {
		t.Errorf("post-run health %q, want %q", got, obs.StatusIdle)
	}
	s := e.Snapshot()
	c, ok := s.Campaigns["c1"]
	if !ok {
		t.Fatalf("snapshot has no campaign c1: %+v", s)
	}
	if c.State != "closed" || c.BidsAccepted != 2*agents || c.RoundsCompleted != 2 {
		t.Errorf("final campaign snapshot %+v", c)
	}
	if c.WinnersTotal == 0 || c.PaymentTotal <= 0 {
		t.Errorf("mechanism gauges empty: winners=%d payment=%v", c.WinnersTotal, c.PaymentTotal)
	}
	if c.DPCellsTotal <= 0 { // single-task campaign runs the FPTAS
		t.Errorf("dp_cells_total = %d, want > 0", c.DPCellsTotal)
	}
	if c.ComputeLatency.Count != 2 || c.ComputeLatency.P50 <= 0 {
		t.Errorf("compute latency %+v", c.ComputeLatency)
	}
	if !strings.Contains(s.String(), "campaign c1: state=closed") {
		t.Errorf("Snapshot.String() missing campaign line:\n%s", s)
	}
}

// TestDisableObservability checks the benchmark no-op sink: with it set,
// rounds still settle but no counters move and no spans appear.
func TestDisableObservability(t *testing.T) {
	roundDone := make(chan RoundResult, 1)
	e := New(Config{
		ConnTimeout:          10 * time.Second,
		DisableObservability: true,
		OnRound:              func(r RoundResult) { roundDone <- r },
	})
	if err := e.AddCampaign(singleTaskCampaign("c1", 2)); err != nil {
		t.Fatal(err)
	}
	addr, done := startEngine(t, e)
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			if _, err := runAgent(t, addr, "c1", auction.UserID(a+1), float64(a)+1, 0.9); err != nil {
				t.Errorf("agent %d: %v", a+1, err)
			}
		}(a)
	}
	wg.Wait()
	if r := <-roundDone; r.Err != nil {
		t.Fatalf("round void: %v", r.Err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	s := e.Snapshot()
	if s.BidsAccepted != 0 || s.RoundsCompleted != 0 {
		t.Errorf("counters moved with observability disabled: %+v", s)
	}
	if c := s.Campaigns["c1"]; c.BidsAccepted != 0 || c.ComputeLatency.Count != 0 {
		t.Errorf("campaign counters moved with observability disabled: %+v", c)
	}
	if recs := e.SpanRecords(100); len(recs) != 0 {
		t.Errorf("%d spans recorded with observability disabled", len(recs))
	}
}
