package obs

import (
	"math"
	"strings"
	"testing"
)

// TestRenderMetricsExposition is the golden test for the hand-rendered
// Prometheus text format: header lines, ordered labels, summary suffixes,
// and value formatting must match the exposition format byte for byte.
func TestRenderMetricsExposition(t *testing.T) {
	families := []Family{
		{
			Name: "crowdsense_bids_accepted_total",
			Help: "Bids admitted into a round.",
			Type: TypeCounter,
			Samples: []Sample{
				{Labels: []Label{{Name: "campaign", Value: "c1"}}, Value: 12},
				{Labels: []Label{{Name: "campaign", Value: "c2"}}, Value: 3},
			},
		},
		{
			Name: "crowdsense_wd_duration_seconds",
			Help: "Winner-determination latency.",
			Type: TypeSummary,
			Samples: []Sample{
				{Labels: []Label{{Name: "campaign", Value: "c1"}, {Name: "quantile", Value: "0.5"}}, Value: 0.025},
				{Suffix: "_sum", Labels: []Label{{Name: "campaign", Value: "c1"}}, Value: 0.5},
				{Suffix: "_count", Labels: []Label{{Name: "campaign", Value: "c1"}}, Value: 20},
			},
		},
		{
			Name:    "crowdsense_queue_len",
			Type:    TypeGauge,
			Samples: []Sample{{Value: 7}},
		},
	}
	var b strings.Builder
	if err := RenderMetrics(&b, families); err != nil {
		t.Fatal(err)
	}
	want := `# HELP crowdsense_bids_accepted_total Bids admitted into a round.
# TYPE crowdsense_bids_accepted_total counter
crowdsense_bids_accepted_total{campaign="c1"} 12
crowdsense_bids_accepted_total{campaign="c2"} 3
# HELP crowdsense_wd_duration_seconds Winner-determination latency.
# TYPE crowdsense_wd_duration_seconds summary
crowdsense_wd_duration_seconds{campaign="c1",quantile="0.5"} 0.025
crowdsense_wd_duration_seconds_sum{campaign="c1"} 0.5
crowdsense_wd_duration_seconds_count{campaign="c1"} 20
# TYPE crowdsense_queue_len gauge
crowdsense_queue_len 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderMetricsSkipsEmptyFamilies(t *testing.T) {
	var b strings.Builder
	err := RenderMetrics(&b, []Family{{Name: "empty", Help: "h", Type: TypeCounter}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty family rendered output: %q", b.String())
	}
}

// TestRenderMetricsMergesSameName pins the one merge point: families that
// share a name render one # HELP/# TYPE pair — the first occurrence's — and
// every sample in input order, so per-instance producers can be concatenated
// without producing duplicate headers.
func TestRenderMetricsMergesSameName(t *testing.T) {
	families := []Family{
		{Name: "m", Help: "first", Type: TypeGauge,
			Samples: []Sample{{Labels: []Label{{Name: "shard", Value: "s1"}}, Value: 1}}},
		{Name: "other", Type: TypeCounter, Samples: []Sample{{Value: 5}}},
		{Name: "m", Help: "second", Type: TypeCounter,
			Samples: []Sample{{Labels: []Label{{Name: "shard", Value: "s2"}}, Value: 2}}},
	}
	var b strings.Builder
	if err := RenderMetrics(&b, families); err != nil {
		t.Fatal(err)
	}
	want := `# HELP m first
# TYPE m gauge
m{shard="s1"} 1
m{shard="s2"} 2
# TYPE other counter
other 5
`
	if got := b.String(); got != want {
		t.Errorf("merged exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWithLabelPrepends(t *testing.T) {
	shared := []Label{{Name: "rpc", Value: "bid"}}
	in := []Family{{Name: "m", Type: TypeSummary, Samples: []Sample{
		{Suffix: "_sum", Labels: shared, Value: 1},
		{Suffix: "_count", Labels: shared, Value: 2},
		{Value: 3},
	}}}
	out := WithLabel(in, Label{Name: "shard", Value: "s1"})
	var b strings.Builder
	if err := RenderMetrics(&b, out); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE m summary
m_sum{shard="s1",rpc="bid"} 1
m_count{shard="s1",rpc="bid"} 2
m{shard="s1"} 3
`
	if got := b.String(); got != want {
		t.Errorf("labelled exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if len(in[0].Samples[0].Labels) != 1 || len(in[0].Samples[2].Labels) != 0 {
		t.Errorf("WithLabel modified its input: %+v", in[0].Samples)
	}
}

func TestRenderMetricsEscaping(t *testing.T) {
	families := []Family{{
		Name: "m",
		Help: "line1\nline2 with \\ backslash",
		Type: TypeGauge,
		Samples: []Sample{{
			Labels: []Label{{Name: "reason", Value: "a \"quoted\"\nvalue\\"}},
			Value:  1,
		}},
	}}
	var b strings.Builder
	if err := RenderMetrics(&b, families); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	wantHelp := `# HELP m line1\nline2 with \\ backslash`
	wantLine := `m{reason="a \"quoted\"\nvalue\\"} 1`
	if !strings.Contains(got, wantHelp) {
		t.Errorf("help escaping: got %q, want it to contain %q", got, wantHelp)
	}
	if !strings.Contains(got, wantLine) {
		t.Errorf("label escaping: got %q, want it to contain %q", got, wantLine)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12, "12"},
		{0.025, "0.025"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
