package engine

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserve(t *testing.T) {
	var h histogram
	if got := h.snapshot(); got.Count != 0 || got.String() != "n=0" {
		t.Errorf("zero histogram = %+v (%q)", got, got.String())
	}
	h.observe(500 * time.Microsecond) // ≤1ms bucket
	h.observe(3 * time.Millisecond)   // ≤5ms bucket
	h.observe(3 * time.Millisecond)
	h.observe(2 * time.Minute) // +Inf bucket
	s := h.snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 2*time.Minute {
		t.Errorf("max = %v", s.Max)
	}
	wantMean := (500*time.Microsecond + 2*3*time.Millisecond + 2*time.Minute) / 4
	if s.Mean != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
	var buckets []Bucket
	for _, b := range s.Buckets {
		buckets = append(buckets, b)
	}
	if len(buckets) != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].UpperBound != time.Millisecond || buckets[0].Count != 1 {
		t.Errorf("first bucket = %+v", buckets[0])
	}
	if buckets[1].UpperBound != 5*time.Millisecond || buckets[1].Count != 2 {
		t.Errorf("second bucket = %+v", buckets[1])
	}
	if buckets[2].UpperBound != -1 || buckets[2].Count != 1 {
		t.Errorf("+Inf bucket = %+v", buckets[2])
	}
}

// campaignInput is what one campaign's metrics record in a Snapshot test.
type campaignInput struct {
	accepted, rejected, completed, failed uint64
	round, compute                        []time.Duration
}

// TestSnapshotRendering derives a Snapshot from campaign metrics: the
// engine-wide counters must be the per-campaign sums, and the engine-wide
// histograms must equal one histogram fed every campaign's observations.
func TestSnapshotRendering(t *testing.T) {
	cases := []struct {
		name      string
		campaigns map[string]campaignInput
		want      []string // substrings of String()
		wantJSON  string   // substring of JSON()
	}{
		{
			name: "one campaign",
			campaigns: map[string]campaignInput{
				"c1": {accepted: 3, completed: 1, round: []time.Duration{10 * time.Millisecond}},
			},
			want:     []string{"accepted=3", "completed=1", "round latency: n=1"},
			wantJSON: `"bids_accepted":3`,
		},
		{
			// Mostly different buckets, one shared bucket per histogram
			// (3 ms and 4 ms; 500 µs and 700 µs), and the larger max in c2
			// for rounds but in c1 for winner determination.
			name: "two campaigns, different buckets",
			campaigns: map[string]campaignInput{
				"c1": {accepted: 3, rejected: 1, completed: 2,
					round:   []time.Duration{3 * time.Millisecond, 40 * time.Millisecond},
					compute: []time.Duration{500 * time.Microsecond, 1200 * time.Millisecond}},
				"c2": {accepted: 5, rejected: 2, completed: 2, failed: 1,
					round:   []time.Duration{4 * time.Millisecond, 700 * time.Millisecond, 2 * time.Minute},
					compute: []time.Duration{700 * time.Microsecond, 30 * time.Millisecond, 4 * time.Millisecond}},
			},
			want:     []string{"accepted=8 rejected=3", "completed=4 failed=1", "round latency: n=5", "winner determination: n=5"},
			wantJSON: `"bids_accepted":8`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{})
			var allRound, allCompute histogram
			for id, in := range tc.campaigns {
				if err := e.AddCampaign(singleTaskCampaign(id, 2)); err != nil {
					t.Fatal(err)
				}
				m := &e.campaigns[id].obs
				m.bidsAccepted.Add(in.accepted)
				m.bidsRejected.Add(in.rejected)
				m.roundsCompleted.Add(in.completed)
				m.roundsFailed.Add(in.failed)
				for _, d := range in.round {
					m.roundLatency.observe(d)
					allRound.observe(d)
				}
				for _, d := range in.compute {
					m.computeLatency.observe(d)
					allCompute.observe(d)
				}
			}
			s := e.Snapshot()

			var sum campaignInput
			for _, c := range s.Campaigns {
				sum.accepted += c.BidsAccepted
				sum.rejected += c.BidsRejected
				sum.completed += c.RoundsCompleted
				sum.failed += c.RoundsFailed
			}
			if got := (campaignInput{accepted: s.BidsAccepted, rejected: s.BidsRejected,
				completed: s.RoundsCompleted, failed: s.RoundsFailed}); !reflect.DeepEqual(got, sum) {
				t.Errorf("engine-wide counters %+v, want the per-campaign sums %+v", got, sum)
			}
			if want := allRound.snapshot(); !reflect.DeepEqual(s.RoundLatency, want) {
				t.Errorf("RoundLatency = %+v, want %+v", s.RoundLatency, want)
			}
			if want := allCompute.snapshot(); !reflect.DeepEqual(s.ComputeLatency, want) {
				t.Errorf("ComputeLatency = %+v, want %+v", s.ComputeLatency, want)
			}

			text := s.String()
			for _, want := range tc.want {
				if !strings.Contains(text, want) {
					t.Errorf("String() missing %q:\n%s", want, text)
				}
			}
			if js := s.JSON(); !strings.Contains(js, tc.wantJSON) {
				t.Errorf("JSON() = %s", js)
			}
		})
	}
}
