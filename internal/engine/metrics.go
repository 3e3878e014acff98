package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"crowdsense/internal/mechanism"
)

// numLatencyBuckets is len(latencyBuckets); kept as a constant so the
// zero-value histogram needs no constructor.
const numLatencyBuckets = 14

// latencyBuckets are the histogram upper bounds, exponential from 1 ms to
// 30 s; observations above the last bound land in the implicit +Inf bucket.
var latencyBuckets = [numLatencyBuckets]time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. The zero value is ready to use.
type histogram struct {
	counts [numLatencyBuckets + 1]atomic.Uint64 // last slot is +Inf
	sum    atomic.Int64                         // nanoseconds
	count  atomic.Uint64
	max    atomic.Int64 // nanoseconds
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (h *histogram) snapshot() HistogramSnapshot {
	var counts [numLatencyBuckets + 1]uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return newHistogramSnapshot(&counts, h.count.Load(),
		time.Duration(h.sum.Load()), time.Duration(h.max.Load()))
}

// newHistogramSnapshot builds a snapshot from raw bucket counts (the last
// slot is +Inf), the observation count, and the sum and max.
func newHistogramSnapshot(counts *[numLatencyBuckets + 1]uint64, count uint64, sum, max time.Duration) HistogramSnapshot {
	s := HistogramSnapshot{Count: count, Sum: sum, Max: max}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		bound := time.Duration(-1)
		if i < len(latencyBuckets) {
			bound = latencyBuckets[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: bound, Count: n})
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// mergeHistograms returns the snapshot of the union of the observations
// behind parts. It is exact: bucket counts, counts and sums add, and the
// max is the largest.
func mergeHistograms(parts []HistogramSnapshot) HistogramSnapshot {
	var counts [numLatencyBuckets + 1]uint64
	var count uint64
	var sum, max time.Duration
	for _, p := range parts {
		for _, b := range p.Buckets {
			counts[bucketIndex(b.UpperBound)] += b.Count
		}
		count += p.Count
		sum += p.Sum
		if p.Max > max {
			max = p.Max
		}
	}
	return newHistogramSnapshot(&counts, count, sum, max)
}

// bucketIndex is the counts slot of the bucket bounded by ub (−1: +Inf).
func bucketIndex(ub time.Duration) int {
	for i, bound := range latencyBuckets {
		if bound == ub {
			return i
		}
	}
	return numLatencyBuckets
}

// atomicFloat is a float64 counter/gauge built on CAS over the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Bucket is one non-empty histogram bucket; UpperBound −1 marks +Inf.
type Bucket struct {
	UpperBound time.Duration `json:"upper_bound"`
	Count      uint64        `json:"count"`
}

// MarshalJSON renders the +Inf sentinel as the string "+Inf" rather than
// the raw −1 nanoseconds a naive encoding would produce; finite bounds stay
// integer nanoseconds.
func (b Bucket) MarshalJSON() ([]byte, error) {
	type wire struct {
		UpperBound any    `json:"upper_bound"`
		Count      uint64 `json:"count"`
	}
	w := wire{UpperBound: int64(b.UpperBound), Count: b.Count}
	if b.UpperBound < 0 {
		w.UpperBound = "+Inf"
	}
	return json.Marshal(w)
}

// HistogramSnapshot is a point-in-time view of a latency histogram,
// including p50/p95/p99 estimates interpolated from the fixed buckets.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum"`
	Mean    time.Duration `json:"mean"`
	Max     time.Duration `json:"max"`
	P50     time.Duration `json:"p50"`
	P95     time.Duration `json:"p95"`
	P99     time.Duration `json:"p99"`
	Buckets []Bucket      `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket holding the target rank. Estimates are clamped to the
// observed maximum, and a rank landing in the +Inf bucket reports the
// maximum (there is no upper bound to interpolate toward). With zero
// observations it reports 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1 // rank of the first observation
	}
	cum := 0.0
	for _, b := range s.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum < target {
			continue
		}
		if b.UpperBound < 0 {
			return s.Max
		}
		lower := bucketLowerBound(b.UpperBound)
		est := lower + time.Duration((target-prev)/float64(b.Count)*float64(b.UpperBound-lower))
		if s.Max > 0 && est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// bucketLowerBound is the exclusive lower edge of the bucket whose upper
// bound is ub: the preceding bound in the fixed schedule (0 for the first).
func bucketLowerBound(ub time.Duration) time.Duration {
	lower := time.Duration(0)
	for _, bound := range latencyBuckets {
		if bound >= ub {
			break
		}
		lower = bound
	}
	return lower
}

func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%s max=%s p50=%s p95=%s p99=%s",
		s.Count, s.Mean.Round(time.Microsecond), s.Max.Round(time.Microsecond),
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond))
	for _, bucket := range s.Buckets {
		if bucket.UpperBound < 0 {
			fmt.Fprintf(&b, " +Inf:%d", bucket.Count)
			continue
		}
		fmt.Fprintf(&b, " ≤%s:%d", bucket.UpperBound, bucket.Count)
	}
	return b.String()
}

// metrics holds the engine-wide signals that have no per-campaign copy.
// The engine-wide bid, round and latency figures of a Snapshot are derived
// from campaignMetrics instead.
type metrics struct {
	// Wire fan-in: sessions by negotiated codec, and the batched-bid path
	// (frames carrying many bids, from aggregators or SubmitBids).
	wireSessionsJSON   atomic.Uint64
	wireSessionsBinary atomic.Uint64
	bidBatches         atomic.Uint64
	batchedBids        atomic.Uint64

	// Server-side per-envelope-type handling latency (crowdsense_rpc_*):
	// what the engine spent answering each inbound rpc leg, excluding waits
	// on the agent itself.
	rpcRegister    histogram // register received → tasks staged
	rpcBid         histogram // bid received → admission verdict
	rpcBidBatch    histogram // bid_batch received → admission verdicts
	rpcReport      histogram // report received → settle staged
	rpcReportBatch histogram // report_batch received → settle_batch staged
}

// campaignMetrics aggregates one campaign's counters, latency histograms,
// and winner-determination gauges. The zero value is ready; every field is
// atomic so recording never takes the engine lock.
type campaignMetrics struct {
	bidsAccepted    atomic.Uint64
	bidsRejected    atomic.Uint64
	roundsCompleted atomic.Uint64
	roundsFailed    atomic.Uint64

	roundLatency   histogram // first bid → settled
	computeLatency histogram // winner determination wall time

	winnersTotal     atomic.Uint64
	paymentTotal     atomicFloat
	dpCellsTotal     atomic.Int64
	greedyItersTotal atomic.Int64
	dpPrunedTotal    atomic.Int64
	dpReuseTotal     atomic.Int64
	lazyReevalsTotal atomic.Int64

	// Last-call gauges, overwritten by every winner-determination run.
	lastWinners     atomic.Int64
	lastPayment     atomicFloat
	lastDPCells     atomic.Int64
	lastGreedyIters atomic.Int64
	lastDPPruned    atomic.Int64
	lastDPReuse     atomic.Int64
	lastLazyReevals atomic.Int64
}

// recordWD folds one winner-determination call's mechanism stats in.
func (m *campaignMetrics) recordWD(st mechanism.Stats) {
	m.winnersTotal.Add(uint64(st.Winners))
	m.paymentTotal.Add(st.TotalPayment)
	m.dpCellsTotal.Add(st.DPCells)
	m.greedyItersTotal.Add(int64(st.GreedyIters))
	m.dpPrunedTotal.Add(st.DPPruned)
	m.dpReuseTotal.Add(st.DPReuse)
	m.lazyReevalsTotal.Add(st.LazyReevals)
	m.lastWinners.Store(int64(st.Winners))
	m.lastPayment.Store(st.TotalPayment)
	m.lastDPCells.Store(st.DPCells)
	m.lastGreedyIters.Store(int64(st.GreedyIters))
	m.lastDPPruned.Store(st.DPPruned)
	m.lastDPReuse.Store(st.DPReuse)
	m.lastLazyReevals.Store(st.LazyReevals)
}

// CampaignSnapshot is a point-in-time view of one campaign's metrics.
type CampaignSnapshot struct {
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	Round    int    `json:"round"` // 1-based round in progress (or last, when closed)

	BidsAccepted    uint64 `json:"bids_accepted"`
	BidsRejected    uint64 `json:"bids_rejected"`
	RoundsCompleted uint64 `json:"rounds_completed"`
	RoundsFailed    uint64 `json:"rounds_failed"`

	WinnersTotal     uint64  `json:"winners_total"`
	PaymentTotal     float64 `json:"payment_total"`
	DPCellsTotal     int64   `json:"dp_cells_total"`
	GreedyItersTotal int64   `json:"greedy_iters_total"`
	DPPrunedTotal    int64   `json:"dp_pruned_total"`
	DPReuseTotal     int64   `json:"dp_reuse_total"`
	LazyReevalsTotal int64   `json:"lazy_reevals_total"`

	LastWinners     int64   `json:"last_winners"`
	LastPayment     float64 `json:"last_payment"`
	LastDPCells     int64   `json:"last_dp_cells"`
	LastGreedyIters int64   `json:"last_greedy_iters"`
	LastDPPruned    int64   `json:"last_dp_pruned"`
	LastDPReuse     int64   `json:"last_dp_reuse"`
	LastLazyReevals int64   `json:"last_lazy_reevals"`

	RoundLatency   HistogramSnapshot `json:"round_latency"`
	ComputeLatency HistogramSnapshot `json:"compute_latency"`
}

// Snapshot is an expvar-style point-in-time view of the engine's counters
// and latency histograms, engine-wide and per campaign. It marshals to
// JSON and prints as one line per metric.
type Snapshot struct {
	BidsAccepted    uint64 `json:"bids_accepted"`
	BidsRejected    uint64 `json:"bids_rejected"`
	RoundsCompleted uint64 `json:"rounds_completed"`
	RoundsFailed    uint64 `json:"rounds_failed"`

	WireSessionsJSON   uint64 `json:"wire_sessions_json"`
	WireSessionsBinary uint64 `json:"wire_sessions_binary"`
	BidBatches         uint64 `json:"bid_batches"`
	BatchedBids        uint64 `json:"batched_bids"`

	CampaignsOpen   int `json:"campaigns_open"`
	CampaignsClosed int `json:"campaigns_closed"`
	QueueLen        int `json:"queue_len"`
	QueueCap        int `json:"queue_cap"`

	RoundLatency   HistogramSnapshot `json:"round_latency"`
	ComputeLatency HistogramSnapshot `json:"compute_latency"`

	Campaigns map[string]CampaignSnapshot `json:"campaigns,omitempty"`
}

// CampaignIDs returns the snapshot's campaign IDs in sorted order, for
// deterministic rendering.
func (s Snapshot) CampaignIDs() []string {
	ids := make([]string, 0, len(s.Campaigns))
	for id := range s.Campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bids: accepted=%d rejected=%d\n", s.BidsAccepted, s.BidsRejected)
	fmt.Fprintf(&b, "wire: sessions json=%d binary=%d batches=%d batched_bids=%d\n",
		s.WireSessionsJSON, s.WireSessionsBinary, s.BidBatches, s.BatchedBids)
	fmt.Fprintf(&b, "rounds: completed=%d failed=%d\n", s.RoundsCompleted, s.RoundsFailed)
	fmt.Fprintf(&b, "campaigns: open=%d closed=%d\n", s.CampaignsOpen, s.CampaignsClosed)
	fmt.Fprintf(&b, "bid queue: %d/%d\n", s.QueueLen, s.QueueCap)
	fmt.Fprintf(&b, "round latency: %s\n", s.RoundLatency)
	fmt.Fprintf(&b, "winner determination: %s", s.ComputeLatency)
	for _, id := range s.CampaignIDs() {
		c := s.Campaigns[id]
		fmt.Fprintf(&b, "\ncampaign %s: state=%s round=%d bids=%d/%d rounds=%d/%d winners=%d paid=%.2f",
			id, c.State, c.Round, c.BidsAccepted, c.BidsRejected,
			c.RoundsCompleted, c.RoundsFailed, c.WinnersTotal, c.PaymentTotal)
		if c.DPCellsTotal > 0 {
			fmt.Fprintf(&b, " dp_cells=%d", c.DPCellsTotal)
		}
		if c.GreedyItersTotal > 0 {
			fmt.Fprintf(&b, " greedy_iters=%d", c.GreedyItersTotal)
		}
		if c.DPPrunedTotal > 0 {
			fmt.Fprintf(&b, " dp_pruned=%d", c.DPPrunedTotal)
		}
		if c.DPReuseTotal > 0 {
			fmt.Fprintf(&b, " dp_reuse=%d", c.DPReuseTotal)
		}
		if c.LazyReevalsTotal > 0 {
			fmt.Fprintf(&b, " lazy_reevals=%d", c.LazyReevalsTotal)
		}
		fmt.Fprintf(&b, " wd{%s}", c.ComputeLatency)
	}
	return b.String()
}

// JSON renders the snapshot as a single JSON object, the same shape an
// expvar endpoint would serve.
func (s Snapshot) JSON() string {
	data, err := json.Marshal(s)
	if err != nil {
		return "{}"
	}
	return string(data)
}
