package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// checked is what the checks established about a run.
type checked struct {
	attempted, failed int
	ok                bool
	// first[b] holds block b's outcomes from its first play; every later
	// play of the block must decide identically.
	first [][]outcome
	// socialCost and payment are summed over every round played and
	// checked, in episode order.
	socialCost, payment float64
	rounds              int
}

// check runs the per-round output checks on every episode. A round fails
// when it failed to play, failed a check, or decided differently from the
// block's first play (same inputs, so the same decisions are required). An
// episode-level failure (set-up, store error, audit violation, teardown)
// fails every round of the episode.
func check(plans []*plan, eps []*episode, out io.Writer) checked {
	c := checked{ok: true, first: make([][]outcome, len(plans))}
	for e, ep := range eps {
		p := plans[ep.block]
		numbers := roundNumbers(p)
		outs := make([]outcome, len(p.rounds))
		bad := 0
		for idx, spec := range p.rounds {
			if ep.failedRounds[idx] || ep.results[idx].Campaign == "" {
				bad++ // failed to play, or never played after its stream failed
				continue
			}
			o, err := checkRound(spec, numbers[idx], ep.results[idx], ep.wdBids[idx])
			if first := c.first[ep.block]; err == nil && first != nil && o.line != first[idx].line {
				err = fmt.Errorf("decided differently from the block's first play: %q vs %q", o.line, first[idx].line)
			}
			if err != nil {
				fmt.Fprintf(out, "# FAIL episode %d round %s/%d: %v\n", e, spec.campaign, numbers[idx], err)
				bad++
				continue
			}
			outs[idx] = o
		}
		for _, msg := range ep.errs {
			fmt.Fprintf(out, "# FAIL episode %d (%s): %s\n", e, ep.mode, msg)
			bad = len(p.rounds)
		}
		c.attempted += len(p.rounds)
		c.failed += bad
		if bad > 0 {
			c.ok = false
			continue
		}
		if c.first[ep.block] == nil {
			c.first[ep.block] = outs
		}
		for _, o := range outs {
			c.socialCost += o.socialCost
			c.payment += o.payment
		}
		c.rounds += len(outs)
	}
	for _, f := range c.first {
		if f == nil {
			c.ok = false
		}
	}
	return c
}

func report(cfg config, def workloadDef, plans []*plan, eps []*episode, setups []time.Duration,
	setupYard yardPair, yards []yardReading, out io.Writer) result {
	c := check(plans, eps, out)
	res := result{Correct: c.ok, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "# workload %s seed %d: %d episodes over %d input blocks of %d rounds\n",
		cfg.workload, cfg.seed, len(eps), len(plans), len(plans[0].rounds))
	if !res.Correct {
		return res
	}
	var lines []string
	short := 0
	for _, f := range c.first {
		for _, o := range f {
			lines = append(lines, o.line)
			if o.declaredShort {
				short++
			}
		}
	}
	fmt.Fprintf(out, "# digest %s\n", digest(lines))
	fmt.Fprintf(out, "# rounds short of the requirement on declared PoS: %d of %d distinct rounds\n", short, len(lines))

	byMode := map[mode][]*episode{}
	for _, ep := range eps {
		byMode[ep.mode] = append(byMode[ep.mode], ep)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	if cfg.trace {
		set("reputation.declared_short_rounds", "count", float64(short))
		layerMetrics(cfg, plans, byMode, set, out)
		return res
	}
	// Timings are in the reference machine's time: each episode's (and the
	// set-ups') divided by the yardstick around it (see yardPair).
	// Throughput, CPU and heap are medians over episodes; latency quantiles
	// pool all rounds. The unscaled figures are printed beside them.
	var lat, scaled []time.Duration
	var rate, cpu, heap, rawRate, rawCPU []float64
	var rates, yardMS []string
	var setupScaled []float64
	for _, d := range setups {
		setupScaled = append(setupScaled, d.Seconds()/setupYard.wallScale())
	}
	submitted, admitted := 0, 0
	for _, ep := range byMode[modeDefault] {
		n := float64(len(ep.latency))
		r := ep.rate()
		rawRate = append(rawRate, r)
		rawCPU = append(rawCPU, ms(ep.cpu)/n)
		sc := ep.yard.wallScale()
		rate = append(rate, r*sc)
		cpu = append(cpu, ms(ep.cpu)/n/ep.yard.cpuScale())
		for _, d := range ep.latency {
			lat = append(lat, d)
			scaled = append(scaled, time.Duration(float64(d)/sc))
		}
		heap = append(heap, ep.heapLive/(1<<20))
		rates = append(rates, fmt.Sprintf("%.4g", r))
		submitted += ep.bidsSubmitted
		admitted += ep.bidsAdmitted
		setups = append(setups, ep.setup)
		setupScaled = append(setupScaled, ep.setup.Seconds()/sc)
	}
	totals := make([]time.Duration, len(yards))
	for i, y := range yards {
		totals[i] = y.total()
		yardMS = append(yardMS, y.String())
	}
	for _, l := range [][]time.Duration{lat, scaled} {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	fmt.Fprintf(out, "# rounds/s by episode (unscaled): %s\n", strings.Join(rates, " "))
	fmt.Fprintf(out, "# yardstick ms chase+sort+alloc/cpu/availability (cpu ref %v): %s\n",
		yardRef, strings.Join(yardMS, " "))
	q := min(def.tail, tailQuantile(len(lat)))
	fmt.Fprintf(out, "# round_tail_ms is p%g over %d rounds (%d beyond it)\n", q*100, len(lat), len(lat)-int(math.Ceil(q*float64(len(lat)))))
	fmt.Fprintf(out, "# round latency ms (unscaled) p50 %.4g p90 %.4g p95 %.4g p99 %.4g p99.9 %.4g max %.4g\n",
		ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), ms(quantile(lat, 0.95)), ms(quantile(lat, 0.99)), ms(quantile(lat, 0.999)), ms(quantile(lat, 1)))
	fmt.Fprintf(out, "# unscaled rounds_per_s %.6g round_p50_ms %.6g round_tail_ms %.6g cpu_ms_per_round %.6g setup_s %.6g yardstick_ms %.6g\n",
		median(rawRate), ms(quantile(lat, 0.5)), ms(quantile(lat, q)), median(rawCPU), median(setups).Seconds(), ms(median(totals)))
	set("rounds_per_s", "1/s", median(rate))
	set("round_p50_ms", "ms", ms(quantile(scaled, 0.5)))
	set("round_tail_ms", "ms", ms(quantile(scaled, q)))
	set("cpu_ms_per_round", "ms", median(cpu))
	set("heap_live_mb", "MB", median(heap))
	set("social_cost_per_round", "cost", c.socialCost/float64(c.rounds))
	set("payment_per_round", "reward", c.payment/float64(c.rounds))
	set("round_ok_ratio", "ratio", float64(c.attempted-c.failed)/float64(c.attempted))
	set("bid_admit_ratio", "ratio", ratio(admitted, submitted))
	set("setup_s", "s", median(setupScaled))
	return res
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(cfg config, plans []*plan, byMode map[mode][]*episode,
	set func(name, unit string, v float64), out io.Writer) {
	rpsOf := func(m mode) float64 {
		var rate []float64
		for _, ep := range byMode[m] {
			rate = append(rate, ep.rate())
		}
		return median(rate)
	}
	def, noObs, traced := rpsOf(modeDefault), rpsOf(modeNoObs), rpsOf(modeTraced)
	set("obs.overhead_frac", "ratio", 1-def/noObs)
	set("trace.overhead_frac", "ratio", 1-traced/def)

	// Runtime and exact mechanism counts from the untraced default
	// episodes, per round.
	var alloc, gcs uint64
	var pause time.Duration
	var st struct{ cells, pruned, reuse, iters, lazy, winners, rounds float64 }
	for _, ep := range byMode[modeDefault] {
		alloc += ep.allocBytes
		gcs += ep.gcCycles
		pause += ep.gcPause
		for _, r := range ep.results {
			s := r.Outcome.Stats
			st.cells += float64(s.DPCells)
			st.pruned += float64(s.DPPruned)
			st.reuse += float64(s.DPReuse)
			st.iters += float64(s.GreedyIters)
			st.lazy += float64(s.LazyReevals)
			st.winners += float64(s.Winners)
			st.rounds++
		}
	}
	set("runtime.alloc_kb", "KiB", float64(alloc)/1024/st.rounds)
	set("runtime.gc_cycles", "count", float64(gcs)/st.rounds)
	set("runtime.gc_pause_ms", "ms", ms(pause)/st.rounds)
	set("mechanism.dp_cells", "count", st.cells/st.rounds)
	set("mechanism.dp_pruned", "count", st.pruned/st.rounds)
	set("mechanism.dp_reuse", "count", st.reuse/st.rounds)
	set("mechanism.greedy_iters", "count", st.iters/st.rounds)
	set("mechanism.lazy_reevals", "count", st.lazy/st.rounds)
	set("mechanism.winners", "count", st.winners/st.rounds)

	// Harness spans, program span counts and store/cluster probes of the
	// traced episodes, per round.
	tot := map[string]layerTotal{}
	var rounds, programSpans, probes float64
	var store storeStats
	var lags, routed, direct []time.Duration
	for i, ep := range byMode[modeTraced] {
		ep.spans.selfTimes()
		for name, lt := range ep.spans.totals() {
			acc := tot[name]
			acc.count += lt.count
			acc.dur += lt.dur
			acc.self += lt.self
			tot[name] = acc
		}
		rounds += float64(len(ep.latency))
		programSpans += float64(ep.program.n.Load())
		probes += float64(ep.program.probes.Load())
		store.fsyncs += ep.store.fsyncs
		store.fsyncTime += ep.store.fsyncTime
		store.bytes += ep.store.bytes
		store.snapshots += ep.store.snapshots
		store.snapshotBytes += ep.store.snapshotBytes
		store.syncTime += ep.store.syncTime
		lags = append(lags, ep.lags...)
		routed = append(routed, ep.routedHop...)
		direct = append(direct, ep.directHop...)
		path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d-ep%d.jsonl", cfg.workload, cfg.seed, i))
		if err := ep.spans.write(path); err != nil {
			fmt.Fprintf(out, "# trace not written: %v\n", err)
		}
	}
	perRound := func(name string) float64 { return ms(tot[name].dur) / rounds }
	set("engine.submit_ms", "ms", perRound("engine.submit"))
	set("engine.await_ms", "ms", perRound("engine.await"))
	set("engine.settle_ms", "ms", perRound("engine.settle"))
	set("agent.dial_ms", "ms", perRound("agent.dial"))
	set("agent.session_ms", "ms", perRound("agent.batch_session")+perRound("agent.json_session"))
	hop := 0.0
	if len(routed) > 0 && len(direct) > 0 {
		hop = ms(median(routed)) - ms(median(direct))
	}
	set("cluster.router_hop_ms", "ms", hop)
	set("cluster.replication_lag_ms", "ms", ms(mean(lags)))
	set("obs.spans", "count", programSpans/rounds)
	set("mechanism.probes", "count", probes/rounds)
	set("store.fsyncs", "count", store.fsyncs/rounds)
	set("store.fsync_ms", "ms", ms(store.fsyncTime)/rounds)
	set("store.bytes", "bytes", store.bytes/rounds)
	set("store.snapshots", "count", store.snapshots/rounds)
	set("store.snapshot_bytes", "bytes", float64(store.snapshotBytes)/rounds)
	set("store.sync_ms", "ms", ms(store.syncTime)/rounds)
	set("audit.violations", "count", 0) // any violation has failed the run by now

	// One block replayed outside the engine.
	p := plans[0]
	R := float64(len(p.rounds))
	rt := newTracer()
	rep, err := replayRounds(p, rt)
	if err != nil {
		fmt.Fprintf(out, "# replay stopped: %v\n", err)
	}
	set("mechanism.run_ms", "ms", ms(rep.run)/R)
	set("knapsack.allocate_ms", "ms", ms(rep.knapsack)/R)
	set("setcover.allocate_ms", "ms", ms(rep.setcover)/R)
	set("mechanism.critical_ms", "ms", ms(rep.run-rep.knapsack-rep.setcover)/R)
	set("wire.encode_us", "us", us(rep.encode)/R)
	set("wire.decode_us", "us", us(rep.decode)/R)
	set("wire.bytes", "bytes", float64(rep.wireBytes)/R)
	set("wire.decode_errors", "count", float64(rep.decodeErrors)/R)
	rt.selfTimes()
	if err := rt.write(filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d-replay.jsonl", cfg.workload, cfg.seed))); err != nil {
		fmt.Fprintf(out, "# trace not written: %v\n", err)
	}

	// Share of round time per layer: self time of each harness span name
	// over the traced rounds' total time. Sibling spans that overlap (the
	// two concurrent sessions of a cluster round) can sum past 100%.
	roundTime := tot["round"].dur
	names := make([]string, 0, len(tot))
	for name := range tot {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# share %-22s %6.2f%% of round time (self %.3f ms/round over %d spans)\n",
			name, 100*float64(tot[name].self)/float64(roundTime), ms(tot[name].self)/rounds, tot[name].count)
	}
	fmt.Fprintf(out, "# share %-22s %6.2f%% of round time (one block replayed outside the engine)\n",
		"mechanism.run", 100*(ms(rep.run)/R)/(ms(roundTime)/rounds))
	fmt.Fprintf(out, "# rounds/s default %.2f, no-obs %.2f, traced %.2f\n", def, noObs, traced)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median of numbers or durations; 0 when empty.
func median[T float64 | time.Duration](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return sum / time.Duration(len(v))
}

// quantile of sorted durations, nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile is the highest of a ladder of percentiles that has at least
// ten of the run's n rounds beyond it. The ladder is coarse so that runs of
// one workload, which play the same number of rounds, report the same
// percentile.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}
