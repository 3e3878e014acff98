package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/span"
)

var shards = []string{"s1", "s2", "s3"}

// thinkTime is the pause between a round's settlement and the driver's next
// round. Back to back, rounds kept both cores busy: the WAL's group-commit
// flushes (every 25-50 ms), the followers' applies and the auditors then
// queued behind them, and the median round sat where the latency
// distribution climbs steeply, so it moved by 0.4 of itself between runs of
// one build. With the pause the background work runs between rounds, as it
// does when a campaign's rounds are paced.
const thinkTime = 5 * time.Millisecond

// aggregatorID is the binary aggregator's registration identity; population
// user IDs are model indices, far below it.
const aggregatorID = 1 << 30

// clusterCampaigns picks one campaign ID per shard, in shard order, by
// probing the ring the router uses.
func clusterCampaigns() ([]string, error) {
	ring := cluster.NewRing(shards, 0)
	out := make([]string, len(shards))
	found := 0
	for i := 0; i < 10000 && found < len(shards); i++ {
		id := fmt.Sprintf("cw-%d", i)
		owner, ok := ring.Owner(id)
		if !ok {
			continue
		}
		for s, name := range shards {
			if name == owner && out[s] == "" {
				out[s] = id
				found++
			}
		}
	}
	if found < len(shards) {
		return nil, fmt.Errorf("no campaign ID hashes onto every shard")
	}
	return out, nil
}

// reservePort hands out a loopback port below Linux's default ephemeral
// range (32768-60999) for a listener that a follower must know before it
// binds: a port reserved inside that range can be taken by an outgoing
// connection between its reservation and its bind.
func reservePort() (string, error) {
	portMu.Lock()
	defer portMu.Unlock()
	for tries := 0; tries < 10000; tries++ {
		nextPort = (nextPort + 1) % 10000
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 20000+nextPort))
		if err != nil {
			continue // in use
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", errors.New("no free loopback port in 20000-29999")
}

var (
	portMu   sync.Mutex
	nextPort = os.Getpid() % 10000 // spreads concurrent runs apart
)

// logCapture records node and router log lines; during a run every line
// reports a fault (a stopped engine, an auditor error, a dead shard).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logCapture) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.lines
	l.lines = nil
	return out
}

// testbed is the 3-node cluster: node i leads shards[i] with a WAL and
// follows shards[i+1], every shard audited and reputation-discounted as
// platformd runs them, all behind one router.
type testbed struct {
	dir    string
	nodes  []*cluster.Node
	router *cluster.Router
	logs   logCapture
}

func startTestbed(dir string, p *plan, gate *roundGate, m mode, sinks []span.Sink) (*testbed, error) {
	tb := &testbed{dir: dir}
	repAddrs := make([]string, len(shards))
	standby := make([]string, len(shards))
	for i := range shards {
		var err error
		if repAddrs[i], err = reservePort(); err != nil {
			return nil, err
		}
		if standby[i], err = reservePort(); err != nil {
			return nil, err
		}
	}
	members := make(map[string][]string, len(shards))
	for i, s := range shards {
		next := (i + 1) % len(shards)
		n, err := cluster.StartNode(cluster.NodeConfig{
			Name:      fmt.Sprintf("n%d", i+1),
			Shard:     s,
			StateDir:  filepath.Join(dir, fmt.Sprintf("n%d-lead", i+1)),
			AgentAddr: "127.0.0.1:0",
			RepAddr:   repAddrs[i],
			Campaigns: []engine.CampaignConfig{p.campaigns[i]},
			Engine: engine.Config{
				OnRound:              gate.onRound,
				DisableObservability: m == modeNoObs,
			},
			SpanSinks: sinks,
			Follow: &cluster.FollowConfig{
				Shard:     shards[next],
				LeaderRep: repAddrs[next],
				StateDir:  filepath.Join(dir, fmt.Sprintf("n%d-follow", i+1)),
				AgentAddr: standby[i],
			},
			// Followers start before the leaders they follow and redial
			// until they answer; no failover is wanted, even at teardown.
			DialRetry:     5 * time.Millisecond,
			FailoverAfter: 1 << 30,
			Audit:         true,
			Reputation:    true,
			Logf:          tb.logs.logf,
		})
		if err != nil {
			tb.close()
			return nil, err
		}
		tb.nodes = append(tb.nodes, n)
		members[s] = []string{n.AgentAddr(s)}
	}
	r, err := cluster.StartRouter("127.0.0.1:0", cluster.RouterConfig{
		Ring: cluster.NewRing(shards, 0), Members: members, Logf: tb.logs.logf})
	if err != nil {
		tb.close()
		return nil, err
	}
	tb.router = r
	return tb, nil
}

// close stops the router and every node and removes the state directories.
func (tb *testbed) close() error {
	if tb.router != nil {
		tb.router.Close()
	}
	var errs []string
	for _, n := range tb.nodes {
		if err := n.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if err := os.RemoveAll(tb.dir); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("teardown: %s", strings.Join(errs, "; "))
	}
	return nil
}

// storeStats are the leaders' WAL counters at the end of an episode.
type storeStats struct {
	fsyncs, bytes, snapshots float64
	fsyncTime                time.Duration
	snapshotBytes            int64
	syncTime                 time.Duration // WAL.Sync after each settled round
}

func familyValue(fams []obs.Family, name, suffix string) float64 {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Suffix == suffix && len(s.Labels) == 0 {
				return s.Value
			}
		}
	}
	return 0
}

func (tb *testbed) readStore(st *storeStats) {
	for i, n := range tb.nodes {
		w := n.WAL(shards[i])
		if w == nil {
			continue
		}
		fams := w.Families()
		st.fsyncs += familyValue(fams, "crowdsense_wal_fsync_seconds", "_count")
		st.fsyncTime += time.Duration(familyValue(fams, "crowdsense_wal_fsync_seconds", "_sum") * float64(time.Second))
		st.bytes += familyValue(fams, "crowdsense_wal_bytes_total", "")
		st.snapshots += familyValue(fams, "crowdsense_wal_snapshots_total", "")
		snaps, _ := filepath.Glob(filepath.Join(tb.dir, fmt.Sprintf("n%d-lead", i+1), "*.snap"))
		for _, s := range snaps {
			if fi, err := os.Stat(s); err == nil {
				st.snapshotBytes += fi.Size()
			}
		}
	}
}

// setupCluster measures one cluster set-up and tears it down.
func setupCluster(p *plan, seq int) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	tb, err := startTestbed(filepath.Join(stateRoot(), fmt.Sprintf("setup%d", -seq)), p, newGate(p.campaigns), modeDefault, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if lines := tb.logs.take(); len(lines) > 0 {
		tb.close()
		return 0, fmt.Errorf("cluster log: %s", lines[0])
	}
	return d, tb.close()
}

// lagProbe is one settled round whose replication the traced run times:
// from OnRound until the follower has applied the leader's last seq.
type lagProbe struct {
	follower *cluster.Node
	seq      uint64
	at       time.Time
}

// watchLag polls followers for every probe sent on probes, until probes is
// closed and every pending probe resolved or timed out.
func watchLag(probes <-chan lagProbe, lags *[]time.Duration, timeouts *int) {
	var pending []lagProbe
	open := true
	for open || len(pending) > 0 {
		if open && len(pending) == 0 {
			pr, ok := <-probes // nothing to poll: block for the next round
			if !ok {
				open = false
				continue
			}
			pending = append(pending, pr)
		}
		if open {
			select {
			case pr, ok := <-probes:
				if !ok {
					open = false
				} else {
					pending = append(pending, pr)
				}
				continue
			default:
			}
		}
		now := time.Now()
		kept := pending[:0]
		for _, pr := range pending {
			switch {
			case pr.follower.AppliedSeq() >= pr.seq:
				*lags = append(*lags, now.Sub(pr.at))
			case now.Sub(pr.at) > drainDeadline:
				*timeouts++
			default:
				kept = append(kept, pr)
			}
		}
		pending = kept
		time.Sleep(100 * time.Microsecond)
	}
}

// runCluster is one cluster-wire episode.
func runCluster(p *plan, m mode, stateRoot string, seq int) *episode {
	ep := newEpisode(p, m)
	gate := newGate(p.campaigns)
	dir := filepath.Join(stateRoot, fmt.Sprintf("ep%d", seq))
	base := liveHeap()

	start := time.Now()
	tb, err := startTestbed(dir, p, gate, m, ep.programSinks())
	if err != nil {
		ep.fail(-1, "start cluster: %v", err)
		os.RemoveAll(dir)
		return ep
	}
	ep.setup = time.Since(start)

	var (
		lagDone  = make(chan struct{})
		probes   = make(chan lagProbe, len(p.rounds)) // one per round
		timeouts int
	)
	if m == modeTraced {
		go func() {
			defer close(lagDone)
			watchLag(probes, &ep.lags, &timeouts)
		}()
	} else {
		close(lagDone)
	}

	shardOf := make(map[string]int, len(p.campaigns))
	for i, cc := range p.campaigns {
		shardOf[cc.ID] = i
	}
	numbers := roundNumbers(p)
	before := readUsage()
	drive(p, func(idx int) bool {
		if !playCluster(tb, gate, p, idx, numbers[idx], shardOf[p.rounds[idx].campaign], probes, ep) {
			return false
		}
		t := time.Now()
		time.Sleep(thinkTime)
		ep.mu.Lock()
		ep.think += time.Since(t)
		ep.mu.Unlock()
		return true
	})
	ep.measure(before, readUsage())
	close(probes)
	<-lagDone
	if timeouts > 0 {
		ep.fail(-1, "%d rounds never replicated within %v", timeouts, drainDeadline)
	}

	tb.checkAudit(ep, len(p.rounds))
	for i, n := range tb.nodes {
		if e := n.Engine(shards[i]); e == nil {
			ep.fail(-1, "shard %s lost its leader", shards[i])
		} else if err := e.StoreErr(); err != nil {
			ep.fail(-1, "shard %s store: %v", shards[i], err)
		}
	}
	if m == modeTraced {
		tb.readStore(&ep.store)
	}
	for _, line := range tb.logs.take() {
		ep.fail(-1, "cluster log: %s", line)
	}
	ep.heapLive = float64(liveHeap()) - float64(base)
	if err := tb.close(); err != nil {
		ep.fail(-1, "%v", err)
	}
	return ep
}

// checkAudit waits until the shard auditors, which tail the durable WAL,
// have checked every settled round, and fails the episode on any violation.
func (tb *testbed) checkAudit(ep *episode, rounds int) {
	deadline := time.Now().Add(drainDeadline)
	for {
		checked, violations := uint64(0), uint64(0)
		for _, n := range tb.nodes {
			for _, r := range n.AuditReports() {
				checked += r.RoundsChecked
				violations += r.Violations
			}
		}
		if violations > 0 {
			ep.fail(-1, "auditor reported %d violations", violations)
			return
		}
		if checked >= uint64(rounds) {
			return
		}
		if time.Now().After(deadline) {
			ep.fail(-1, "auditors checked %d of %d rounds within %v", checked, rounds, drainDeadline)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func playCluster(tb *testbed, gate *roundGate, p *plan, idx, number, shard int,
	probes chan<- lagProbe, ep *episode) bool {
	spec := p.rounds[idx]
	tr := ep.spans
	traced := ep.mode == modeTraced
	leader := tb.nodes[shard]
	routed := tb.router.Addr()
	jsonAddr := routed
	// The traced run sends every other JSON session straight to the leader,
	// so the router's hop is the difference between the two.
	direct := traced && number%2 == 0
	if direct {
		jsonAddr = leader.AgentAddr(shards[shard])
	}
	// The closed loop makes the shard's reputation state stable between
	// rounds: read the PoS winner determination will run on.
	if rep := leader.Reputation(shards[shard]); rep != nil {
		adjusted := make(map[auction.UserID]auction.Bid, len(spec.bids))
		for _, b := range spec.bids {
			pos := make(map[auction.TaskID]float64, len(b.PoS))
			for t, declared := range b.PoS {
				pos[t] = rep.AdjustPoS(b.User, t, declared)
			}
			adjusted[b.User] = auction.NewBid(b.User, b.Tasks, b.Cost, pos)
		}
		ep.wdBids[idx] = adjusted
	}
	root := tr.begin("round", 0)
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()

	var (
		wg       sync.WaitGroup
		batchRes agent.BatchResult
		batchErr error
		jsonErr  error
		jsonRecs recordSink
	)
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		var sink recordSink
		// Binary codec. It misreads a frame whose payload is exactly 123
		// bytes (the length byte is '{', which Codec.Read takes for a JSON
		// line; see wire.decode_errors): a round that sends one fails.
		cfg := agent.BatchConfig{Addr: routed, Campaign: spec.campaign, Aggregator: aggregatorID,
			Bids: spec.bids[1:], Seed: spec.seed, Timeout: roundDeadline, Binary: true}
		if traced {
			cfg.Spans = span.New(&sink)
		}
		sp := tr.begin("agent.batch_session", root)
		batchRes, batchErr = agent.RunBatch(ctx, cfg)
		tr.end(sp)
		sink.importUnder(tr, sp)
	}()
	go func() {
		defer wg.Done()
		bid := spec.bids[0]
		cfg := agent.Config{Addr: jsonAddr, Campaign: spec.campaign, User: bid.User, TrueBid: bid,
			Seed: spec.seed + 1, Timeout: roundDeadline}
		if traced {
			cfg.Spans = span.New(&jsonRecs)
		}
		sp := tr.begin("agent.json_session", root)
		_, jsonErr = agent.Run(ctx, cfg)
		tr.end(sp)
		jsonRecs.importUnder(tr, sp)
	}()
	wg.Wait()
	ep.latency[idx] = time.Since(t0)

	admitted := 0
	if batchErr != nil {
		ep.fail(idx, "aggregator: %v", batchErr)
	} else {
		admitted += batchRes.Admitted
		if batchRes.Rejected > 0 {
			ep.fail(idx, "aggregator: %d bids rejected", batchRes.Rejected)
		}
	}
	if jsonErr != nil {
		ep.fail(idx, "json agent: %v", jsonErr)
	} else {
		admitted++
	}
	ep.countBids(len(spec.bids), admitted)
	if batchErr != nil || jsonErr != nil {
		return false
	}
	if traced {
		hop := sessionOpen(&jsonRecs)
		ep.mu.Lock()
		if direct {
			ep.directHop = append(ep.directHop, hop)
		} else {
			ep.routedHop = append(ep.routedHop, hop)
		}
		ep.mu.Unlock()
	}

	sp := tr.begin("round.gate", root)
	res, err := gate.wait(spec.campaign, number)
	tr.end(sp)
	if err != nil {
		ep.fail(idx, "%v", err)
		return false
	}
	ep.results[idx] = res
	if traced {
		wal := leader.WAL(shards[shard])
		follower := tb.nodes[(shard+len(shards)-1)%len(shards)]
		probes <- lagProbe{follower: follower, seq: wal.LastSeq(), at: time.Now()}
		sp := tr.begin("store.sync", root)
		t := time.Now()
		if err := wal.Sync(); err != nil {
			ep.fail(idx, "wal sync: %v", err)
		}
		ep.store.syncTime += time.Since(t)
		tr.end(sp)
	}
	return true
}

// sessionOpen is the agent-side time to open a session: dial plus
// register → tasks, the exchange the router sits in.
func sessionOpen(s *recordSink) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d time.Duration
	for _, r := range s.recs {
		if r.Name == span.NameAgentDial || r.Name == span.NameAgentSubmit {
			d += r.Duration()
		}
	}
	return d
}
