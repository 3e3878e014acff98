package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs/span"
)

// mode selects how one episode runs the program.
type mode int

const (
	modeDefault mode = iota // observability on, as deployed; no harness spans
	modeNoObs               // engine.Config.DisableObservability
	modeTraced              // modeDefault plus harness spans and layer probes
)

func (m mode) String() string {
	return [...]string{"default", "no-obs", "traced"}[m]
}

// Deadlines: every wait in a run is bounded, so a stuck round fails the run
// instead of hanging it.
const (
	roundDeadline = 30 * time.Second
	drainDeadline = 10 * time.Second
)

// episode is one fresh engine (or cluster) set up, driven through every round
// of one input block, measured, checked and torn down. A run's blocks are
// the same size, so its episodes compare at equal round counts.
type episode struct {
	mode  mode
	block int      // index of the input block played
	yard  yardPair // the yardstick around the episode
	setup time.Duration
	wall  time.Duration // first bid submitted → last round settled
	cpu   time.Duration // process user+sys over wall

	heapLive             float64 // live heap growth over the episode, bytes
	allocBytes, gcCycles uint64
	gcPause              time.Duration
	latency              []time.Duration      // per round, client clock
	results              []engine.RoundResult // per round
	// wdBids[i] are round i's bids as winner determination saw them, when
	// a reputation adjuster rewrote their PoS (nil: declared PoS).
	wdBids []map[auction.UserID]auction.Bid

	mu           sync.Mutex // guards the fields below across driver goroutines
	failedRounds map[int]bool
	errs         []string

	bidsSubmitted, bidsAdmitted int
	think                       time.Duration // of wall, the driver's pauses between rounds

	// Traced episodes only.
	spans     *tracer
	program   *programSpans
	store     storeStats
	lags      []time.Duration
	routedHop []time.Duration // JSON sessions via the router: dial+register→tasks
	directHop []time.Duration // the same exchange direct to the leader
}

// rate is the episode's rounds per second of wall time outside the driver's
// pauses.
func (ep *episode) rate() float64 {
	return float64(len(ep.latency)) / (ep.wall - ep.think).Seconds()
}

func (ep *episode) fail(round int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if round >= 0 {
		ep.failedRounds[round] = true
		msg = fmt.Sprintf("round #%d: %s", round, msg)
	}
	ep.errs = append(ep.errs, msg)
}

func (ep *episode) countBids(submitted, admitted int) {
	ep.mu.Lock()
	ep.bidsSubmitted += submitted
	ep.bidsAdmitted += admitted
	ep.mu.Unlock()
}

func newEpisode(p *plan, m mode) *episode {
	ep := &episode{
		mode:         m,
		latency:      make([]time.Duration, len(p.rounds)),
		results:      make([]engine.RoundResult, len(p.rounds)),
		wdBids:       make([]map[auction.UserID]auction.Bid, len(p.rounds)),
		failedRounds: make(map[int]bool),
	}
	if m == modeTraced {
		ep.spans = newTracer()
		ep.program = &programSpans{}
	}
	return ep
}

// programSinks is what a traced episode attaches to the program's tracers.
func (ep *episode) programSinks() []span.Sink {
	if ep.program == nil {
		return nil
	}
	return []span.Sink{ep.program}
}

// roundGate delivers each campaign's settled rounds (engine.Config.OnRound)
// to the driver waiting on them. A driver opens round r+1 only after round r
// arrives here: a client's session can return before the engine has
// finalized its round, so client-side completion is not the gate.
type roundGate struct {
	ch map[string]chan engine.RoundResult
}

func newGate(campaigns []engine.CampaignConfig) *roundGate {
	g := &roundGate{ch: make(map[string]chan engine.RoundResult, len(campaigns))}
	for _, cc := range campaigns {
		// One slot per round the campaign will ever settle, so OnRound
		// never blocks the engine.
		g.ch[cc.ID] = make(chan engine.RoundResult, cc.Rounds)
	}
	return g
}

func (g *roundGate) onRound(r engine.RoundResult) {
	if ch, ok := g.ch[r.Campaign]; ok {
		ch <- r
	}
}

func (g *roundGate) wait(campaign string, round int) (engine.RoundResult, error) {
	timer := time.NewTimer(roundDeadline)
	defer timer.Stop()
	select {
	case r := <-g.ch[campaign]:
		if r.Round != round {
			return r, fmt.Errorf("campaign %s settled round %d, want %d", campaign, r.Round, round)
		}
		return r, nil
	case <-timer.C:
		return engine.RoundResult{}, fmt.Errorf("campaign %s round %d not settled within %v", campaign, round, roundDeadline)
	}
}

// usage is a point-in-time reading of process CPU and Go heap counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
	}
}

func (ep *episode) measure(from, to usage) {
	ep.wall = to.at.Sub(from.at)
	ep.cpu = to.cpu - from.cpu
	ep.allocBytes = to.alloc - from.alloc
	ep.gcCycles = uint64(to.gcs - from.gcs)
	ep.gcPause = time.Duration(to.gcPause - from.gcPause)
}

// liveHeap forces a collection and reads the heap still reachable. The
// second cycle empties the sync.Pool victim caches the first one kept.
// Episodes take it before set-up and again before teardown; the difference
// is what the engine (or cluster) holds after the episode's rounds.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drive plays every stream of the plan, one goroutine per stream, each a
// closed loop over its rounds. A stream stops at its first failed round: its
// campaigns' later rounds could only time out.
func drive(p *plan, play func(idx int) bool) {
	var wg sync.WaitGroup
	for _, stream := range p.streams {
		wg.Add(1)
		go func(stream []int) {
			defer wg.Done()
			for _, idx := range stream {
				if !play(idx) {
					return
				}
			}
		}(stream)
	}
	wg.Wait()
}

// roundNumbers gives each plan round its 1-based round number within its
// campaign.
func roundNumbers(p *plan) []int {
	seen := make(map[string]int)
	out := make([]int, len(p.rounds))
	for _, stream := range p.streams {
		for _, idx := range stream {
			c := p.rounds[idx].campaign
			seen[c]++
			out[idx] = seen[c]
		}
	}
	return out
}

// startEngine sets up an in-process engine with the plan's campaigns and
// starts ServeLocal; it returns once every campaign's first round is open,
// with the time that took. Stop it with cancel, then receive from served.
func startEngine(p *plan, cfg engine.Config) (eng *engine.Engine, cancel context.CancelFunc,
	served <-chan error, setup time.Duration, err error) {
	opened := make(chan struct{}, len(p.campaigns)) // one per campaign's first round
	cfg.OnRoundOpen = func(_ string, round int) {
		if round == 1 {
			opened <- struct{}{}
		}
	}
	start := time.Now()
	eng = engine.New(cfg)
	for _, cc := range p.campaigns {
		if err := eng.AddCampaign(cc); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("add campaign: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.ServeLocal(ctx) }()
	if err := waitN(opened, len(p.campaigns)); err != nil {
		cancel()
		<-done
		return nil, nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return eng, cancel, done, time.Since(start), nil
}

// setupInProcess measures one engine set-up and tears it down.
func setupInProcess(p *plan, _ int) (time.Duration, error) {
	runtime.GC()
	_, cancel, served, setup, err := startEngine(p, engine.Config{})
	if err != nil {
		return 0, err
	}
	cancel()
	<-served
	return setup, nil
}

// runInProcess is one st-fptas or mt-greedy episode: an engine with no
// listener and no store, every round SubmitBids → Await → Settle.
func runInProcess(p *plan, m mode) *episode {
	ep := newEpisode(p, m)
	gate := newGate(p.campaigns)
	base := liveHeap()
	eng, cancel, served, setup, err := startEngine(p, engine.Config{
		OnRound:              gate.onRound,
		DisableObservability: m == modeNoObs,
		SpanSinks:            ep.programSinks(),
	})
	if err != nil {
		ep.fail(-1, "%v", err)
		return ep
	}
	defer cancel()
	ep.setup = setup

	numbers := roundNumbers(p)
	before := readUsage()
	drive(p, func(idx int) bool { return playInProcess(eng, gate, p, idx, numbers[idx], ep) })
	ep.measure(before, readUsage())

	select {
	case err := <-served:
		if err != nil {
			ep.fail(-1, "serve: %v", err)
		}
	case <-time.After(drainDeadline):
		ep.fail(-1, "serve did not return after the last round")
		cancel()
		<-served
	}
	if err := eng.StoreErr(); err != nil {
		ep.fail(-1, "store: %v", err)
	}
	ep.heapLive = float64(liveHeap()) - float64(base)
	runtime.KeepAlive(eng)
	return ep
}

func waitN(ch <-chan struct{}, n int) error {
	timer := time.NewTimer(drainDeadline)
	defer timer.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("only %d of %d campaigns opened", i, n)
		}
	}
	return nil
}

func playInProcess(eng *engine.Engine, gate *roundGate, p *plan, idx, number int, ep *episode) bool {
	spec := p.rounds[idx]
	success := make(map[auction.UserID]bool, len(spec.bids))
	for i, b := range spec.bids {
		success[b.User] = spec.success[i]
	}
	tr := ep.spans
	root := tr.begin("round", 0)
	defer tr.end(root)
	rctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()

	t0 := time.Now()
	sp := tr.begin("engine.submit", root)
	batch, err := eng.SubmitBids(rctx, spec.campaign, spec.bids)
	tr.end(sp)
	if err != nil {
		ep.fail(idx, "submit: %v", err)
		return false
	}
	ep.countBids(len(spec.bids), batch.Admitted())
	if batch.Admitted() != len(spec.bids) {
		for _, v := range batch.Verdicts {
			if v != nil {
				ep.fail(idx, "bid rejected: %v", v)
				break
			}
		}
	}
	sp = tr.begin("engine.await", root)
	err = batch.Await(rctx)
	tr.end(sp)
	if err != nil {
		ep.fail(idx, "await: %v", err)
	}
	sp = tr.begin("engine.settle", root)
	batch.Settle(func(bid auction.Bid, _ mechanism.Award) bool { return success[bid.User] })
	tr.end(sp)
	ep.latency[idx] = time.Since(t0)

	sp = tr.begin("round.gate", root)
	res, err := gate.wait(spec.campaign, number)
	tr.end(sp)
	if err != nil {
		ep.fail(idx, "%v", err)
		return false
	}
	ep.results[idx] = res
	return true
}
