package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/stats"
	"crowdsense/internal/trace"
	"crowdsense/internal/workload"
)

// citySeed fixes the synthetic city every workload samples from. The city is
// part of the benchmark's definition; --seed varies only the rounds drawn
// from it, so two seeds differ in instances, not in the population's shape.
const citySeed = 1

// epsilon is the single-task FPTAS parameter of Fig. 5(a)'s faster curve.
const epsilon = 0.5

// roundSpec is one auction round, generated before any timing starts.
type roundSpec struct {
	campaign string
	tasks    []auction.Task
	bids     []auction.Bid
	// success[i] is bid i's pre-drawn execution outcome (in-process
	// settlement); agents over the wire draw theirs from seed.
	success []bool
	seed    int64
}

// plan is a workload's whole input: its campaigns and the rounds each
// closed-loop driver plays, in order.
type plan struct {
	campaigns []engine.CampaignConfig
	rounds    []roundSpec
	streams   [][]int // per driver: indices into rounds
}

// buildPopulation learns the mobility population of the downsized paper city
// the experiment tests use (12×12 cells, 220 taxis, 14 days): dense enough
// that Fig. 5's instance sizes are feasible.
func buildPopulation() (*workload.Population, error) {
	cfg := trace.DefaultConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.Taxis = 220
	cfg.Days = 14
	cfg.TerritorySize = 20
	cfg.Hotspots = 25
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("trace generator: %w", err)
	}
	log, err := gen.Generate(stats.NewRand(citySeed))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	return workload.BuildPopulation(log, 1, 2)
}

// remap renumbers an instance's tasks onto a campaign's task IDs 1..t (in
// ascending cell order), so every round of a campaign bids on the same task
// set however its cells were drawn.
func remap(a *auction.Auction) ([]auction.Task, []auction.Bid) {
	ids := make([]auction.TaskID, len(a.Tasks))
	for i, t := range a.Tasks {
		ids[i] = t.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	to := make(map[auction.TaskID]auction.TaskID, len(ids))
	tasks := make([]auction.Task, len(ids))
	for i, id := range ids {
		to[id] = auction.TaskID(i + 1)
		req := 0.0
		for _, t := range a.Tasks {
			if t.ID == id {
				req = t.Requirement
			}
		}
		tasks[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: req}
	}
	bids := make([]auction.Bid, len(a.Bids))
	for i, b := range a.Bids {
		ts := make([]auction.TaskID, len(b.Tasks))
		pos := make(map[auction.TaskID]float64, len(b.Tasks))
		for k, t := range b.Tasks {
			ts[k] = to[t]
			pos[to[t]] = b.PoS[t]
		}
		bids[i] = auction.NewBid(b.User, ts, b.Cost, pos)
	}
	return tasks, bids
}

// drawSuccess pre-draws each bid's execution outcome on its declared
// (truthful) combined PoS.
func drawSuccess(rng *rand.Rand, bids []auction.Bid) []bool {
	out := make([]bool, len(bids))
	for i, b := range bids {
		out[i] = rng.Float64() < b.CombinedPoS()
	}
	return out
}

// sampleExact draws an instance with exactly n bids: a campaign collects a
// fixed number of bidders per round. The multi-task sampler may drop users
// whose predictions miss every task; in practice it never does at these
// sizes, and a bounded redraw keeps the count exact when it does.
func sampleExact(n int, draw func() (*auction.Auction, error)) (*auction.Auction, error) {
	var last error
	for try := 0; try < 256; try++ {
		a, err := draw()
		if err != nil {
			last = err
			continue
		}
		if len(a.Bids) == n {
			return a, nil
		}
	}
	if last == nil {
		last = fmt.Errorf("no draw had exactly %d bids", n)
	}
	return nil, last
}

// gridPoint is one (users, tasks) instance size of the paper's sweeps.
type gridPoint struct{ n, t int }

// stratifiedPlan plays reps rounds at every grid point, shuffled into one
// seeded order and dealt round-robin to the drivers. Every grid point of a
// driver is one campaign: a campaign's ExpectedBidders is fixed, so rounds of
// different sizes cannot share one. Stratifying the sizes (rather than
// drawing each round's size at random) keeps the mix identical across seeds,
// so seeds differ only in the instances.
func stratifiedPlan(pop *workload.Population, seed int64, prefix string, grid []gridPoint,
	reps, drivers int, cc func(id string, tasks []auction.Task, n, rounds int) engine.CampaignConfig,
	draw func(rng *rand.Rand, g gridPoint) (*auction.Auction, error)) (*plan, error) {
	rng := stats.NewRand(seed)
	var order []gridPoint
	for _, g := range grid {
		for r := 0; r < reps; r++ {
			order = append(order, g)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	p := &plan{streams: make([][]int, drivers)}
	rounds := make(map[string]int)
	tasksOf := make(map[string][]auction.Task)
	var ids []string
	for i, g := range order {
		d := i % drivers
		id := fmt.Sprintf("%s-d%d-n%d-t%d", prefix, d, g.n, g.t)
		a, err := sampleExact(g.n, func() (*auction.Auction, error) { return draw(rng, g) })
		if err != nil {
			return nil, fmt.Errorf("sample n=%d t=%d: %w", g.n, g.t, err)
		}
		tasks, bids := remap(a)
		if _, ok := rounds[id]; !ok {
			ids = append(ids, id)
			tasksOf[id] = tasks
		}
		rounds[id]++
		p.streams[d] = append(p.streams[d], len(p.rounds))
		p.rounds = append(p.rounds, roundSpec{campaign: id, tasks: tasksOf[id], bids: bids,
			success: drawSuccess(rng, bids), seed: rng.Int63()})
	}
	sort.Strings(ids)
	for _, id := range ids {
		var n int
		for _, r := range p.rounds {
			if r.campaign == id {
				n = len(r.bids)
				break
			}
		}
		p.campaigns = append(p.campaigns, cc(id, tasksOf[id], n, rounds[id]))
	}
	return p, nil
}

func inProcessCampaign(id string, tasks []auction.Task, n, rounds int) engine.CampaignConfig {
	return engine.CampaignConfig{ID: id, Tasks: tasks, ExpectedBidders: n, Rounds: rounds,
		Alpha: mechanism.DefaultAlpha, Epsilon: epsilon}
}

// stFPTASPlan: Fig. 5(a)'s single-task sizes, n = 20..100 step 5, one
// driver. WD time grows steeply with n (2 ms at 20, ~95 ms at 100).
func stFPTASPlan(pop *workload.Population, seed int64, reps int) (*plan, error) {
	var grid []gridPoint
	for n := 20; n <= 100; n += 5 {
		grid = append(grid, gridPoint{n: n, t: 1})
	}
	params := workload.DefaultSingleTaskParams()
	return stratifiedPlan(pop, seed, "st", grid, reps, 1, inProcessCampaign,
		func(rng *rand.Rand, g gridPoint) (*auction.Auction, error) {
			return pop.SampleSingleTask(rng, params, g.n)
		})
}

// mtGreedyPlan: Fig. 5(b)'s users sweep at 15 tasks plus Fig. 5(c)'s tasks
// sweep at 30 users, one driver. A second driver adds no throughput on two
// cores (it measured 940-1300 rounds/s against one driver's 1000-1200) but
// makes every round queue behind the other driver's and the collector's
// work: its p99.9 spread over runs of one build was 0.8 of the median.
func mtGreedyPlan(pop *workload.Population, seed int64, reps int) (*plan, error) {
	var grid []gridPoint
	for n := 10; n <= 100; n += 10 {
		grid = append(grid, gridPoint{n: n, t: 15})
	}
	for t := 10; t <= 50; t += 10 {
		grid = append(grid, gridPoint{n: 30, t: t})
	}
	params := workload.DefaultParams()
	return stratifiedPlan(pop, seed, "mt", grid, reps, 1, inProcessCampaign,
		func(rng *rand.Rand, g gridPoint) (*auction.Auction, error) {
			return pop.SampleMultiTask(rng, params, g.n, g.t)
		})
}

// clusterBidders is the size of a cluster-wire round: one aggregator session
// carrying clusterBidders-1 bids plus one per-bid session.
const clusterBidders = 8

// reputationSlack is the discount every declared PoS must survive with the
// round still feasible. cluster-wire runs the reputation loop, which scales
// a user's PoS by her learned reliability r̂ before winner determination; a
// round feasible only on declared PoS can then fail as unreachable.
const reputationSlack = 0.5

// feasibleAt reports whether the instance stays feasible with every PoS
// scaled by f.
func feasibleAt(a *auction.Auction, f float64) bool {
	bids := make([]auction.Bid, len(a.Bids))
	for i, b := range a.Bids {
		pos := make(map[auction.TaskID]float64, len(b.PoS))
		for t, p := range b.PoS {
			pos[t] = p * f
		}
		bids[i] = auction.NewBid(b.User, b.Tasks, b.Cost, pos)
	}
	scaled, err := auction.New(a.Tasks, bids)
	return err == nil && scaled.Feasible(1e-9)
}

// clusterPlan: small single-task rounds rotating over one campaign per
// shard, so winner determination is negligible next to the wire, WAL and
// replication. Campaign IDs are placed on shards by the caller.
func clusterPlan(pop *workload.Population, seed int64, campaigns []string, roundsPer int) (*plan, error) {
	rng := stats.NewRand(seed)
	params := workload.DefaultParams()
	tasks := []auction.Task{{ID: 1, Requirement: params.Requirement}}
	p := &plan{streams: make([][]int, 1)}
	for r := 0; r < roundsPer; r++ {
		for _, id := range campaigns {
			a, err := sampleExact(clusterBidders, func() (*auction.Auction, error) {
				a, err := pop.SampleSingleTask(rng, params, clusterBidders)
				if err == nil && !feasibleAt(a, reputationSlack) {
					return nil, errors.New("infeasible after a reputation discount")
				}
				return a, err
			})
			if err != nil {
				return nil, fmt.Errorf("sample cluster round: %w", err)
			}
			_, bids := remap(a)
			p.streams[0] = append(p.streams[0], len(p.rounds))
			p.rounds = append(p.rounds, roundSpec{campaign: id, tasks: tasks, bids: bids,
				success: drawSuccess(rng, bids), seed: rng.Int63()})
		}
	}
	for _, id := range campaigns {
		p.campaigns = append(p.campaigns, engine.CampaignConfig{ID: id, Tasks: tasks,
			ExpectedBidders: clusterBidders, Rounds: roundsPer,
			Alpha: mechanism.DefaultAlpha, Epsilon: epsilon})
	}
	return p, nil
}
