// Command perfbench is the repository benchmark: seeded closed-loop workloads
// driven through the system's public API, with every output checked in the
// same command.
//
//	bash perfbench/run.sh --workload st-fptas --seed 1 --trace 0
//
// Workloads (see BENCHMARK.json and perfbench/PREDICTIONS.json):
//
//   - st-fptas: in-process engine, single-task rounds at Fig. 5(a)'s sizes;
//     the FPTAS and its critical-bid search dominate.
//   - mt-greedy: in-process engine, multi-task rounds at Fig. 5(b)/(c)'s
//     sizes, one driver; admission, settlement and GC are a large share.
//   - cluster-wire: 3-node loopback cluster behind the router, WAL,
//     replication, audit and reputation on; one aggregator session and one
//     per-bid session per round, 5 ms apart.
//
// Every input is generated from --seed before timing starts. A run plays a
// fixed number of episodes derived from --seconds — each a fresh engine or
// cluster driven through one input block, checked and torn down — and
// reports medians over episodes, so runs compare at equal round counts.
// End-to-end timings are scaled by a yardstick timed in the same run, which
// follows the shared host's fast and slow phases (see yardstick.go); the
// unscaled figures are printed beside them.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, interleaving default, observability-off and traced episodes. The
// last line of standard output is the JSON result; the exit code is non-zero
// when any round or check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crowdsense/internal/stats"
	"crowdsense/internal/workload"
)

// gomaxprocs is fixed so that runs on machines of different sizes schedule
// the same way; the benchmark was sized on a 2-core machine.
const gomaxprocs = 2

// watchdog bounds a whole run: a hang anywhere exits non-zero without a
// result.
const watchdog = 170 * time.Second

// runSeconds is BENCHMARK.json's run_seconds, the run length the recorded
// steadiness evidence was measured at.
const runSeconds = 25

// outDir holds everything a run writes: state directories and traces.
const outDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool // self-test sizes: a few rounds per episode
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "st-fptas, mt-greedy or cluster-wire")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloadDef binds a workload name to its inputs and episode runner.
type workloadDef struct {
	// plan generates one block of rounds from a block seed.
	plan    func(pop *workload.Population, seed int64, small bool) (*plan, error)
	episode func(p *plan, m mode, seq int) *episode
	setup   func(p *plan, seq int) (time.Duration, error)
	// setupSamples is how many extra set-ups (without rounds) a --trace 0
	// run measures before its episodes, for a steady setup_s median.
	setupSamples int
	// episodeSeconds is one episode's length on the 2-core machine the
	// benchmark was sized on: a run plays --seconds / episodeSeconds
	// episodes, so two runs with the same --seconds do the same work.
	episodeSeconds float64
	// maxBlocks bounds the distinct input blocks a run generates (input
	// generation is not free); episodes cycle through the blocks.
	maxBlocks int
	// tail is the percentile round_tail_ms reports. On mt-greedy and
	// cluster-wire it is below p99.9, the highest percentile a run has ten
	// rounds beyond, which moved by 0.25 to 0.8 of its median between runs
	// of one build. A run with fewer than ten rounds beyond it reports the
	// highest percentile that has ten (see tailQuantile).
	tail float64
}

func stateRoot() string { return filepath.Join(outDir, fmt.Sprintf("state-%d", os.Getpid())) }

func workloads() map[string]workloadDef {
	inproc := func(p *plan, m mode, _ int) *episode { return runInProcess(p, m) }
	clusterEp := func(p *plan, m mode, seq int) *episode { return runCluster(p, m, stateRoot(), seq) }
	return map[string]workloadDef{
		"st-fptas": {
			plan: func(pop *workload.Population, seed int64, small bool) (*plan, error) {
				return stFPTASPlan(pop, seed, pick(small, 1, 2))
			},
			episode: inproc, setup: setupInProcess, setupSamples: 150,
			episodeSeconds: 2.3, maxBlocks: 16,
			tail: 0.95,
		},
		"mt-greedy": {
			plan: func(pop *workload.Population, seed int64, small bool) (*plan, error) {
				return mtGreedyPlan(pop, seed, pick(small, 1, 80))
			},
			episode: inproc, setup: setupInProcess, setupSamples: 150,
			episodeSeconds: 1.2, maxBlocks: 2,
			tail: 0.99,
		},
		"cluster-wire": {
			plan: func(pop *workload.Population, seed int64, small bool) (*plan, error) {
				camps, err := clusterCampaigns()
				if err != nil {
					return nil, err
				}
				return clusterPlan(pop, seed, camps, pick(small, 4, 60))
			},
			episode: clusterEp, setup: setupCluster, setupSamples: 10,
			episodeSeconds: 2.2, maxBlocks: 16,
			tail: 0.99,
		},
	}
}

func pick(small bool, a, b int) int {
	if small {
		return a
	}
	return b
}

// episodes is how many episodes a run plays, how many distinct input blocks
// it generates, and which block and mode episode i uses. A traced run plays
// each block once in every mode, back to back, so the modes compare on the
// same inputs.
func (def workloadDef) episodes(cfg config) (n, blocks int, at func(i int) (block int, m mode)) {
	n = int(math.Round(cfg.seconds / def.episodeSeconds))
	if !cfg.trace {
		n = max(n, 3)
		blocks = min(n, def.maxBlocks)
		if cfg.small {
			n, blocks = 3, 2
		}
		return n, blocks, func(i int) (int, mode) { return i % blocks, modeDefault }
	}
	modes := []mode{modeTraced, modeDefault, modeNoObs}
	rounds := max(int(math.Round(float64(n)/3)), 2)
	blocks = min(rounds, def.maxBlocks)
	if cfg.small {
		rounds, blocks = 2, 1
	}
	return 3 * rounds, blocks, func(i int) (int, mode) { return (i / 3) % blocks, modes[i%3] }
}

func run(cfg config, out io.Writer) (result, error) {
	def, ok := workloads()[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want st-fptas, mt-greedy or cluster-wire)", cfg.workload)
	}
	pop, err := buildPopulation()
	if err != nil {
		return result{}, fmt.Errorf("build population: %w", err)
	}
	n, blocks, at := def.episodes(cfg)
	master := stats.NewRand(cfg.seed)
	plans := make([]*plan, blocks)
	for b := range plans {
		if plans[b], err = def.plan(pop, master.Int63(), cfg.small); err != nil {
			return result{}, fmt.Errorf("generate inputs: %w", err)
		}
	}
	defer os.RemoveAll(stateRoot())

	// The yardstick is read before the set-ups, after them and after each
	// episode; each phase's timings are scaled by the readings around it
	// (see yardPair), so a slow spell of the host that starts or ends inside
	// a run is scaled where it happened.
	prev := yardstick()
	yards := []yardReading{prev}
	var setups []time.Duration
	var setupYard yardPair
	if !cfg.trace {
		k := def.setupSamples
		if cfg.small {
			k = 2
		}
		for i := 0; i < k; i++ {
			d, err := def.setup(plans[0], -1-i)
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d)
		}
		cur := yardstick()
		setupYard, prev = around(prev, cur), cur
		yards = append(yards, cur)
	}

	var eps []*episode
	for i := 0; i < n; i++ {
		block, m := at(i)
		ep := def.episode(plans[block], m, i)
		ep.block = block
		eps = append(eps, ep)
		if len(ep.errs) > 0 {
			break // a failed episode fails the run; later ones add nothing
		}
		cur := yardstick()
		ep.yard, prev = around(prev, cur), cur
		yards = append(yards, cur)
	}
	return report(cfg, def, plans, eps, setups, setupYard, yards, out), nil
}
