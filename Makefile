# Developer entry points. `make check` is the pre-PR gate; it runs
# scripts/check.sh, the one list of gates (gofmt, vet, build, the full test
# suite, race-enabled tests, fuzz seed corpora, and the smoke targets below).

GO ?= go

# Packages that spawn goroutines on production paths. The experiment
# harnesses are excluded from the race pass only because their compute
# sweeps exceed any reasonable gate under race instrumentation; their
# concurrency (mechanism fan-out) is race-covered via these packages.
RACE_PKGS = ./internal/engine/... ./internal/obs/... \
	./internal/platform/... ./internal/agent/... ./internal/wire/... \
	./internal/store/... ./internal/cluster/... \
	./internal/reputation/... ./internal/execution/... \
	./internal/mechanism/... ./internal/knapsack/... ./internal/setcover/... \
	./cmd/crowdsim

# Packages whose go test micro-benchmarks `make bench` and `make check` run
# once each: the solver and mechanism hot paths with the *Reference
# baselines they are compared against, engine throughput and span journal,
# cluster failover and rounds, the wire codecs, the WAL stream's Recv, the
# span ring, auditor and SLO evaluation, mobility fitting, and swarm
# fan-in. (The root package's benchmarks are the paper's figure runs, not
# micro-benchmarks.) End-to-end and per-layer numbers come from
# `bash perfbench/run.sh`.
BENCH_PKGS = ./internal/knapsack ./internal/setcover ./internal/mechanism \
	./internal/engine ./internal/cluster ./internal/wire ./internal/store \
	./internal/obs/span ./internal/obs/audit ./internal/mobility ./cmd/crowdsim

.PHONY: all build test race fuzz-seed bench check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Run every wire, store, and cluster fuzz target over its checked-in seed
# corpus (no new inputs are generated; this is the deterministic regression
# pass).
fuzz-seed:
	$(GO) test -run 'Fuzz.*' ./internal/wire ./internal/store ./internal/cluster

# One iteration of every micro-benchmark: proves each still compiles and
# runs. -short trims the *Reference solver baselines to their n < 100
# sizes; a plain `go test -bench` runs every size. Raise -benchtime (and
# drop -short) for numbers.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

check:
	sh scripts/check.sh

# Production-symbol gate: the *Reference solvers are test oracles only, so
# no production binary may link them. Builds platformd, crowdsim and
# benchfig into a temp dir and fails if `go tool nm` lists a seed-solver
# symbol in any of them.
.PHONY: prod-symbols
prod-symbols:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for cmd in platformd crowdsim benchfig; do \
		$(GO) build -o "$$dir/$$cmd" ./cmd/$$cmd || exit 1; \
		$(GO) tool nm "$$dir/$$cmd" >"$$dir/$$cmd.nm" || exit 1; \
		if grep -E 'SolveFPTASReference|solveScaledDPReference|GreedyReference' "$$dir/$$cmd.nm"; then \
			echo "prod-symbols: $$cmd links a *Reference solver" >&2; exit 1; \
		fi; \
	done

# Regenerate the paper-figure golden that TestFiguresGolden (go test ./...)
# compares benchfig's output to: the default quick scale, seed 1. The file is
# written as-is; the test masks the wall-clock "runtime" columns when it
# compares. A change that means to move a figure reruns this and reports the
# diff.
.PHONY: figures
figures:
	$(GO) run ./cmd/benchfig > cmd/benchfig/testdata/figures.golden

# Crash-recovery differential: kill a WAL-backed engine mid-round, reopen
# the log, finish the campaign, and require outcomes identical to an
# uninterrupted run.
.PHONY: recovery-smoke
recovery-smoke:
	$(GO) test -run TestEngineCrashRecoveryDifferential ./internal/engine

# Record a live journal, convert it to Chrome trace JSON, and validate the
# result — the obsctl round-trip gate (TestRoundTrip drives a real engine).
.PHONY: obsctl-roundtrip
obsctl-roundtrip:
	$(GO) test -run TestRoundTrip ./cmd/obsctl

# Offline-audit gate: a live engine's event-derived journal must audit
# clean and a tampered copy must be flagged, plus a smoke run of the live
# auditor's overhead benchmark (the ≤10% assertion engages at b.N >= 50;
# 3x just proves the harness runs).
.PHONY: audit-smoke
audit-smoke:
	$(GO) test -run TestAuditSmoke ./cmd/audit
	$(GO) test -run '^$$' -bench BenchmarkAuditOverhead -benchtime 3x ./internal/obs/audit

# Kill-the-leader differential under the race detector: a sharded cluster
# loses its leader mid-campaign, the follower promotes from its replica, and
# the promoted shard's settled rounds and journal bytes must be identical to
# the dead leader's.
.PHONY: cluster-smoke
cluster-smoke:
	$(GO) test -race -run TestClusterFailoverDifferential ./internal/cluster

# Distributed-tracing gate: a three-node cluster (leader, replicating
# follower, router) plus traced agents journal to node-identified files; the
# journals are stitched with obsctl and every settled round must form one
# connected trace tree spanning at least three distinct node IDs.
.PHONY: trace-smoke
trace-smoke:
	$(GO) test -run TestTraceSmoke ./cmd/obsctl

# Closed-loop reputation gate under the race detector: an over-claiming user
# dominates the first campaigns of the liar scenario, the learned reliability
# discounts her declared PoS below the coverage requirement, and her share of
# wins must collapse while truthful users keep winning.
.PHONY: reputation-smoke
reputation-smoke:
	$(GO) test -race -run TestReputationSmoke ./cmd/crowdsim

# Million-agent fan-in gate, scaled to CI: 100k agents across 100 campaigns
# through the in-process swarm path under the race detector, asserting every
# round settles and the admit queue sheds nothing.
.PHONY: swarm-smoke
swarm-smoke:
	SWARM_AGENTS=100000 SWARM_CAMPAIGNS=100 SWARM_ROUNDS=1 \
		$(GO) test -race -run TestSwarmSmoke -v ./cmd/crowdsim

# Session-ordering gate: a session completes its bids (sessionDone) before it
# writes its terminal envelope, so a client that has returned finds its round
# settled and the next one open. The ordering regression test runs 20 times
# under the race detector, then the obsctl tests that raced while sessions
# answered before settling.
.PHONY: session-order
session-order:
	$(GO) test -race -count=20 -run TestSessionSettlesBeforeTerminalWrite ./internal/engine
	$(GO) test -count=5 -run 'TestRoundTrip|TestSummaryAndTail|TestSLOCommand' ./cmd/obsctl

# Event-fold gate: the event → state mapping is written once, in
# internal/store (store.Apply and its lenient twin store.RoundFold), so no
# non-test Go file outside that package may switch on event types. Fails if
# one contains `case store.Event`.
.PHONY: event-fold
event-fold:
	@if grep -rn --include='*.go' --exclude='*_test.go' 'case store\.Event' . | grep -v '^\./internal/store/'; then \
		echo "event-fold: fold events through store.Apply or store.RoundFold instead" >&2; exit 1; \
	fi

# Winner-determination fan-out gate: the knapsack and set-cover solvers are
# serial, and the mechanism's per-winner critical-bid fan-out is the only
# parallelism inside a mechanism run. Fails if a non-test Go file under
# internal/knapsack or internal/setcover contains `go func`,
# `sync.WaitGroup` or `runtime.GOMAXPROCS`.
.PHONY: wd-fanout
wd-fanout:
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'go func|sync\.WaitGroup|runtime\.GOMAXPROCS' internal/knapsack internal/setcover; then \
		echo "wd-fanout: keep the solvers serial; fan out per winner in internal/mechanism instead" >&2; exit 1; \
	fi

# Ops-surface gate under the race detector: a node that leads two shards
# after a promotion must export every led shard's engine, WAL, audit and
# reputation families, each sample shard-labelled, under one # TYPE line
# per family name, merge both shards' spans in end order, and keep
# liveness free of the audit status; a platformd cluster node must serve
# the standalone endpoint set (/debug/rounds, /debug/spans, liveness
# /healthz), and so must a standalone platformd, unlabelled, which answers
# "recovering" until its shard serves. The shard label is applied in one
# place, the cluster node: fails if a non-test Go file outside
# internal/cluster contains `Name: "shard"`. A serving shard is assembled
# in one place, cluster.BuildShard: fails if a non-test Go file outside
# internal/cluster recovers a state directory (`platform.Recover`) or binds
# an auditor's spans (`.SetSpans(`).
.PHONY: ops-surface
ops-surface:
	$(GO) test -race -run TestNodeMetricsAfterPromotion ./internal/cluster
	$(GO) test -race -run 'TestClusterNodeOpsSurface|TestStandaloneOpsSurface|TestOpsStateRecoveringWindow' ./cmd/platformd
	@if grep -rn --include='*.go' --exclude='*_test.go' 'Name: "shard"' . | grep -v '^\./internal/cluster/'; then \
		echo "ops-surface: label per-shard families in internal/cluster (obs.WithLabel) instead" >&2; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.SetSpans\(|platform\.Recover\b' . | grep -v '^\./internal/cluster/'; then \
		echo "ops-surface: assemble serving shards with cluster.BuildShard instead" >&2; exit 1; \
	fi
