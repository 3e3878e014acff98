#!/bin/sh
# Pre-PR gate and the one list of its gates (`make check` runs this script):
# gofmt, vet, build, the full test suite, race-enabled tests of every
# concurrency-bearing package, a seed-corpus pass of the wire fuzz
# targets, and a one-iteration smoke run of the solver benchmarks (which
# exercises the optimized-vs-reference pairs end to end). The experiment
# harnesses are excluded from the race pass only because their compute
# sweeps exceed any reasonable gate under race instrumentation; their
# concurrency is race-covered via these packages.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed: $unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race ./internal/engine/... ./internal/obs/... ./internal/obs/span \
	./internal/platform/... ./internal/agent/... ./internal/wire/... \
	./internal/store/... ./internal/cluster/... \
	./internal/reputation/... ./internal/execution/... \
	./internal/mechanism/... ./internal/knapsack/... ./internal/setcover/... \
	./cmd/crowdsim
go test -run 'Fuzz.*' ./internal/wire ./internal/store ./internal/cluster
go test -run '^$' -bench . -benchtime 1x ./internal/knapsack ./internal/setcover ./internal/mechanism
# Lifecycle-tracing gates: the obsctl round-trip (record a live journal,
# convert to Chrome trace JSON, validate) and a smoke run of the span
# overhead benchmark (the ≤10% assertion engages at b.N >= 50; 3x here
# just proves the harness runs).
go test -run TestRoundTrip ./cmd/obsctl
go test -run '^$' -bench BenchmarkSpanOverhead -benchtime 3x ./internal/engine
# Durability gates: the crash-recovery differential (kill a WAL-backed
# engine mid-round, reopen, finish — outcomes must match an uninterrupted
# run) and a smoke run of the store overhead benchmark (the ≤15% WAL /
# ≤10% MemStore assertions engage at b.N >= 50; 3x just proves the
# harness runs).
go test -run TestEngineCrashRecoveryDifferential ./internal/engine
go test -run '^$' -bench BenchmarkEngineStoreOverhead -benchtime 3x ./internal/engine
# Audit gates: the offline-audit smoke (a live engine's event-derived
# journal audits clean, a tampered copy is flagged with exit 1) and a smoke
# run of the live auditor's overhead benchmark (the ≤10% assertion engages
# at b.N >= 50; 3x just proves the harness runs).
go test -run TestAuditSmoke ./cmd/audit
go test -run '^$' -bench BenchmarkAuditOverhead -benchtime 3x ./internal/obs/audit
# Cluster gate: kill-the-leader differential under race — the promoted
# follower's settled rounds and journal bytes must match the dead leader's.
go test -race -run TestClusterFailoverDifferential ./internal/cluster
# Tracing gate: stitch a three-node cluster's journals (leader, follower,
# router, agents) and require every settled round to form one connected
# trace tree spanning at least three distinct node IDs.
go test -run TestTraceSmoke ./cmd/obsctl
# Fan-in gate: 100k agents across 100 campaigns through the in-process
# swarm path under race, asserting every round settles with zero
# admit-queue rejects.
SWARM_AGENTS=100000 SWARM_CAMPAIGNS=100 SWARM_ROUNDS=1 \
	go test -race -run TestSwarmSmoke ./cmd/crowdsim
# Closed-loop reputation gate: the liar scenario's over-claimer must be
# priced out — learned reliability discounts her declared PoS below the
# requirement and her win share collapses while truthful users keep winning.
go test -race -run TestReputationSmoke ./cmd/crowdsim
# Session-ordering gate: a session completes its bids before it writes its
# terminal envelope, so a returned client finds its round settled and the
# next one open — the ordering test 20× under race, then the obsctl tests
# that raced while sessions answered before settling.
go test -race -count=20 -run TestSessionSettlesBeforeTerminalWrite ./internal/engine
go test -count=5 -run 'TestRoundTrip|TestSummaryAndTail|TestSLOCommand' ./cmd/obsctl
