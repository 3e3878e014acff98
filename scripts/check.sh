#!/bin/sh
# Pre-PR gate and the one list of its gates (`make check` runs this script):
# gofmt, vet, build, no orphan internal package, the full test suite (which
# also pins the walkthroughs' output in example_test.go and every paper
# figure against cmd/benchfig/testdata/figures.golden, TestFiguresGolden;
# `make figures` regenerates that golden; holds a caught-up WAL stream's
# Recv to the same cost at any offset, TestStreamRecvCostFlat; and holds a
# loopback cluster round and a replication read to their allocation
# budgets, TestSessionAllocBudget and TestRepConnReadAllocFlat, which
# `make race` runs again; pins the certified single-task critical bid to
# the plain bisection bit for bit with no fallback,
# TestSingleTaskCertifiedMatchesBisect, also under `make race`; and holds
# every Fig. 5a winner to three solver probes,
# TestSingleTaskCriticalBidProbeBudget),
# then the Makefile's gate targets: race-enabled tests of every
# concurrency-bearing package (`make race`), a seed-corpus pass of the
# fuzz targets, a one-iteration smoke run of every micro-benchmark package
# (`make bench`; it exercises the optimized-vs-reference solver pairs end
# to end), a check that no production binary links a *Reference solver
# (`make prod-symbols`), a check that only internal/store switches on event
# types (`make event-fold`), a check that the knapsack and set-cover solvers
# start no goroutines (`make wd-fanout`), a cluster node's per-shard
# metrics surface with its one shard-label site, platformd's one ops
# endpoint set on a cluster node and standalone, and the one serving-shard
# assembly, cluster.BuildShard (`make ops-surface`), and the
# differential and smoke gates. The commands and package
# lists live only in the Makefile. Run it from the repo root.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed: $unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
# Orphan-package gate: every ./internal/... package needs a non-test
# importer somewhere in the module. internal/placement is the one known
# orphan; it is listed here until its own deletion change removes it.
imports=$(mktemp)
go list -f '{{join .Imports "\n"}}' ./... | sort -u >"$imports"
orphans=$(go list ./internal/... | sort | comm -23 - "$imports" | grep -vx 'crowdsense/internal/placement' || true)
rm -f "$imports"
if [ -n "$orphans" ]; then
	echo "internal packages with no non-test importer: $orphans" >&2
	exit 1
fi
go test ./...
# Every gate below is a Makefile target; its command and its comment live
# there only.
make --no-print-directory race
make --no-print-directory fuzz-seed
make --no-print-directory bench
make --no-print-directory prod-symbols
make --no-print-directory event-fold
make --no-print-directory wd-fanout
make --no-print-directory ops-surface
make --no-print-directory obsctl-roundtrip
make --no-print-directory recovery-smoke
make --no-print-directory audit-smoke
make --no-print-directory cluster-smoke
make --no-print-directory trace-smoke
make --no-print-directory swarm-smoke
make --no-print-directory reputation-smoke
make --no-print-directory session-order
