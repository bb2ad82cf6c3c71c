#!/bin/sh
# Tier-1 verification (see ROADMAP.md): full build + tests, vet, the
# simlint invariant suite, and race-mode runs of the concurrency- and
# engine-adjacent packages.
#
# Stages (for the CI matrix; default runs everything):
#   ./verify.sh build   — gofmt gate, build, vet
#   ./verify.sh lint    — simlint invariant suite + suppression-debt gate
#   ./verify.sh test    — shuffled full test run + determinism double-run
#   ./verify.sh race    — race-mode runs of the concurrency-adjacent packages
#   ./verify.sh bench   — one-iteration benchmark smoke, then one run
#                         of each example and the default benchsuite
#   ./verify.sh all     — all of the above, in order
#   ./verify.sh fuzz    — 30 s each of native fuzzing of the engine API,
#                         the FIFO queue, the ledger auditor, the flow
#                         solver, the torus hop rule, the disk defect
#                         index, the service spec normalizer, the
#                         service result cache and the two trace file
#                         readers (not part of all: its inputs differ
#                         from run to run)
set -eu

stage="${1:-all}"

stage_build() {
	# gofmt gate: formatting drift fails loudly instead of churning
	# later diffs. gofmt -l prints offenders; any output is a failure.
	badfmt=$(gofmt -l .)
	if [ -n "$badfmt" ]; then
		echo "gofmt needed on: $badfmt" >&2
		exit 1
	fi
	set -x
	go build ./...
	go vet ./...
	# The benchmark (bench/) is a module of its own: the root vet skips it.
	(cd bench && go vet ./...)
	set +x
}

stage_lint() {
	set -x
	# simlint: the determinism & hygiene analyzer suite (DESIGN.md
	# "Enforced invariants"). Zero diagnostics or the build fails.
	go run ./cmd/simlint
	# Suppression-debt gate: every //simlint:allow site must carry a
	# reason and suppress a real diagnostic, and the totals must equal
	# the committed .simlint-baseline.json: growth fails, and so does a
	# baseline left looser than the tree. A conscious debt change
	# re-pins with: go run ./cmd/simlint -debt -update
	go run ./cmd/simlint -debt
	set +x
}

stage_test() {
	set -x
	# -shuffle=on randomizes test execution order so inter-test state
	# coupling cannot hide behind a lucky default order.
	go test -shuffle=on ./...
	# Determinism double-run: the event-trace regression tests compare
	# two in-process runs already; -count=2 additionally reruns each
	# comparison in a fresh map-randomization schedule. The sweep
	# runner's serial-vs-parallel double-runs ride the same gate. Every
	# package is included, so a new Deterministic test needs no list.
	go test -count=2 -run 'Deterministic' ./...
	# The benchmark (bench/) is a module of its own, so the root
	# ./... never compiles it; test it here so a change to the
	# simulator's public API cannot break it unnoticed.
	(cd bench && go test ./...)
	set +x
}

stage_race() {
	set -x
	go test -race ./internal/chaos/... ./internal/failure/... ./internal/sim/... ./internal/disk/... ./internal/raid/... ./internal/lustre/... ./internal/netsim/... ./internal/spantrace/... ./internal/sweep/... ./internal/serve/... ./internal/ledger/...
	# The real sweep bodies on the 4-worker replica pool: every
	# experiment.Sweeps entry and the E19 suite.
	go test -race -run 'SuiteDeterministic' ./internal/experiment/
	set +x
}

stage_bench() {
	set -x
	# Benchmark smoke: one iteration of every BenchmarkPaper study
	# (Figs. 2-4, E1-E17, HERO, ablations A1-A8) and every
	# netsim/sim/lustre/raid/spantrace/serve/chaos/center benchmark, with
	# bytes and allocations reported, so no benchmark harness can rot
	# silently. Among them: the engine's pending-set (EngineHold) and
	# cancel (CancelChurn, 0 allocs/op) rungs, the segmented queue's
	# burst (ServerBurst), one Spider II fabric build (NewFabric, about
	# 5.0 MB and 55 allocs), one full two-namespace center build with
	# its fabric (FullCenterBuild, about 12.9 MB and 287 allocs), the
	# congestion wave untraced and 1-in-64 traced, the service's report
	# encode path, and one featured one-day quick chaos campaign
	# (QuickCampaign, a serve-mix cold session's work).
	go test -bench . -benchtime=1x -benchmem -run '^$' . ./internal/netsim/ ./internal/sim/ ./internal/lustre/ ./internal/raid/ ./internal/spantrace/ ./internal/serve/ ./internal/chaos/ ./internal/center/
	# Run what go build only compiles: every examples/ program and the
	# default benchsuite §III-B block-vs-FS sweep, once each with stdout
	# discarded, so a runtime panic on those paths fails here.
	for ex in examples/*/; do
		go run "./${ex%/}" >/dev/null
	done
	go run ./cmd/benchsuite >/dev/null
	set +x
}

stage_fuzz() {
	set -x
	# FuzzEngineOps replays arbitrary At/After/Cancel/Reschedule/Step/
	# RunUntil/Reset sequences against a sorted-slice reference queue;
	# FuzzQueueOps checks sim.Queue's Push/Pop/Front/Len against a
	# plain-slice FIFO and that no slot outside the live window pins a
	# pointer;
	# FuzzLedgerAudit feeds arbitrary export bytes to the auditor and
	# Resume, which must never panic; FuzzFlowOps checks the incremental
	# flow solver's rates bitwise against a from-scratch recomputation
	# after arbitrary start/complete/Degrade/Restore/Reset sequences;
	# FuzzTorusHops checks that the signed hop count on any ring of 1 to
	# 64 positions lands on its target the short way (+ on a tie);
	# FuzzMediaOps checks a drive's sorted defect index against a
	# map-based reference after arbitrary InjectError/Repair/Scan/
	# ScanChunks sequences; FuzzSpecNormalize decodes arbitrary JSON
	# into a service Spec and checks that Normalize never panics, keeps
	# an accepted spec within the work caps, and is idempotent on it
	# (nil error, unchanged Key); FuzzCacheOps checks the service's
	# cost-aware result cache against a linear-scan reference after
	# arbitrary get/put(cost) sequences: the same hits, eviction counts,
	# victims and credits; FuzzTraceRead and FuzzReadSpans feed
	# arbitrary bytes to the throughput-log and span readers that
	# `iosi -import` and `spidersim ledger replay -spans` cross, which
	# must never panic: an accepted log yields a positive,
	# non-overflowing Series, and accepted input round-trips.
	# go test -fuzz takes one target per invocation; plain go test
	# already runs every seed corpus. The ledger seed is a 14 KB
	# campaign export, and every flow op rechecks all active flows:
	# minimizing each new interesting input that large under the default
	# 60 s cap stalls the whole 30 s run, so minimization is capped at 2 s.
	go test -run '^$' -fuzz FuzzEngineOps -fuzztime 30s ./internal/sim
	go test -run '^$' -fuzz FuzzQueueOps -fuzztime 30s ./internal/sim
	go test -run '^$' -fuzz FuzzLedgerAudit -fuzztime 30s -fuzzminimizetime 2s ./internal/ledger
	go test -run '^$' -fuzz FuzzFlowOps -fuzztime 30s -fuzzminimizetime 2s ./internal/netsim
	go test -run '^$' -fuzz FuzzTorusHops -fuzztime 30s ./internal/topology
	go test -run '^$' -fuzz FuzzMediaOps -fuzztime 30s ./internal/disk
	go test -run '^$' -fuzz FuzzSpecNormalize -fuzztime 30s ./internal/serve
	go test -run '^$' -fuzz FuzzCacheOps -fuzztime 30s ./internal/serve
	go test -run '^$' -fuzz FuzzTraceRead -fuzztime 30s ./internal/trace
	go test -run '^$' -fuzz FuzzReadSpans -fuzztime 30s ./internal/trace
	set +x
}

case "$stage" in
build) stage_build ;;
lint) stage_lint ;;
test) stage_test ;;
race) stage_race ;;
bench) stage_bench ;;
fuzz) stage_fuzz ;;
all)
	stage_build
	stage_lint
	stage_test
	stage_race
	stage_bench
	;;
*)
	echo "usage: ./verify.sh [build|lint|test|race|bench|fuzz|all]" >&2
	exit 2
	;;
esac
