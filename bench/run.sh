#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --workload serve-mix --seed 42 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the spans of traced runs stay in
# ${CARGO_TARGET_DIR:-.bench_build} inside the checkout; nothing is
# fetched from the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The build's own diagnostics go to stderr; stdout carries only the
# benchmark's lines, the last of them its JSON verdict.
(cd bench && go build -o "$out/spiderbench" .) >&2
exec "$out/spiderbench" --spans "$out/spans" "$@"
