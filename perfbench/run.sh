#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, trace files) stays under .bench_build/ in the checkout;
# CARGO_TARGET_DIR, when set, names that directory instead.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of a hido checkout" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

(
	cd perfbench
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOENV=off \
		GOTOOLCHAIN=local go build -o "$build/perfbench" .
)

exec "$build/perfbench" -trace-dir "$build/traces" "$@"
