#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload initial --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (binary, Go
# build cache, tool configuration) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a fastflip checkout" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-run" "$@"
