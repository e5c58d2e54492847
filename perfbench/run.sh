#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, scratch files) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0
# The go command's own config and telemetry live under the user config
# directory; keep them inside the build directory too.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export CARGO_TARGET_DIR="$out"
(cd perfbench && go build -trimpath -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
