#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the checkout root:
#
#   bash perfbench/run.sh --workload sweep-6x6 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every per-run file stay under
# .bench_build/ in the checkout; GOPATH and the config directory (Go's
# telemetry counters) are pointed there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
