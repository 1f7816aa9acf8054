#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload serve-tmall --seed 1 --seconds 5 --trace 0
#
# Run it from the repository root. The build cache, the Go toolchain's own
# config and telemetry files, the binary and the span files of traced runs
# all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
