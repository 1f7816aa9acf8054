#!/usr/bin/env bash
# Reports which engine code the benchmark workloads reach. It builds
# perfbench with coverage instrumentation over every package of the module,
# runs each workload untraced and traced, and prints per-function coverage
# of internal/query and internal/dataframe, then the functions no workload
# reached (0.0%). Every argument is passed on to each perfbench run, e.g.
#
#   bash scripts/coverage.sh --toy
#   bash scripts/coverage.sh --seed 1 --seconds 5
#
# Run it from the repository root. The instrumented binary, the coverage
# counters and the span files of traced runs stay in a temporary directory
# that is removed on exit; nothing under perfbench/ is written.
set -euo pipefail

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/cov" "$tmp/out"
# The main package must be listed in -coverpkg, or no profile is written.
(cd "$root/perfbench" && go build -cover -coverpkg=repro/...,repro/perfbench -o "$tmp/perfbench" .)
for w in fit-student serve-tmall ingest-clickstream; do
	for trace in 0 1; do
		echo "# $w --trace $trace" >&2
		GOCOVERDIR="$tmp/cov" "$tmp/perfbench" --workload "$w" --trace "$trace" --out "$tmp/out" "$@" >/dev/null
	done
done
pkgs=repro/internal/query,repro/internal/dataframe
go tool covdata percent -i="$tmp/cov" -pkg="$pkgs"
go tool covdata func -i="$tmp/cov" -pkg="$pkgs" >"$tmp/func.txt"
cat "$tmp/func.txt"
echo "# functions no workload reached:"
grep -E '[[:space:]]0\.0%$' "$tmp/func.txt" || echo "(none)"
