#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-dense --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the span files all stay under
# .bench_build/perfbench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
