#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build writes (Go build cache,
# binary, spans) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	GOENV=off GOFLAGS=-mod=mod XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0
# Telemetry off, so the go command starts no uploader beside the benchmark.
go telemetry off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
