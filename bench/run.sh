#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload replay_write_burst --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C bench build -o "$out/cache8t-bench" .

# Artifacts record the git revision; keep that lookup inside the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$(pwd)")" GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null
exec "$out/cache8t-bench" "$@"
