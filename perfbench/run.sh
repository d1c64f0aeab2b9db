#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and tool state lands in .bench_build/ at the
# checkout root, so the benchmark reads and writes nothing outside the
# checkout. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
