#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Usage: bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artefact (binary, Go build cache, temp files, the Go
# toolchain's config) stays under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" # the toolchain's own config and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
