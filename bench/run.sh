#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments; see bench/README.md. Everything the build writes stays
# under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
