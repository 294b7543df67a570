#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repo root.
# Everything the go tool writes (build cache, binary, its config dir) lands
# under .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/mgsp-benchmark" .)
cd "$root"
exec "$out/mgsp-benchmark" "$@"
