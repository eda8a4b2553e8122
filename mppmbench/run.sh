#!/usr/bin/env bash
# Builds mppmd and the benchmark driver from the checkout this script
# sits in, then runs the driver with the given arguments:
#
#   bash mppmbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Every build artifact, Go cache and run output stays under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off
mkdir -p "$build/bin"
(cd "$here" && go build -o "$build/bin/mppmbench" . && go build -o "$build/bin/mppmd" repro/cmd/mppmd) >&2
exec "$build/bin/mppmbench" -root "$root" -mppmd "$build/bin/mppmd" "$@"
