#!/usr/bin/env bash
# Builds the VULFI benchmark harness from source and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload fig11-sweep --seed 7 --seconds 25 --trace 0
#
# The binary, the Go build cache and the go command's own state stay
# under .bench_build/ in the current directory, so a run touches nothing
# outside the checkout. Results land in bench-out/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$here" && go build -o "$build/vulfi-bench" .)
exec "$build/vulfi-bench" "$@"
