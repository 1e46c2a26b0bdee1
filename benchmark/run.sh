#!/usr/bin/env bash
# Build the harness from source and run it once:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything written lands inside the
# checkout: the binary, Go's build cache and its temporary files go under
# .bench_build/, traces under benchmark/out/.
#
# Process hygiene: the only child this script starts is `go build`, in the
# foreground, and it has exited before the harness starts. The harness is
# then exec'ed — it replaces this shell instead of running under it — so
# killing the PID the caller holds kills the harness itself; there is no
# `go run` wrapper and no `&` whose child could outlive us. Broker,
# registry, publisher and sinks are goroutines of that one process.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$build/morphperf" .) >&2

if [ -n "$(jobs -p)" ]; then
	echo "run.sh: a child of this script is still alive: $(jobs -p)" >&2
	exit 1
fi
exec "$build/morphperf" "$@"
