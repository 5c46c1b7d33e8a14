#!/usr/bin/env bash
# Entry point of BENCHMARK.json: build the benchmark from source, then run it
# with the driver's arguments (--workload, --seed, --seconds, --trace).
#
# Everything written stays inside the checkout: the Go build cache, the
# binary and the temporary data directories under .bench_build/, the span
# files under bench/e2e/out/. The build happens before the program starts,
# so it is outside every measured region; with a warm cache it takes well
# under a second.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/data"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/e2e" .)
exec "$build/e2e" -dir "$build/data" -out "$here/out" "$@"
