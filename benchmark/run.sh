#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver
# appends --workload NAME --seed N --seconds S --trace 0|1.
#
# Everything the build writes (Go's build cache, its temporary
# directory, the binary) goes under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

# The build prints nothing on success; on failure the message goes to
# stderr and the script stops here, before any result line.
(cd "$here" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
