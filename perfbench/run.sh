#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload ingest|query|mixed --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache, the
# stores' files and the traced run's spans all stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --data "$out/data" --trace-out "$out/trace" "$@"
