#!/usr/bin/env bash
# Builds bqsd and the wirebench load generator from this checkout's sources and
# runs one benchmark pass (or `compare`). Every file the build and the
# run create stays under .bench_build in the checkout: the Go build
# cache, temporary files, data directories, reports and traces.
#
#   bash wirebench/run.sh --workload stream_ingest --seed 1 --seconds 20 --trace 0
#   bash wirebench/run.sh compare .bench_build/reports-base .bench_build/reports-head
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bqsd" ]]; then
	echo "wirebench: $root holds no bqs sources to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/bin/bqsd" ./cmd/bqsd)
(cd "$root/wirebench" && go build -o "$out/bin/wirebench" .)
if [[ "${1:-}" == compare ]]; then
	exec "$out/bin/wirebench" "$@"
fi
exec "$out/bin/wirebench" -bqsd "$out/bin/bqsd" -root "$root" "$@"
