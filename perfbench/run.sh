#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root. Everything the build and the run write goes under .bench_build/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/go-config"

# Keep the Go toolchain's caches, temporary files, and the telemetry
# counters it keeps under the user config directory inside the checkout,
# and keep it off the network: the module has no dependencies to fetch.
# Nothing here needs cgo, so no C compiler runs either.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp" \
	GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/go-config" CGO_ENABLED=0 \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
