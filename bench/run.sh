#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of the checkout) and runs it there. Everything the
# build and the run write stays inside that directory: the Go build
# cache, the module cache, and the toolchain's own config and counters
# (XDG_CONFIG_HOME), not only the binary.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd "$src"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/keybin2-bench" .
)
exec "$out/keybin2-bench" "$@"
