#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through (see main.go). Build caches, the binary and
# the benchmark's scratch files live under .bench_build/ at the root of the
# checkout, so nothing is read or written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/xdg" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/cdcs-bench" .)
cd "$root"
exec "$out/cdcs-bench" "$@"
