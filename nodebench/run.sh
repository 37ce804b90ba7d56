#!/usr/bin/env bash
# Builds nodebench from source and runs it. Run from the repository root:
#
#   bash nodebench/run.sh --workload serve-mixed --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the traced run's
# span file.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd nodebench && go build -o "$build/nodebench" .) >&2
exec "$build/nodebench" --out "$build" "$@"
