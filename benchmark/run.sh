#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write — binary, Go build cache, the go
# command's own state, corpus snapshot, traces — stays under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/home
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
HOME="$PWD/out/home" XDG_CONFIG_HOME="$PWD/out/home/.config" GOCACHE="$PWD/out/gocache" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -ldflags "-X main.commit=$commit" -o out/lpath-benchmark .
exec out/lpath-benchmark "$@"
