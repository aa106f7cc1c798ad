#!/bin/sh
# Builds the benchmark and runs it with the arguments given, from the root of
# a checkout. The Go build cache, the compiler's temporary files and the
# binary all go under .bench_build/ (git-ignored), so that a run reads and
# writes nothing outside the directory it was started in.
set -e
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
