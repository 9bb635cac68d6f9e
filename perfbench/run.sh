#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload udma-pair --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything the build and a
# traced run leave behind goes under $CARGO_TARGET_DIR (default
# .bench_build), including the Go build cache, so nothing is written
# outside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build output goes to standard error: the result must stay the last
# line of standard output.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --outdir "$out" "$@"
