#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it;
# arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload analytic --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build, relative to the working
# directory), so a run reads and writes only inside the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
