#!/usr/bin/env bash
# Builds fg_bench from the sources of the checkout this script sits in,
# then runs one workload:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result JSON. Build messages go
# to standard error. The build, its temporary files and the run stay
# inside the checkout (no shared dune cache).
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
export TMPDIR="$root/_build/.fg_bench_tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display=quiet ./bench/e2e/fg_bench.exe 1>&2
exec ./_build/default/bench/e2e/fg_bench.exe run "$@"
