#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Exits non-zero, printing no result, if the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
