#!/usr/bin/env bash
# Build the benchmark from source and run it. From the repository root:
#   bash perfbench/run.sh --workload flow-ts1 --seed 1 --seconds 20 --trace 0
# Everything it writes stays in the checkout: dune's _build directory,
# with dune's shared cache disabled.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
