#!/usr/bin/env bash
# Build the benchmark and the salam_served daemon from this checkout's
# sources, then run one workload:
#
#   bash perfbench/run.sh --workload sim_suite --seed 1 --seconds 25 --trace 0
#
# Run from the root of the checkout. Build output goes to stderr; the last
# stdout line is the result JSON.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/salam_served.ml ]; then
  echo "perfbench: run from the root of a salam checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

# Keep dune's shared cache out of it: build and read only inside the checkout.
export DUNE_CACHE=disabled
# Every phase runs on one domain: SALAM_DOMAINS would make island
# execution the default for the CNN systems.
export SALAM_DOMAINS=1
dune build --root . ./perfbench/perfbench.exe ./bin/salam_served.exe 1>&2

commit=none
if [ -e .git ]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo none)
fi
exec ./_build/default/perfbench/perfbench.exe "$@" \
  --daemon ./_build/default/bin/salam_served.exe --commit "$commit"
