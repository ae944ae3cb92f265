#!/usr/bin/env bash
# Build the CLI and perf.exe from source, then run perf.exe from the
# repository root:
#
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/perf/run.sh selftest | diff OLD NEW | ledger ...
#
# Arguments that do not start with a subcommand go to `perf.exe run`.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/main.exe bench/perf/perf.exe 1>&2
case "${1:-}" in
  run | diff | ledger | selftest) ;;
  *) set -- run "$@" ;;
esac
exec ./_build/default/bench/perf/perf.exe "$@"
