#!/usr/bin/env bash
# Build the benchmark and the fact CLI it drives from source, then run
# the benchmark with the given arguments (see README.md next to this
# file). Run it from the root of the repository.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/e2e/run.sh: run from the root of the repository" >&2
  exit 2
fi
dune build --root . --display quiet ./bin/fact_cli.exe ./bench/e2e/fact_bench.exe 1>&2
exec ./_build/default/bench/e2e/fact_bench.exe "$@"
