#!/usr/bin/env bash
# Build the benchmark from source and run it.  From the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 10 --trace 0
#
# The build goes to _perfbench_build/ (release profile, so a warning in the
# library cannot stop a measurement) and its output goes to stderr: the
# last stdout line stays the benchmark's result object.  Outside a full
# checkout the build fails and so does this script.
set -euo pipefail

build_dir=_perfbench_build
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" --profile release \
  --display quiet ./perfbench/main.exe 1>&2

# Identity of the code under test: the commit when this is a git checkout
# (never searching above it), and a digest of the library sources always.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
  git rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_SOURCE=$(find lib -type f \( -name '*.ml' -o -name '*.mli' \) | LC_ALL=C sort \
  | xargs cat | sha256sum | cut -d' ' -f1)
export PERFBENCH_COMMIT PERFBENCH_SOURCE

exec "$build_dir/default/perfbench/main.exe" "$@"
