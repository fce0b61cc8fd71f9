#!/usr/bin/env bash
# The repo's benchmark. Builds the benchmark crate (offline, release) and
# runs it; see README.md beside this file.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--repeat K] [--smoke]
#       every workload, each in its own child process: all end-to-end
#       metrics by name with unit, direction and bound; answers checked;
#       results in benchmark/out/result.json. --trace adds the per-layer
#       replay and the reconciliations; --repeat 2 runs two sets back to
#       back and exits non-zero if they differ by more than the bounds;
#       --smoke is a tiny population and one short slice (< 20 s).
#       Defaults: seed 0xEDE2023, 30 seconds per workload.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, as ../BENCHMARK.json's driver calls it;
#       the last line of standard output is the result object.
#
# Run from anywhere. CARGO_TARGET_DIR is honoured (relative to the
# current directory, as cargo reads it); unset, the build goes to
# benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to standard error: standard output is the report.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/ede-benchmark" --out "$here/out" "$@"
