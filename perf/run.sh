#!/usr/bin/env bash
# The repository benchmark. Builds the ehdl-perf package (release, offline)
# and runs it from the repository root; every argument goes to the binary.
#
#   perf/run.sh [--seed N] [--seconds S] [--trace] [--smoke]   all six workloads
#   perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   perf/run.sh --describe                                     print BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One build directory whether or not the caller chose one (the root
# workspace's `target/` by default, shared with `cd perf && cargo test`).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2

# Provenance for the result header; the binary itself starts no process.
EHDL_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
# (The ceiling keeps git from looking for a repository above this one.)
EHDL_PERF_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
export EHDL_PERF_RUSTC EHDL_PERF_COMMIT

exec "$CARGO_TARGET_DIR/release/ehdl-perf" "$@"
