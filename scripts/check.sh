#!/usr/bin/env bash
# Repo gate: no hidden environment switch, no unused public module, build,
# every test, the recorded sweeps and the long-form map property, lints,
# docs, perf smoke.
#
# The BENCH_*.json recordings are checked for equality by tests/recorded.rs
# (the test names say what each one claims). After an intended change:
#
#   EHDL_WRITE_BENCH=1 cargo test --release --test recorded -- --include-ignored

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== library code reads no environment switch =="
# The one environment variable library code reads is EHDL_WRITE_BENCH
# (re-record the BENCH_*.json files, above). Any other is a hidden setting
# no test or benchmark turns on: make it an option with a caller, or delete
# it. Cargo's compile-time CARGO_* variables are not switches.
if grep -rnE 'env::var|env!\(|\bvar(s|_os|s_os)?\(' crates/*/src \
  | grep -vE '"EHDL_WRITE_BENCH"|env!\("CARGO_'; then
  echo "library code above reads an environment variable other than EHDL_WRITE_BENCH" >&2
  exit 1
fi

echo "== every public module has a user =="
# Each `pub mod m;` in a crate's lib.rs must be named as `m::` by a source
# file other than its own (`m.rs` or `m/`): library code in crates/*/src,
# the CLI in src/, the benchmark in perf/src or the root tests/. A crate's
# own tests/ do not count: a module only they reach is dead weight.
unused=0
for lib in crates/*/src/lib.rs; do
  dir=$(dirname "$lib")
  for m in $(sed -nE 's/^pub mod ([a-z0-9_]+);.*/\1/p' "$lib"); do
    users=$(grep -rlE --include='*.rs' "\b${m}::" crates/*/src src perf/src tests \
      | grep -vE "^${dir}/${m}(\.rs|/)" || true)
    if [ -z "$users" ]; then
      echo "${lib}: pub mod ${m} is named by no file outside its own" >&2
      unused=1
    fi
  done
done
[ "$unused" = 0 ] || exit 1

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test --workspace -q

echo "== recorded sweeps (the #[ignore]d BENCH_* tests, release build) =="
cargo test --release --test recorded -q -- --ignored

echo "== long-form map model property (#[ignore]d, release build) =="
cargo test --release -p ehdl-ebpf -q -- --ignored

echo "== benchmark harness unit tests (perf/ is its own package) =="
(cd perf && cargo test --offline -q)

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --all -- --check

echo "== docs (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== perf smoke (six workloads at 1/50 size, outputs checked against the VM) =="
# Traced: each workload also runs a unit that drives the simulator's
# enqueue/step/settle/drain itself, and that unit must land on the shell
# unit's cycle count, counters and outputs.
bash perf/run.sh --smoke --trace

echo "check.sh: all gates passed"
