#!/usr/bin/env bash
# Repo gate: no hidden environment switch, build, every test, the recorded
# sweeps and the long-form map property, lints, docs, perf smoke.
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
bash perf/run.sh --smoke

echo "check.sh: all gates passed"
