#!/usr/bin/env bash
# Repo gate: build, test, lint, the BENCH_* gates, and the perf smoke.
#
# Usage:
#   scripts/check.sh           # the full gate (benches included)
#   scripts/check.sh --quick   # build + tests + lints + perf smoke (edit loop)
#
# The scale-out gate sweeps RSS-sharded pipeline replicas {1,2,4,8} over
# uniform and Zipf workloads (Firewall, DNAT) through the banked
# shared-map fabric and fails if:
#   - 4 uniform-workload firewall replicas deliver less than 2.5x the
#     aggregate pkts/cycle of a single replica;
#   - any uniform run drops packets (balanced load must be lossless);
#   - any sweep point drifts more than 25% from BENCH_scale_out.json.
#
# The chaos gate (replica kill/hang/brown-out storms × control-channel
# loss) replays BENCH_chaos.json's campaign and fails if:
#   - any injected replica failure goes undetected and unmasked, or is
#     detected past the watchdog budget;
#   - any packet is lost silently (offered must equal completed +
#     drained + discarded + rejected in every scenario);
#   - availability under a single kill falls below (N-1)/N - 5%;
#   - any host op at 10% channel loss fails to complete exactly once,
#     or the retried sequence diverges from the lossless reference;
#   - availability drifts more than 5 points from the recording.
#
# The SLO gate (long-haul serving campaign: multi-client reactor over
# churn, hot-key storms, SYN floods, live reloads, a kill storm, and a
# 10%-lossy control channel) replays BENCH_slo.json's campaign and
# fails if:
#   - whole-run availability across the lossless serving phases drops
#     below the 99.9% target, or drifts from the recording;
#   - p999 admission-to-ack op latency exceeds the recorded bound;
#   - the op coalescer stops shrinking the device schedule;
#   - the kill storm goes undetected, any punted frame survives the
#     host retry pass unserved, or request-level availability under the
#     kill falls below 99%;
#   - any admitted op at 10% channel loss is abandoned or never acked.
#
# The sharding-soundness gate (static shardcheck verdicts vs the dynamic
# differential checker) replays BENCH_shardcheck.json's campaign and
# fails if:
#   - any evaluation-app map stops auto-classifying (an OpaqueRmw
#     demotion would force hand-written sharding configs back in);
#   - any statically-proven verdict (vm_exact, placement, serialization)
#     is contradicted by the sharded differential run at 2 or 4 replicas;
#   - fewer than all four ShardError diagnostics fire on the deliberately
#     unsound configs;
#   - classification precision drops below the recording.
#
# Re-record an intentional change with:
#
#   EHDL_WRITE_BENCH=1 cargo bench -p ehdl-bench --bench scale_out
#   EHDL_WRITE_BENCH=1 cargo bench -p ehdl-bench --bench chaos
#   EHDL_WRITE_BENCH=1 cargo bench -p ehdl-bench --bench shardcheck
#   EHDL_WRITE_BENCH=1 cargo bench -p ehdl-bench --bench slo

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test --workspace -q

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --all -- --check

echo "== docs (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Last step of both modes: every perf/ workload at 1/50 size, each output
# checked against the reference VM (exit code 0 only if all are correct).
perf_smoke() {
  echo "== perf smoke (six workloads, outputs checked against the VM) =="
  bash perf/run.sh --smoke
}

if [[ "$quick" == "1" ]]; then
  perf_smoke
  echo "check.sh --quick: build, tests, lints and perf smoke passed (bench gates skipped)"
  exit 0
fi

echo "== scale-out gate (RSS sharding x banked shared maps) =="
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench scale_out

echo "== flush-cost sweep (partial flushes vs baseline) =="
cargo bench -p ehdl-bench --bench flush_opt

echo "== control plane (op latency, swap downtime, telemetry <1%) =="
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench runtime_ops

echo "== value-analysis effectiveness (invcheck + proven-access floor) =="
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench absint_stats

echo "== loader/decoder/verifier fuzz (11k seeded cases) =="
cargo test -p ehdl-ebpf --test fuzz_loader -q

echo "== fault campaign (protection coverage + watchdog availability) =="
cargo bench -p ehdl-bench --bench fault_campaign

echo "== control-channel fuzz (codec + mailbox overflow, seeded) =="
cargo test -p ehdl-hwsim --test fuzz_ctrl -q

echo "== chaos gate (replica fail-over x lossy control channel) =="
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench chaos

echo "== sharding soundness (static shardcheck vs dynamic checkers) =="
cargo test -p ehdl-hwsim --test shardplan -q
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench shardcheck

echo "== SLO gate (long-haul serving campaign x kill storm x lossy ctrl) =="
EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench slo

perf_smoke
echo "check.sh: all gates passed"
