//! The metric and workload registry: one definition per metric, in one
//! place. `BENCHMARK.json` is generated from these tables (`--describe`)
//! and a test keeps the file on disk equal to them.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction, and what it measures.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as emitted.
    pub name: &'static str,
    /// Unit as emitted.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (0 for per-layer metrics, which carry no bound).
    pub bound: f64,
    /// Its one definition.
    pub what: &'static str,
}

/// One workload: name and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound, what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0, what }
}

use Better::{Higher, Lower};

/// The six workloads, in run order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "toolchain_zoo",
        why: "7 bundled programs, ELF bytes to VHDL+resources: only ebpf+core work, so compiler changes show here and nowhere else",
    },
    WorkloadDef {
        name: "fw_line_rate",
        why: "firewall, 64 B at 100G line rate, 10k uniform flows: every stage occupied, op bodies and map lookup+insert dominate host time",
    },
    WorkloadDef {
        name: "lb_zipf_hazard",
        why: "leaky bucket, 64 B Zipf(1.0) over 100k flows: read-modify-write on hot keys, so FEB flushes, checkpoints and replay dominate",
    },
    WorkloadDef {
        name: "router_caida_sparse",
        why: "router on a CAIDA-like trace (411 B avg): pipeline mostly empty, read-only maps, no flushes, so the per-cycle walk floor dominates",
    },
    WorkloadDef {
        name: "shard4_dnat_zipf",
        why: "DNAT on 4 lockstep replicas with a fabric-shared port allocator: the only user of RSS steering, bank arbitration and the lockstep driver",
    },
    WorkloadDef {
        name: "serve_longhaul",
        why: "64 closed-loop control clients beside packets on the reactor, a live reload, then kill-storm and lossy-ops campaigns: serve, runtime, ctrl, batch",
    },
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; an *item* is a compiled program on
/// `toolchain_zoo`, an acked client op on `serve_longhaul`, and a
/// completed packet elsewhere.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "host CPU seconds from program bytes to a device ready for its first packet or op (elf::load + compile + attach + map seeding); median of >= 21 cold set-ups; traffic generation excluded"),
    e2e("host_items_per_s", "1/s", Higher, 0.25,
        "items completed per host CPU second of the timed section; median over the measured units"),
    e2e("sim_items_per_kcycle", "items/kcycle", Higher, 0.15,
        "items completed per 1000 simulated cycles (global cycles on the sharded NIC; the designs' check runs on toolchain_zoo); deterministic per seed"),
    e2e("sim_latency_avg_cycles", "cycles", Lower, 0.20,
        "mean simulated latency of an item in 250 MHz cycles (4 ns): packet injection to completion, or op batch submission to ack; deterministic per seed"),
    e2e("sim_latency_p99_cycles", "cycles", Lower, 0.25,
        "exact nearest-rank 99th percentile of the same latencies; deterministic per seed"),
    e2e("design_luts_sum", "count", Lower, 0.01,
        "sum of resource::estimate_with_shell LUTs over the designs the workload compiles; deterministic"),
    e2e("design_ffs_sum", "count", Lower, 0.01,
        "sum of resource::estimate_with_shell flip-flops over the designs the workload compiles; deterministic"),
];

/// Per-layer metrics from the traced pass. Host times are medians over
/// the traced units; a metric whose layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // ebpf
    layer("ebpf.elf_load_us", "us", Lower, "elf::load per program (geomean over programs of per-program medians)"),
    layer("ebpf.verify_us", "us", Lower, "verifier::verify per program, called standalone (geomean of medians)"),
    layer("ebpf.decode_us", "us", Lower, "Program::decode per program (geomean of medians)"),
    layer("ebpf.absint_us", "us", Lower, "absint::analyze over the decoded program (geomean of medians)"),
    layer("ebpf.vm_ns_per_pkt", "ns", Lower, "reference VM cost per packet on the oracle's check sample; caps how much output can be checked"),
    // core
    layer("core.pass_verify_us", "us", Lower, "PassTimings.verify (geomean over programs of medians)"),
    layer("core.pass_unroll_us", "us", Lower, "PassTimings.unroll"),
    layer("core.pass_analyze_us", "us", Lower, "PassTimings.analyze"),
    layer("core.pass_absint_us", "us", Lower, "PassTimings.absint"),
    layer("core.pass_fuse_us", "us", Lower, "PassTimings.fuse"),
    layer("core.pass_schedule_us", "us", Lower, "PassTimings.schedule"),
    layer("core.pass_backend_us", "us", Lower, "PassTimings.backend"),
    layer("core.compile_other_us", "us", Lower, "PassTimings.total minus the seven passes (shardcheck + invcheck)"),
    layer("core.compile_us.firewall", "us", Lower, "compile_with_report wall time, firewall (median)"),
    layer("core.compile_us.router", "us", Lower, "compile_with_report wall time, router (median)"),
    layer("core.compile_us.tunnel", "us", Lower, "compile_with_report wall time, tunnel (median)"),
    layer("core.compile_us.dnat", "us", Lower, "compile_with_report wall time, dnat (median)"),
    layer("core.compile_us.suricata", "us", Lower, "compile_with_report wall time, suricata (median)"),
    layer("core.compile_us.toy_counter", "us", Lower, "compile_with_report wall time, toy_counter (median)"),
    layer("core.compile_us.leaky_bucket", "us", Lower, "compile_with_report wall time, leaky_bucket (median)"),
    layer("core.lower_us", "us", Lower, "LoweredPlan::try_lower per design (geomean of medians)"),
    layer("core.vhdl_emit_us", "us", Lower, "vhdl::emit per design (geomean of medians)"),
    layer("core.vhdl_bytes", "count", Lower, "bytes of emitted VHDL, summed over the workload's designs; exact"),
    layer("core.stages_sum", "count", Lower, "pipeline stages, summed over the workload's designs; exact"),
    layer("core.hw_insns_sum", "count", Lower, "hardware instructions after fusion/DCE, summed; exact"),
    layer("core.febs_sum", "count", Lower, "flush-evaluation blocks, summed; exact"),
    layer("core.flush_k_max", "cycles", Lower, "largest partial-flush depth K over the designs; exact"),
    layer("core.raw_window_l_max", "cycles", Lower, "largest RAW window L over the designs; exact"),
    layer("core.ilp_avg", "insns/row", Higher, "mean scheduled instructions per row, averaged over the designs; exact"),
    layer("core.proven_access_frac", "share", Higher, "packet accesses with a compile-time bounds proof / all packet accesses; exact"),
    // hwsim.sim
    layer("hwsim.attach_us", "us", Lower, "PipelineSim::with_options (lowers the plan, sizes the pools)"),
    layer("hwsim.ns_per_cycle", "ns", Lower, "host ns in enqueue+step+settle per simulated cycle"),
    layer("hwsim.ns_per_pkt", "ns", Lower, "host ns in enqueue+step+settle per completed packet"),
    layer("hwsim.enqueue_ns_per_pkt", "ns", Lower, "host ns in PipelineSim::enqueue per offered packet (one call in 8 timed)"),
    layer("hwsim.step_ns_p50", "ns", Lower, "median host ns of one PipelineSim::step (one call in 8 timed)"),
    layer("hwsim.step_ns_p99", "ns", Lower, "99th percentile host ns of one PipelineSim::step (one call in 8 timed)"),
    layer("hwsim.allocs_per_pkt", "count", Lower, "heap allocations inside enqueue+step+settle per offered packet"),
    layer("hwsim.cycles", "cycles", Lower, "simulated cycles of one unit; exact"),
    layer("hwsim.cycles_per_pkt", "cycles", Lower, "simulated cycles per completed packet; exact"),
    layer("hwsim.flushes_per_kpkt", "1/kpkt", Lower, "pipeline flush events per 1000 completed packets; exact"),
    layer("hwsim.flush_replays_per_kpkt", "1/kpkt", Lower, "packets re-executed by flushes per 1000 completed packets; exact"),
    layer("hwsim.useful_ratio", "share", Higher, "completed / (completed + flush replays); exact"),
    layer("hwsim.rx_dropped", "count", Lower, "arrivals lost to RX overflow; exact, must be 0"),
    layer("hwsim.bounds_faults", "count", Lower, "packets dropped by the implicit hardware bounds check; exact"),
    layer("hwsim.proof_violations", "count", Lower, "compile-time proofs contradicted at run time; exact, must be 0"),
    // hwsim.shared
    layer("shared.new_us", "us", Lower, "ShardedNic::new for 4 replicas"),
    layer("shared.ns_per_global_cycle", "ns", Lower, "host ns of ShardedNic::run per global (lockstep) cycle"),
    layer("shared.ns_per_replica_cycle", "ns", Lower, "host ns of ShardedNic::run per replica-cycle (global cycles x replicas)"),
    layer("shared.scaling_eff", "ratio", Higher, "host packets/s at 4 replicas / host packets/s at 1 replica on the same packets"),
    layer("shared.steer_ns_per_pkt", "ns", Lower, "CompiledSteering::steer (RSS flow hash) per packet"),
    layer("shared.conflict_rate", "share", Lower, "fabric bank conflicts / fabric accesses; exact"),
    layer("shared.stall_cycles_per_kpkt", "cycles/kpkt", Lower, "replica stall cycles levied by the fabric per 1000 packets; exact"),
    layer("shared.imbalance", "ratio", Lower, "hottest replica's arrivals / mean arrivals; exact"),
    layer("shared.fabric_accesses", "count", Lower, "accesses that crossed the fabric; exact"),
    layer("shared.dropped", "count", Lower, "frames dropped at the sharded ingress; exact, must be 0"),
    // hwsim.ctrl, hwsim.batch, runtime
    layer("ctrl.frame_codec_ns_per_op", "ns", Lower, "encode_frame + decode_frame per control op"),
    layer("batch.coalesce_ns_per_op", "ns", Lower, "coalesce_ops per input op, on trains of 64"),
    layer("runtime.reload_host_ms", "ms", Lower, "host ms of the mid-run Reactor::reload"),
    layer("runtime.telemetry_export_us", "us", Lower, "RuntimeStats::to_json of the final snapshot"),
    layer("runtime.swap_downtime_cycles", "cycles", Lower, "ingress downtime of the mid-run reload; exact"),
    layer("runtime.retries_per_op", "ratio", Lower, "retransmissions per op on the 10%-lossy channel; exact"),
    layer("runtime.dup_suppressed", "count", Lower, "duplicate completions suppressed on the lossy channel; exact"),
    layer("runtime.gave_up", "count", Lower, "ops abandoned on the lossy channel; exact, must be 0"),
    // serve
    layer("serve.submit_ns_per_op", "ns", Lower, "Reactor::submit_control per admitted op"),
    layer("serve.turn_us_p50", "us", Lower, "median host us of one 32-cycle Reactor::turn"),
    layer("serve.turn_us_p99", "us", Lower, "99th percentile host us of one Reactor::turn"),
    layer("serve.drain_ms", "ms", Lower, "host ms of the final Reactor::drain"),
    layer("serve.phase_closed_loop_s", "s", Lower, "host s of the closed-loop phase"),
    layer("serve.phase_kill_storm_s", "s", Lower, "host s of kill_storm"),
    layer("serve.phase_lossy_ops_s", "s", Lower, "host s of lossy_ops"),
    layer("serve.coalesce_ratio", "ratio", Lower, "device ops / client ops in the closed-loop phase; exact"),
    layer("serve.shed_frac", "share", Lower, "ops refused at admission / ops offered; exact"),
    layer("serve.acks_per_turn", "1/turn", Higher, "client acks per reactor turn; exact"),
    layer("serve.kill_availability", "share", Higher, "kill_storm completed / offered (request level); exact"),
    // the load generator and the tracer itself
    layer("traffic.gen_ns_per_pkt", "ns", Lower, "host ns to generate one input packet (or control op on serve_longhaul)"),
    layer("trace.overhead_frac", "share", Lower, "traced unit wall time / untraced unit wall time - 1 (medians)"),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut j = Json::pretty();
    j.begin_obj();
    j.key("command").begin_arr().str("bash").str("perf/run.sh").end_arr();
    j.key("paths").begin_arr().str("perf").end_arr();
    j.key("run_seconds").uint(RUN_SECONDS);
    j.key("workloads").begin_arr();
    for w in WORKLOADS {
        j.begin_obj().key("name").str(w.name).key("why").str(w.why).end_obj();
    }
    j.end_arr();
    j.key("end_to_end").begin_arr();
    for m in END_TO_END {
        j.begin_obj().key("name").str(m.name).key("unit").str(m.unit);
        j.key("better").str(m.better.word()).key("bound").num(m.bound).end_obj();
    }
    j.end_arr();
    j.key("per_layer").begin_arr();
    for m in PER_LAYER {
        j.begin_obj().key("name").str(m.name).key("unit").str(m.unit);
        j.key("better").str(m.better.word()).end_obj();
    }
    j.end_arr();
    j.end_obj();
    let mut doc = j.finish();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A legal metric or workload name: starts with a letter or digit, then
    /// up to 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A legal unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_validation() {
        for good in ["a", "0x", "core.compile_us.toy_counter", "A-b_c.9", &"x".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "items/kcycle", "cycles/kpkt"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn registry_meets_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(!m.what.is_empty());
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: perf/run.sh --describe > BENCHMARK.json"
        );
    }
}
