//! Chaos campaign: replica kill/hang/brown-out storms through the
//! sharded fail-over machinery ([`ehdl_hwsim::ShardedNic`]) crossed with
//! control-channel loss through the reliable host protocol
//! ([`ehdl_runtime::ReliableCtrl`]).
//!
//! The fault side sweeps {Firewall, DNAT} × {single kill, single hang,
//! brown-out storm} on 4 replicas and records availability, detection
//! latency, and the full loss accounting (drained vs discarded vs
//! silently lost — the last must be zero by construction). The control
//! side replays an identical op schedule over a lossless and a 10%-lossy
//! channel and records retry counts, duplicate suppression, p99 op
//! latency, and whether the retried sequence stayed reference-identical.
//!
//! Everything is simulated-deterministic, so `BENCH_chaos.json` is
//! checked for equality, not statistically.

use crate::design_of;
use crate::record::Fields;
use ehdl_core::shardcheck::MergePolicy;
use ehdl_core::Compiler;
use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::maps::{MapDef, MapError, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::MemSize;
use ehdl_ebpf::Program;
use ehdl_hwsim::{
    CtrlLossConfig, CtrlOptions, HostOp, HostOpResult, ReplicaFault, ReplicaFaultConfig,
    ReplicaFaultKind, ShardedNic, SharedMapOptions, SimOptions,
};
use ehdl_programs::{dnat, simple_firewall, App};
use ehdl_runtime::json::Json;
use ehdl_runtime::{Runtime, RuntimeOptions};
use ehdl_traffic::{FlowSet, Popularity, Workload};

/// Replicas in every fault scenario.
pub const CHAOS_REPLICAS: usize = 4;

/// Flows in the chaos workloads.
pub const CHAOS_FLOWS: usize = 1024;

/// Packets per measured fault run.
pub const CHAOS_PACKETS: usize = 6_000;

/// Watchdog detection budget used throughout (cycles).
pub const WATCHDOG_BUDGET: u64 = 256;

/// Control-channel loss rates swept (drop = dup = corrupt = delay).
pub const LOSS_RATES: [f64; 2] = [0.0, 0.10];

/// The swept failure scenarios.
pub const SCENARIOS: [&str; 3] = ["kill1", "hang1", "brownout_storm"];

/// One measured fault-campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Application (`firewall` or `dnat`).
    pub app: String,
    /// Scenario label (see [`SCENARIOS`]).
    pub scenario: String,
    /// Pipeline replicas.
    pub replicas: usize,
    /// Packets offered.
    pub packets: usize,
    /// Failures injected / detected by the watchdog / masked brown-outs.
    pub injected: u64,
    /// Watchdog detections.
    pub detected: u64,
    /// Brown-outs absorbed below the detection budget.
    pub masked: u64,
    /// Worst detection latency in cycles.
    pub detection_latency_max: u64,
    /// Mean detection latency in cycles.
    pub mean_detection_latency: f64,
    /// Packets completed by surviving replicas.
    pub completed: u64,
    /// Packets drained (punted to the host) from dead ingress FIFOs.
    pub drained: u64,
    /// Packets discarded mid-pipeline with a dead clock domain.
    pub discarded: u64,
    /// Frames rejected at ingress (oversized only; none expected here).
    pub dropped: u64,
    /// drained + discarded: every lost packet is accounted, never silent.
    pub lost: u64,
    /// Serving fraction of replica-cycles over the run.
    pub availability: f64,
    /// Aggregate throughput under failure, packets per global cycle.
    pub pkts_per_cycle: f64,
}

/// One measured control-loss run.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlChaosRow {
    /// Per-direction drop/dup/corrupt/delay probability.
    pub loss_rate: f64,
    /// Host ops submitted.
    pub ops: u64,
    /// Ops that resolved with a completion.
    pub completed_ops: u64,
    /// Frame retransmissions.
    pub retries: u64,
    /// Duplicate completions suppressed.
    pub dup_suppressed: u64,
    /// Ops abandoned after exhausting attempts (must stay 0).
    pub gave_up: u64,
    /// p99 submit-to-resolve latency in cycles.
    pub p99_op_latency_cycles: u64,
    /// The completion sequence matched the lossless reference bit-exactly.
    pub reference_identical: bool,
}

/// The failure schedule of one scenario, against [`CHAOS_REPLICAS`]
/// replicas. Cycles are global `ShardedNic` cycles; the ~6k-packet runs
/// span well past every event.
fn schedule(scenario: &str) -> Vec<ReplicaFault> {
    match scenario {
        "kill1" => vec![ReplicaFault { at: 300, replica: 1, kind: ReplicaFaultKind::Kill }],
        "hang1" => vec![ReplicaFault { at: 300, replica: 2, kind: ReplicaFaultKind::Hang }],
        "brownout_storm" => vec![
            // Short brown-outs (below the watchdog budget) are masked;
            // the long one fails over and later returns to service.
            ReplicaFault {
                at: 200,
                replica: 1,
                kind: ReplicaFaultKind::BrownOut { duration: 100 },
            },
            ReplicaFault {
                at: 600,
                replica: 2,
                kind: ReplicaFaultKind::BrownOut { duration: 1200 },
            },
            ReplicaFault {
                at: 1000,
                replica: 3,
                kind: ReplicaFaultKind::BrownOut { duration: 60 },
            },
        ],
        other => panic!("unknown chaos scenario {other}"),
    }
}

/// Shared maps and reconcile strategies per app: globally-unique state
/// (DNAT's port allocator) lives in the shared fabric; flow tables
/// reconcile by union (idempotent across repeated failures); per-replica
/// stats counters delta-merge.
pub(crate) fn fabric_plan(app: App) -> (Vec<u32>, Vec<(u32, MergePolicy)>) {
    match app {
        App::Dnat => (
            vec![dnat::PORT_ALLOC_MAP],
            vec![(dnat::CONN_MAP, MergePolicy::Union), (dnat::STATS_MAP, MergePolicy::SumDelta)],
        ),
        _ => (
            Vec::new(),
            vec![
                (simple_firewall::SESSIONS_MAP, MergePolicy::Union),
                (simple_firewall::STATS_MAP, MergePolicy::SumDelta),
            ],
        ),
    }
}

/// Run one `(app, scenario)` point of the fault campaign.
pub fn measure_faults(app: App, scenario: &str) -> ChaosRow {
    let design = design_of(app);
    let (shared_maps, merge) = fabric_plan(app);
    let mut nic = ShardedNic::new(
        &design,
        CHAOS_REPLICAS,
        7,
        SimOptions::default(),
        SharedMapOptions { shared_maps, ..Default::default() },
    );
    nic.attach_replica_faults(
        ReplicaFaultConfig {
            schedule: schedule(scenario),
            watchdog_budget: WATCHDOG_BUDGET,
            ..Default::default()
        },
        merge,
    );
    let flows = FlowSet::udp(CHAOS_FLOWS, 42);
    let mut wl = Workload::new(flows, Popularity::Uniform, 64, 43);
    let report = nic.run(wl.packets(CHAOS_PACKETS));
    let f = report.failover;
    let completed: u64 = report.completed.iter().sum();
    let dropped: u64 = report.dropped.iter().sum();
    let drained = report.drained.len() as u64;
    let discarded = report.discarded.len() as u64;
    ChaosRow {
        app: app.name().to_string(),
        scenario: scenario.to_string(),
        replicas: CHAOS_REPLICAS,
        packets: CHAOS_PACKETS,
        injected: f.injected,
        detected: f.detected,
        masked: f.masked_brownouts,
        detection_latency_max: f.detection_latency_max,
        mean_detection_latency: f.mean_detection_latency(),
        completed,
        drained,
        discarded,
        dropped,
        lost: drained + discarded,
        availability: f.availability(CHAOS_REPLICAS, report.cycles),
        pkts_per_cycle: report.aggregate_pkts_per_cycle(),
    }
}

/// Pass-through program with one host-facing hash map — the op-schedule
/// target for the control-loss campaign.
fn host_map_program() -> Program {
    let mut a = Asm::new();
    a.load(MemSize::W, 7, 1, 0);
    a.mov64_imm(0, 3);
    a.exit();
    Program::new(
        "chaosctrl",
        a.into_insns(),
        vec![MapDef::new(0, "cells", MapKind::Hash, 8, 8, 64)],
    )
}

/// A deterministic mixed op schedule (updates, lookups, deletes) over a
/// 16-key working set.
fn op_schedule() -> Vec<HostOp> {
    let mut ops = Vec::new();
    for i in 0u64..100 {
        let k = (i % 16).to_le_bytes().to_vec();
        ops.push(HostOp::Update {
            map: 0,
            key: k.clone(),
            value: (i * 7).to_le_bytes().to_vec(),
            flags: UpdateFlags::Any,
        });
        if i % 3 == 0 {
            ops.push(HostOp::Lookup { map: 0, key: k });
        }
        if i % 5 == 4 {
            ops.push(HostOp::Delete { map: 0, key: ((i + 1) % 16).to_le_bytes().to_vec() });
        }
    }
    ops
}

/// Replay the op schedule at `loss_rate`, returning the completion
/// sequence and the finished runtime.
fn replay(loss_rate: f64) -> (Vec<Result<HostOpResult, MapError>>, Runtime) {
    let design = Compiler::new().compile(&host_map_program()).expect("program compiles");
    let mut rt = Runtime::new(
        &design,
        RuntimeOptions {
            sim: SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
            ctrl: CtrlOptions { latency_cycles: 4, queue_depth: 8 },
            loss: CtrlLossConfig::uniform(0xC4A0, loss_rate),
        },
    );
    for op in op_schedule() {
        rt.submit(op).expect("well-formed op");
        for _ in 0..8 {
            rt.step();
        }
    }
    rt.settle();
    let results = rt.completions().into_iter().map(|c| c.result).collect();
    (results, rt)
}

/// Run the control-loss campaign: every rate in [`LOSS_RATES`] against
/// the rate-0 reference.
pub fn measure_ctrl() -> Vec<CtrlChaosRow> {
    let (reference, _) = replay(0.0);
    LOSS_RATES
        .iter()
        .map(|&rate| {
            let (results, rt) = replay(rate);
            match rt.reliable_stats() {
                Some(s) => {
                    let snap = s.snapshot();
                    CtrlChaosRow {
                        loss_rate: rate,
                        ops: snap.ops,
                        completed_ops: snap.completed,
                        retries: snap.retries,
                        dup_suppressed: snap.dup_completions_suppressed,
                        gave_up: snap.gave_up,
                        p99_op_latency_cycles: snap.p99_latency_cycles,
                        reference_identical: results == reference,
                    }
                }
                // Lossless channel: no reliable layer; latency comes from
                // the raw completion stream.
                None => CtrlChaosRow {
                    loss_rate: rate,
                    ops: results.len() as u64,
                    completed_ops: results.len() as u64,
                    retries: 0,
                    dup_suppressed: 0,
                    gave_up: 0,
                    p99_op_latency_cycles: 0,
                    reference_identical: results == reference,
                },
            }
        })
        .collect()
}

/// The full fault campaign: {Firewall, DNAT} × scenarios.
pub fn measure_all_faults() -> Vec<ChaosRow> {
    let mut out = Vec::new();
    for app in [App::Firewall, App::Dnat] {
        for scenario in SCENARIOS {
            out.push(measure_faults(app, scenario));
        }
    }
    out
}

impl Fields for ChaosRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("scenario").str(&self.scenario);
        j.key("replicas").uint(self.replicas as u64);
        j.key("packets").uint(self.packets as u64);
        j.key("injected").uint(self.injected);
        j.key("detected").uint(self.detected);
        j.key("masked").uint(self.masked);
        j.key("detection_latency_max").uint(self.detection_latency_max);
        j.key("mean_detection_latency").fixed(self.mean_detection_latency, 2);
        j.key("completed").uint(self.completed);
        j.key("drained").uint(self.drained);
        j.key("discarded").uint(self.discarded);
        j.key("dropped").uint(self.dropped);
        j.key("lost").uint(self.lost);
        j.key("availability").fixed(self.availability, 6);
        j.key("pkts_per_cycle").fixed(self.pkts_per_cycle, 6);
    }
}

impl Fields for CtrlChaosRow {
    fn fields(&self, j: &mut Json) {
        j.key("loss_rate").fixed(self.loss_rate, 2);
        j.key("ops").uint(self.ops);
        j.key("completed_ops").uint(self.completed_ops);
        j.key("retries").uint(self.retries);
        j.key("dup_suppressed").uint(self.dup_suppressed);
        j.key("gave_up").uint(self.gave_up);
        j.key("p99_op_latency_cycles").uint(self.p99_op_latency_cycles);
        j.key("reference_identical").bool(self.reference_identical);
    }
}
