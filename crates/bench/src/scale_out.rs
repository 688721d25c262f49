//! Many-pipeline scale-out sweep: aggregate throughput, tail latency and
//! bank-conflict behaviour of N pipeline replicas behind RSS flow
//! steering and the banked shared-map fabric
//! ([`ehdl_hwsim::ShardedNic`]).
//!
//! The sweep crosses replica counts {1, 2, 4, 8} with flow popularity
//! {uniform, Zipf α ∈ {0.9, 1.0, 1.2}} on the two stateful evaluation
//! apps (Firewall, DNAT). Throughput is measured in packets per
//! *simulated* cycle — the hardware-facing number a wider ingress would
//! deliver — so the metric is deterministic and CI-stable. Skewed
//! popularity concentrates flows (and their map traffic) on few
//! replicas; the recorded imbalance and conflict rate quantify how much
//! of the ideal N× headroom survives.

use crate::design_of;
use crate::record::Fields;
use ehdl_hwsim::{ShardedNic, SharedMapOptions, SimOptions};
use ehdl_programs::{dnat, App};
use ehdl_runtime::json::Json;
use ehdl_traffic::{FlowSet, Popularity, Workload};

/// Flows in the scale-out workloads (enough that uniform traffic spreads
/// evenly over 8 replicas, few enough that Zipf skew bites).
pub const SCALE_FLOWS: usize = 2048;

/// Packets per measured run.
pub const SCALE_PACKETS: usize = 8_000;

/// Replica counts swept.
pub const REPLICAS: [usize; 4] = [1, 2, 4, 8];

/// The swept workloads as `(label, popularity)`.
pub const WORKLOADS: [(&str, Popularity); 4] = [
    ("uniform", Popularity::Uniform),
    ("zipf_0.9", Popularity::Zipf { alpha: 0.9 }),
    ("zipf_1.0", Popularity::Zipf { alpha: 1.0 }),
    ("zipf_1.2", Popularity::Zipf { alpha: 1.2 }),
];

/// One measured scale-out run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutRow {
    /// Application (`firewall` or `dnat`).
    pub app: String,
    /// Workload label (see [`WORKLOADS`]).
    pub workload: String,
    /// Pipeline replicas.
    pub replicas: usize,
    /// Packets offered.
    pub packets: usize,
    /// Aggregate throughput: completed packets per simulated global cycle.
    pub pkts_per_cycle: f64,
    /// p99 packet latency in cycles.
    pub p99_latency_cycles: u64,
    /// Fabric bank-conflict rate (conflicted / fabric accesses).
    pub conflict_rate: f64,
    /// Steering imbalance (hottest replica / mean).
    pub imbalance: f64,
    /// Total stall cycles levied by the fabric across all replicas.
    pub stall_cycles: u64,
    /// Arrivals lost to RX-queue overflow (only expected under heavy skew).
    pub dropped: u64,
}

/// The maps each app shares across replicas. Flow-local state (sessions,
/// NAT bindings) stays partitioned by RSS. Statistics counters stay
/// per-replica and delta-merge at read time — the PerCpuArray discipline
/// the kernel uses for exactly this reason: a shared counter key is a
/// single bank port every packet of every replica serializes on (the
/// measured cost is in `crates/hwsim/src/shared.rs` tests and the DNAT
/// rows here). DNAT's port allocator *must* be shared: allocations have
/// to be globally unique, so its atomic fetch-add pays the fabric toll.
pub(crate) fn shared_maps(app: App) -> Vec<u32> {
    match app {
        App::Dnat => vec![dnat::PORT_ALLOC_MAP],
        _ => Vec::new(),
    }
}

/// Run one `(app, workload, replicas)` point of the sweep.
pub fn measure(app: App, workload: &str, pop: Popularity, replicas: usize) -> ScaleOutRow {
    let design = design_of(app);
    let mut nic = ShardedNic::new(
        &design,
        replicas,
        7,
        SimOptions::default(),
        SharedMapOptions { shared_maps: shared_maps(app), ..Default::default() },
    );
    let flows = FlowSet::udp(SCALE_FLOWS, 42);
    let mut wl = Workload::new(flows, pop, 64, 43);
    let report = nic.run(wl.packets(SCALE_PACKETS));
    ScaleOutRow {
        app: app.name().to_string(),
        workload: workload.to_string(),
        replicas,
        packets: SCALE_PACKETS,
        pkts_per_cycle: report.aggregate_pkts_per_cycle(),
        p99_latency_cycles: report.p99_latency_cycles(),
        conflict_rate: report.fabric.conflict_rate(),
        imbalance: report.imbalance(),
        stall_cycles: report.fabric.stall_cycles.iter().sum(),
        dropped: report.dropped.iter().sum(),
    }
}

/// The full sweep: {Firewall, DNAT} × workloads × replica counts.
pub fn measure_all() -> Vec<ScaleOutRow> {
    let mut out = Vec::new();
    for app in [App::Firewall, App::Dnat] {
        for (label, pop) in WORKLOADS {
            for replicas in REPLICAS {
                out.push(measure(app, label, pop, replicas));
            }
        }
    }
    out
}

impl Fields for ScaleOutRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("workload").str(&self.workload);
        j.key("replicas").uint(self.replicas as u64);
        j.key("packets").uint(self.packets as u64);
        j.key("pkts_per_cycle").fixed(self.pkts_per_cycle, 6);
        j.key("p99_latency_cycles").uint(self.p99_latency_cycles);
        j.key("conflict_rate").fixed(self.conflict_rate, 6);
        j.key("imbalance").fixed(self.imbalance, 4);
        j.key("stall_cycles").uint(self.stall_cycles);
        j.key("dropped").uint(self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_firewall_scales_past_the_gate() {
        let one = measure(App::Firewall, "uniform", Popularity::Uniform, 1);
        let four = measure(App::Firewall, "uniform", Popularity::Uniform, 4);
        assert_eq!(one.dropped, 0);
        assert_eq!(four.dropped, 0);
        let speedup = four.pkts_per_cycle / one.pkts_per_cycle;
        assert!(
            speedup >= 2.5,
            "4-replica uniform firewall speedup {speedup:.2}x below the 2.5x gate \
             ({:.4} -> {:.4} pkts/cycle)",
            one.pkts_per_cycle,
            four.pkts_per_cycle,
        );
    }

    #[test]
    fn skew_costs_throughput_and_shows_in_imbalance() {
        let uniform = measure(App::Firewall, "uniform", Popularity::Uniform, 4);
        let skewed = measure(App::Firewall, "zipf_1.2", Popularity::Zipf { alpha: 1.2 }, 4);
        assert!(skewed.imbalance > uniform.imbalance, "Zipf must skew steering");
        assert!(
            skewed.pkts_per_cycle < uniform.pkts_per_cycle,
            "a hot replica must bound aggregate throughput"
        );
    }

    #[test]
    fn dnat_shared_allocator_serializes_without_drops_on_uniform() {
        let r = measure(App::Dnat, "uniform", Popularity::Uniform, 4);
        assert_eq!(r.dropped, 0);
        assert!(r.pkts_per_cycle > 0.0);
    }
}
