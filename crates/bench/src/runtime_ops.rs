//! Control-plane measurement: host-op throughput and latency under
//! increasing packet-interleave rates, idle channel latency, and
//! drain-and-swap downtime, all in simulated cycles. Recorded as
//! `BENCH_runtime.json`. (What telemetry export costs on the host is
//! wall-clock, so it is perf's `runtime.telemetry_export_us`, not here.)

use crate::record::Fields;
use crate::{eval_packets, setup_app};
use ehdl_core::Compiler;
use ehdl_hwsim::sim::CLOCK_NS;
use ehdl_hwsim::CtrlOptions;
use ehdl_programs::{simple_firewall, App};
use ehdl_runtime::json::Json;
use ehdl_runtime::{Runtime, RuntimeOptions};
use ehdl_traffic::{interleave_ops, ControlOpGen, FlowSet, OpMix, Popularity};

/// Host-op behaviour at one packet-interleave rate.
#[derive(Debug, Clone, PartialEq)]
pub struct OpScenario {
    /// Host ops per packet in the arrival schedule.
    pub op_rate: f64,
    /// Packets in the schedule.
    pub packets: usize,
    /// Host ops applied.
    pub ops: u64,
    /// Mean submit→apply latency in pipeline cycles.
    pub mean_latency_cycles: f64,
    /// Worst-case submit→apply latency in pipeline cycles.
    pub max_latency_cycles: u64,
    /// Host writes that flushed in-flight readers.
    pub host_op_flushes: u64,
    /// Applied ops per second of *simulated* time.
    pub ops_per_sec_sim: f64,
}

/// One full control-plane measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOpsReport {
    /// Op throughput/latency at increasing interleave rates.
    pub scenarios: Vec<OpScenario>,
    /// Mean op latency on an idle pipeline (pure channel latency).
    pub idle_mean_latency_cycles: f64,
    /// Drain phase of the measured reload, in cycles.
    pub swap_drain_cycles: u64,
    /// Modeled reconfiguration phase, in cycles.
    pub swap_config_cycles: u64,
    /// Total ingress downtime of the reload, in cycles.
    pub swap_downtime_cycles: u64,
    /// The same downtime in nanoseconds at the 250 MHz clock.
    pub swap_downtime_ns: f64,
    /// Map entries carried across the swap.
    pub swap_migrated_entries: u64,
}

fn firewall_runtime() -> Runtime {
    let design = Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles");
    let mut rt = Runtime::new(
        &design,
        RuntimeOptions {
            ctrl: CtrlOptions { latency_cycles: 64, queue_depth: 4096 },
            ..Default::default()
        },
    );
    setup_app(App::Firewall, rt.maps_mut());
    rt
}

fn run_scenario(op_rate: f64, packets: usize) -> OpScenario {
    let flows = FlowSet::udp(256, 91);
    let keys = flows.flows().iter().map(|f| f.to_key().to_vec()).collect();
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        keys,
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.5 },
        92,
    );
    let stream = eval_packets(App::Firewall, packets);
    let schedule = interleave_ops(stream, &mut gen, op_rate, 93);
    let mut rt = firewall_runtime();
    let report = rt.run_schedule(&schedule);
    assert!(report.ops_rejected.is_empty(), "queue sized for the schedule");
    let stats = rt.stats();
    let applied = stats.ctrl.completed + stats.ctrl.failed;
    let sim_secs = (stats.cycle as f64 * CLOCK_NS / 1e9).max(1e-12);
    OpScenario {
        op_rate,
        packets,
        ops: applied,
        mean_latency_cycles: stats.ctrl.mean_latency_cycles(),
        max_latency_cycles: stats.ctrl.latency_cycles_max,
        host_op_flushes: stats.counters.host_op_flushes,
        ops_per_sec_sim: applied as f64 / sim_secs,
    }
}

fn measure_idle_latency() -> f64 {
    let mut rt = firewall_runtime();
    let flows = FlowSet::udp(64, 94);
    for f in flows.flows() {
        rt.submit(ehdl_hwsim::HostOp::Lookup {
            map: simple_firewall::SESSIONS_MAP,
            key: f.to_key().to_vec(),
        })
        .expect("idle channel accepts");
    }
    rt.settle();
    rt.stats().ctrl.mean_latency_cycles()
}

fn measure_swap(packets: usize) -> (u64, u64, u64, f64, u64) {
    let mut rt = firewall_runtime();
    // Leave the tail of the workload in flight so the drain is real.
    for p in eval_packets(App::Firewall, packets) {
        while !rt.enqueue(p.clone()) {
            rt.step();
        }
    }
    let design = rt.design().clone();
    let swap = rt.reload(&design);
    (
        swap.drain_cycles,
        swap.config_cycles,
        swap.downtime_cycles,
        swap.downtime_ns,
        swap.migrated_entries,
    )
}

/// Measure everything: op scenarios on `op_packets`-packet schedules,
/// idle channel latency, and a swap on the same workload.
pub fn measure(op_packets: usize) -> RuntimeOpsReport {
    let scenarios =
        [0.02, 0.1, 0.5].iter().map(|&r| run_scenario(r, op_packets)).collect::<Vec<_>>();
    let idle_mean_latency_cycles = measure_idle_latency();
    let (swap_drain_cycles, swap_config_cycles, swap_downtime_cycles, swap_downtime_ns, migrated) =
        measure_swap(op_packets);
    RuntimeOpsReport {
        scenarios,
        idle_mean_latency_cycles,
        swap_drain_cycles,
        swap_config_cycles,
        swap_downtime_cycles,
        swap_downtime_ns,
        swap_migrated_entries: migrated,
    }
}

/// Mean op latency of the busiest recorded scenario.
fn busy(report: &RuntimeOpsReport) -> f64 {
    report.scenarios.last().map_or(0.0, |s| s.mean_latency_cycles)
}

impl Fields for OpScenario {
    fn fields(&self, j: &mut Json) {
        j.key("op_rate").fixed(self.op_rate, 2);
        j.key("packets").uint(self.packets as u64);
        j.key("ops").uint(self.ops);
        j.key("mean_latency_cycles").fixed(self.mean_latency_cycles, 2);
        j.key("max_latency_cycles").uint(self.max_latency_cycles);
        j.key("host_op_flushes").uint(self.host_op_flushes);
        j.key("ops_per_sec_sim").fixed(self.ops_per_sec_sim, 1);
    }
}

/// Everything but the scenarios (they are rows of their own).
impl Fields for RuntimeOpsReport {
    fn fields(&self, j: &mut Json) {
        j.key("idle_mean_latency_cycles").fixed(self.idle_mean_latency_cycles, 2);
        j.key("busy_mean_latency_cycles").fixed(busy(self), 2);
        j.key("swap_drain_cycles").uint(self.swap_drain_cycles);
        j.key("swap_config_cycles").uint(self.swap_config_cycles);
        j.key("swap_downtime_cycles").uint(self.swap_downtime_cycles);
        j.key("swap_downtime_ns").fixed(self.swap_downtime_ns, 1);
        j.key("swap_migrated_entries").uint(self.swap_migrated_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_is_internally_consistent() {
        let r = measure(512);
        assert_eq!(r.scenarios.len(), 3);
        for sc in &r.scenarios {
            assert!(sc.ops > 0, "rate {} produced ops", sc.op_rate);
            assert!(sc.mean_latency_cycles >= 64.0, "latency at least the channel's");
            assert!(sc.max_latency_cycles as f64 >= sc.mean_latency_cycles);
        }
        // More interleaved ops per packet → more applied ops.
        assert!(r.scenarios[2].ops > r.scenarios[0].ops);
        assert!(r.idle_mean_latency_cycles >= 64.0);
        assert!(r.swap_downtime_cycles >= r.swap_config_cycles);
        assert_eq!(r.swap_downtime_cycles, r.swap_drain_cycles + r.swap_config_cycles);
    }
}
