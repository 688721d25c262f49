//! Flush-cost evaluation (App. A.1): hazard-window minimization +
//! partial flushes vs the full-flush baseline.
//!
//! The workload is *new-flow churn*: Zipf-sampled flows each send a short
//! back-to-back burst against cold tables, so every first burst races the
//! create-path map write inside the RAW window — the hazard Table 3 keys
//! on (DNAT's miss path binds the flow with `bpf_map_update_elem` well
//! after the connection-table lookup). Steady-state traffic barely
//! flushes because the established path uses atomics, which execute in
//! place in the map block and need no FEB.
//!
//! Each swept point runs the same packet trace through the pre-PR
//! baseline (`hazard_opt` off, full flushes) and the optimized design
//! (`hazard_opt` on, partial flushes), records sustained pkts/cycle and
//! the flush counters, and cross-checks both against
//! [`analytical::throughput`] with the measured flush probability.

use crate::record::Fields;
use crate::{exemptions, setup_app};
use ehdl_core::{analytical, Compiler, CompilerOptions, PipelineDesign};
use ehdl_hwsim::diff::{check, Scenario};
use ehdl_hwsim::{PipelineSim, SimOptions};
use ehdl_programs::App;
use ehdl_runtime::json::Json;
use ehdl_traffic::{FlowSet, Popularity, Workload};

/// Back-to-back packets per flow draw: the smallest burst that races the
/// create-path write (packet 2 reads the connection table before packet
/// 1's binding lands).
pub const CHURN_BURST: usize = 2;

/// Packets per swept point.
pub const POINT_PACKETS: usize = 8_000;

/// One app × flow-count × α measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushOptRow {
    /// Application under test.
    pub app: String,
    /// Flow population size.
    pub flows: usize,
    /// Zipf skew over the flow draws.
    pub alpha: f64,
    /// Sustained pkts/cycle, full flushes + no hazard motion.
    pub base_ppc: f64,
    /// Sustained pkts/cycle, hazard_opt + partial flushes.
    pub opt_ppc: f64,
    /// Throughput gain of the optimized design (percent).
    pub gain_pct: f64,
    /// Flush events in the baseline run.
    pub base_flushes: u64,
    /// Flush events in the optimized run.
    pub opt_flushes: u64,
    /// Packets replayed by baseline flushes.
    pub base_replays: u64,
    /// Packets replayed by optimized flushes.
    pub opt_replays: u64,
    /// Worst-case `K` of the baseline design (full flush).
    pub k_full: usize,
    /// Worst-case `K` of the optimized design (partial flush).
    pub k_partial: usize,
    /// `analytical::throughput` at the measured baseline flush rate.
    pub base_model: f64,
    /// `analytical::throughput` at the measured optimized flush rate.
    pub opt_model: f64,
    /// |measured − model| / model for the baseline run (percent).
    pub base_dev_pct: f64,
    /// |measured − model| / model for the optimized run (percent).
    pub opt_dev_pct: f64,
    /// Both designs produced reference-identical outcomes and maps.
    pub identical: bool,
}

/// The swept (flow count, Zipf α) grid.
pub fn sweep_points() -> Vec<(usize, f64)> {
    vec![(1_000, 1.0), (10_000, 0.5), (10_000, 1.0), (10_000, 1.2)]
}

/// Build the new-flow-churn trace: `n / CHURN_BURST` Zipf flow draws,
/// each emitting `CHURN_BURST` back-to-back packets.
pub fn churn_packets(app: App, flows: usize, alpha: f64, n: usize) -> Vec<Vec<u8>> {
    let fs = match app {
        App::Suricata => FlowSet::tcp(flows, 42),
        _ => FlowSet::udp(flows, 42),
    };
    let mut wl = Workload::new(fs, Popularity::Zipf { alpha }, 64, 43);
    let draws = wl.packets(n / CHURN_BURST);
    let mut out = Vec::with_capacity(n);
    for p in draws {
        for _ in 0..CHURN_BURST {
            out.push(p.clone());
        }
    }
    out
}

fn sim_options(n: usize, partial: bool) -> SimOptions {
    SimOptions {
        freeze_time_ns: Some(1000),
        rx_queue_depth: n,
        partial_flush: partial,
        ..Default::default()
    }
}

/// Sustained pkts/cycle and flush counters for one design over a trace.
fn run_config(
    app: App,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    partial: bool,
) -> (f64, u64, u64) {
    let mut sim = PipelineSim::with_options(design, sim_options(packets.len(), partial));
    setup_app(app, sim.maps_mut());
    for p in packets {
        sim.enqueue(p.clone());
    }
    sim.settle(100_000_000);
    let c = sim.counters();
    assert_eq!(c.completed, packets.len() as u64, "{}: all packets complete", app.name());
    (c.completed as f64 / sim.cycle() as f64, c.flushes, c.flush_replays)
}

/// Bit-identical check against the `ebpf::vm` reference, DNAT's allocated
/// source port and allocator maps checked by the NAT invariant
/// ([`exemptions`]).
pub fn outcomes_identical(
    app: App,
    program: &ehdl_ebpf::Program,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    partial: bool,
) -> bool {
    let (ignore_maps, allocated) = exemptions(app);
    check(&Scenario {
        setup: &|m| setup_app(app, m),
        sim: sim_options(packets.len(), partial),
        ignore_maps,
        allocated,
        ..Scenario::new(program, design, packets)
    })
    .divergences
    .is_empty()
}

/// Run the full sweep: every app × grid point, baseline vs optimized.
pub fn run() -> Vec<FlushOptRow> {
    let apps = [App::Firewall, App::Dnat, App::Suricata];
    let mut rows = Vec::new();
    for app in apps {
        let program = app.program();
        let base_design =
            Compiler::with_options(CompilerOptions { hazard_opt: false, ..Default::default() })
                .compile(&program)
                .expect("baseline design compiles");
        let opt_design = Compiler::new().compile(&program).expect("optimized design compiles");
        let k_full = base_design.hazards.max_flush_depth().unwrap_or(0);
        let k_partial = opt_design.hazards.max_partial_flush_depth().unwrap_or(0);
        for (flows, alpha) in sweep_points() {
            let packets = churn_packets(app, flows, alpha, POINT_PACKETS);
            let (base_ppc, base_flushes, base_replays) =
                run_config(app, &base_design, &packets, false);
            let (opt_ppc, opt_flushes, opt_replays) = run_config(app, &opt_design, &packets, true);
            let completed = packets.len() as f64;
            let base_pf = base_flushes as f64 / completed;
            let opt_pf = opt_flushes as f64 / completed;
            let base_model = analytical::throughput(1.0, k_full, base_pf);
            let opt_model = analytical::throughput(1.0, k_partial, opt_pf);
            let identical = outcomes_identical(app, &program, &base_design, &packets, false)
                && outcomes_identical(app, &program, &opt_design, &packets, true);
            rows.push(FlushOptRow {
                app: app.name().to_string(),
                flows,
                alpha,
                base_ppc,
                opt_ppc,
                gain_pct: (opt_ppc / base_ppc - 1.0) * 100.0,
                base_flushes,
                opt_flushes,
                base_replays,
                opt_replays,
                k_full,
                k_partial,
                base_model,
                opt_model,
                base_dev_pct: (base_ppc - base_model).abs() / base_model * 100.0,
                opt_dev_pct: (opt_ppc - opt_model).abs() / opt_model * 100.0,
                identical,
            });
        }
    }
    rows
}

impl Fields for FlushOptRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("flows").uint(self.flows as u64);
        j.key("alpha").num(self.alpha);
        j.key("base_ppc").fixed(self.base_ppc, 4);
        j.key("opt_ppc").fixed(self.opt_ppc, 4);
        j.key("gain_pct").fixed(self.gain_pct, 1);
        j.key("base_flushes").uint(self.base_flushes);
        j.key("opt_flushes").uint(self.opt_flushes);
        j.key("base_replays").uint(self.base_replays);
        j.key("opt_replays").uint(self.opt_replays);
        j.key("k_full").uint(self.k_full as u64);
        j.key("k_partial").uint(self.k_partial as u64);
        j.key("base_model").fixed(self.base_model, 4);
        j.key("opt_model").fixed(self.opt_model, 4);
        j.key("base_dev_pct").fixed(self.base_dev_pct, 1);
        j.key("opt_dev_pct").fixed(self.opt_dev_pct, 1);
        j.key("identical").bool(self.identical);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn churn_trace_is_bursty() {
        let pkts = churn_packets(App::Dnat, 100, 1.0, 64);
        assert_eq!(pkts.len(), 64);
        for pair in pkts.chunks(CHURN_BURST) {
            assert!(pair.iter().all(|p| p == &pair[0]), "bursts are back-to-back duplicates");
        }
    }

    #[test]
    fn dnat_point_gains_and_matches_model() {
        // A reduced version of the headline acceptance point (DNAT,
        // Zipf α = 1): partial flushes must beat full flushes and both
        // must land on the analytical model.
        let app = App::Dnat;
        let program = app.program();
        let base =
            Compiler::with_options(CompilerOptions { hazard_opt: false, ..Default::default() })
                .compile(&program)
                .unwrap();
        let opt = Compiler::new().compile(&program).unwrap();
        let packets = churn_packets(app, 500, 1.0, 2_000);
        let (base_ppc, base_flushes, _) = run_config(app, &base, &packets, false);
        let (opt_ppc, opt_flushes, _) = run_config(app, &opt, &packets, true);
        assert!(base_flushes > 0, "churn trace must flush");
        assert!(opt_flushes > 0, "churn trace must flush");
        assert!(opt_ppc > base_ppc * 1.2, "partial flushes gain ≥20%: {opt_ppc} vs {base_ppc}");
        let k_full = base.hazards.max_flush_depth().unwrap();
        let k_partial = opt.hazards.max_partial_flush_depth().unwrap();
        assert!(k_partial < k_full);
        let n = packets.len() as f64;
        let bm = analytical::throughput(1.0, k_full, base_flushes as f64 / n);
        let om = analytical::throughput(1.0, k_partial, opt_flushes as f64 / n);
        assert!((base_ppc - bm).abs() / bm < 0.10, "base within 10%: {base_ppc} vs {bm}");
        assert!((opt_ppc - om).abs() / om < 0.10, "opt within 10%: {opt_ppc} vs {om}");
    }
}
