//! Fault-injection campaign: protection level vs fault rate over the
//! stateful evaluation apps.
//!
//! Each point attaches a seeded [`ehdl_hwsim::fault`] engine to the
//! pipeline and differentially checks it against the fault-free
//! sequential reference: packets no fault touched must stay
//! bit-identical, fault-affected packets are tallied, and the engine's
//! outcome log yields detection/correction coverage. A separate hang
//! sweep wedges a stage on purpose and measures availability with and
//! without the watchdog. Campaigns are bit-reproducible: the same seed
//! replays the same injection schedule, cycle for cycle, which is what
//! lets `BENCH_fault_campaign.json` be checked for equality on every run.

use ehdl_core::{Compiler, CompilerOptions, Protection};
use ehdl_hwsim::diff::{check, Device, Report, Scenario};
use ehdl_hwsim::{CtrlOptions, Divergence, FaultConfig, PipelineSim, SimOptions};
use ehdl_programs::App;
use ehdl_runtime::json::Json;

use crate::record::Fields;
use crate::{eval_packets, exemptions, setup_app};

/// Master seed of the recorded campaign.
pub const CAMPAIGN_SEED: u64 = 7;

/// Packets per swept point (well under the default RX queue depth, so
/// the whole trace can be enqueued up front).
pub const POINT_PACKETS: usize = 2_000;

/// Per-cycle injection probabilities swept for the transient/stuck-at
/// campaign.
pub fn fault_rates() -> Vec<f64> {
    vec![5e-4, 5e-3]
}

/// The swept protection levels.
pub const PROTECTIONS: [Protection; 3] =
    [Protection::None, Protection::Parity, Protection::EccWatchdog];

/// One app × protection × rate measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignRow {
    /// Application under test.
    pub app: String,
    /// Protection level compiled into the design.
    pub protect: String,
    /// Per-cycle fault injection probability.
    pub rate: f64,
    /// `true` for the hang/watchdog availability sweep rows.
    pub hang: bool,
    /// Faults injected.
    pub injected: u64,
    /// Faults that hit live state (injected − masked).
    pub effective: u64,
    /// Faults that silently corrupted state.
    pub silent: u64,
    /// Detected-but-uncorrectable faults (double upsets under ECC).
    pub uncorrectable: u64,
    /// Fraction of effective faults detected, corrected or recovered.
    pub coverage: f64,
    /// Recovery replays (counted separately from hazard flushes).
    pub fault_replays: u64,
    /// Watchdog drain/reinit events.
    pub watchdog_resets: u64,
    /// Packets sacrificed by watchdog recovery.
    pub pkts_lost: u64,
    /// Non-affected packets that never completed (wedged pipeline).
    pub missing: u64,
    /// Packets completed out of [`POINT_PACKETS`] offered.
    pub completed: u64,
    /// Fraction of cycles the pipeline was not wedged.
    pub availability: f64,
    /// Every packet no fault touched matched the reference exactly.
    pub clean: bool,
    /// Final map contents matched the reference (only expected when no
    /// fault reached map state).
    pub map_clean: bool,
    /// Map backing storage took an unrecovered upset.
    pub map_corrupted: bool,
}

/// The campaigned apps: the three stateful designs the hardening
/// machinery actually exercises end to end.
pub const APPS: [App; 3] = [App::Firewall, App::Dnat, App::Suricata];

fn protect_name(p: Protection) -> &'static str {
    match p {
        Protection::None => "none",
        Protection::Parity => "parity",
        Protection::EccWatchdog => "ecc+watchdog",
    }
}

fn design_for(app: App, protect: Protection) -> ehdl_core::PipelineDesign {
    Compiler::with_options(CompilerOptions { protect, ..Default::default() })
        .compile(&app.program())
        .expect("campaign app compiles")
}

/// Run one transient/stuck-at campaign point through the differential
/// harness. DNAT's allocated source port and allocator maps are checked
/// by the NAT invariant ([`exemptions`]) even fault-free.
pub fn run_point(app: App, protect: Protection, rate: f64) -> Report {
    let design = design_for(app, protect);
    let program = app.program();
    let packets = eval_packets(app, POINT_PACKETS);
    let cfg = FaultConfig {
        seed: CAMPAIGN_SEED ^ (rate.to_bits().rotate_left(protect as u32)),
        rate,
        // Hangs are measured by the dedicated sweep below: an unwatched
        // hang wedges the pipeline for the rest of the run, which is an
        // availability result, not an equivalence one.
        hang_fraction: 0.0,
        ..Default::default()
    };
    let (ignore_maps, allocated) = exemptions(app);
    check(&Scenario {
        setup: &|m| setup_app(app, m),
        sim: SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
        device: Device::Pipeline { ctrl: CtrlOptions::default(), faults: Some(cfg) },
        ignore_maps,
        allocated,
        ..Scenario::new(&program, &design, &packets)
    })
}

fn row_from_report(
    app: App,
    protect: Protection,
    rate: f64,
    hang: bool,
    r: &Report,
) -> FaultCampaignRow {
    let is_map = |d: &Divergence| matches!(d, Divergence::Map { .. });
    FaultCampaignRow {
        app: app.name().to_string(),
        protect: protect_name(protect).to_string(),
        rate,
        hang,
        injected: r.fault_stats.injected,
        effective: r.fault_stats.effective(),
        silent: r.fault_stats.silent,
        uncorrectable: r.fault_stats.uncorrectable,
        coverage: r.fault_stats.coverage(),
        fault_replays: r.counters.fault_replays,
        watchdog_resets: r.counters.watchdog_resets,
        pkts_lost: r.counters.pkts_lost_to_faults,
        missing: r.missing,
        completed: r.counters.completed,
        availability: r.availability,
        clean: r.divergences.iter().all(is_map),
        map_clean: !r.divergences.iter().any(is_map),
        map_corrupted: r.map_storage_corrupted,
    }
}

/// Hang sweep: inject only hung-stage faults and measure availability.
///
/// The pipeline is driven directly (not through the differential
/// harness) with a bounded settle budget, because an unwatched hang
/// never drains — that is the measurement.
pub fn run_hang_point(app: App, protect: Protection) -> FaultCampaignRow {
    const HANG_PACKETS: usize = 400;
    const SETTLE_BUDGET: u64 = 200_000;
    let design = design_for(app, protect);
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    setup_app(app, sim.maps_mut());
    // Hangs only, frequent enough that several land while traffic is in
    // flight (~450 cycles for 400 packets): at 0.02/cycle the first one
    // wedges the pipeline within ~50 cycles.
    sim.attach_faults(FaultConfig {
        seed: CAMPAIGN_SEED,
        rate: 2e-2,
        hang_fraction: 1.0,
        stuck_fraction: 0.0,
        map_bias: 0.0,
        watchdog_timeout: 128,
        ..Default::default()
    });
    for p in eval_packets(app, HANG_PACKETS) {
        sim.enqueue(p);
        sim.step();
    }
    sim.settle(SETTLE_BUDGET);
    sim.finalize_faults();
    let outs = sim.drain();
    let c = *sim.counters();
    let stats = sim.fault_engine().map(|e| *e.stats()).unwrap_or_default();
    FaultCampaignRow {
        app: app.name().to_string(),
        protect: protect_name(protect).to_string(),
        rate: 2e-2,
        hang: true,
        injected: stats.injected,
        effective: stats.effective(),
        silent: stats.silent,
        uncorrectable: stats.uncorrectable,
        coverage: stats.coverage(),
        fault_replays: c.fault_replays,
        watchdog_resets: c.watchdog_resets,
        pkts_lost: c.pkts_lost_to_faults,
        missing: (HANG_PACKETS as u64).saturating_sub(outs.len() as u64),
        completed: c.completed,
        availability: sim.availability(),
        clean: true,
        map_clean: true,
        map_corrupted: false,
    }
}

/// Run the full campaign: transient sweep plus the hang sweep.
pub fn run() -> Vec<FaultCampaignRow> {
    let mut points: Vec<(App, Protection, f64)> = Vec::new();
    for app in APPS {
        for protect in PROTECTIONS {
            for rate in fault_rates() {
                points.push((app, protect, rate));
            }
        }
    }
    let mut rows: Vec<FaultCampaignRow> = crate::par_map(&points, |&(app, protect, rate)| {
        let r = run_point(app, protect, rate);
        row_from_report(app, protect, rate, false, &r)
    });
    let hang_points: Vec<(App, Protection)> = APPS
        .iter()
        .flat_map(|&app| [Protection::None, Protection::EccWatchdog].map(|p| (app, p)))
        .collect();
    rows.extend(crate::par_map(&hang_points, |&(app, protect)| run_hang_point(app, protect)));
    rows
}

impl Fields for FaultCampaignRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("protect").str(&self.protect);
        j.key("rate").num(self.rate);
        j.key("hang").bool(self.hang);
        j.key("injected").uint(self.injected);
        j.key("effective").uint(self.effective);
        j.key("silent").uint(self.silent);
        j.key("uncorrectable").uint(self.uncorrectable);
        j.key("coverage").fixed(self.coverage, 4);
        j.key("fault_replays").uint(self.fault_replays);
        j.key("watchdog_resets").uint(self.watchdog_resets);
        j.key("pkts_lost").uint(self.pkts_lost);
        j.key("missing").uint(self.missing);
        j.key("completed").uint(self.completed);
        j.key("availability").fixed(self.availability, 4);
        j.key("clean").bool(self.clean);
        j.key("map_clean").bool(self.map_clean);
        j.key("map_corrupted").bool(self.map_corrupted);
    }
}
