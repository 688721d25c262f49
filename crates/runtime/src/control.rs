//! The [`Runtime`]: one loaded pipeline plus its host control channel,
//! and the drain-and-swap reload path.

use crate::retry::ReliableCtrl;
use crate::telemetry::{MapTelemetry, RuntimeStats, StageTelemetry};
use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::{MapDef, MapStore, UpdateFlags};
use ehdl_hwsim::sim::CLOCK_NS;
use ehdl_hwsim::{
    CtrlError, CtrlLossConfig, CtrlOptions, HostCompletion, HostOp, PipelineSim, SimOptions,
    SimOutcome,
};
use ehdl_traffic::{ControlOp, ControlOpKind, ScheduleItem};

/// The new-design map that receives `old`'s state across a swap: the
/// keyspec-compatible (same name + shape) map, preferring an id match
/// when several qualify so two same-shaped maps cannot cross-bind.
fn migration_target<'a>(old: &MapDef, new_maps: &'a [MapDef]) -> Option<&'a MapDef> {
    let mut compat = new_maps.iter().filter(|n| old.compatible_with(n));
    let first = compat.next()?;
    if first.id == old.id {
        return Some(first);
    }
    Some(compat.find(|n| n.id == old.id).unwrap_or(first))
}

/// Fixed partial-reconfiguration overhead modeled for a program swap, in
/// pipeline cycles (bitstream load setup, clock-domain handshakes).
pub const RECONFIG_BASE_CYCLES: u64 = 2048;

/// Additional modeled reconfiguration cost per pipeline stage, in cycles.
pub const RECONFIG_CYCLES_PER_STAGE: u64 = 256;

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Simulator options for the wrapped pipeline.
    pub sim: SimOptions,
    /// Control-channel options (latency, queue depth).
    pub ctrl: CtrlOptions,
    /// Seeded loss model for the control channel. When lossy, the
    /// runtime routes submissions through the reliable (sequence-
    /// numbered, retried, deduplicated) frame protocol automatically.
    pub loss: CtrlLossConfig,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            sim: SimOptions::default(),
            ctrl: CtrlOptions::default(),
            loss: CtrlLossConfig::lossless(),
        }
    }
}

/// Outcome of one [`Runtime::run_schedule`] drive.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Packets offered to the pipeline.
    pub packets: u64,
    /// Packets lost to RX overflow during the drive.
    pub lost: u64,
    /// Host ops accepted by the channel.
    pub ops_submitted: u64,
    /// Host ops the channel refused, with the submission error.
    pub ops_rejected: Vec<CtrlError>,
    /// Completed packet outcomes, in arrival order.
    pub outcomes: Vec<SimOutcome>,
    /// Retired host ops, in submission order.
    pub completions: Vec<HostCompletion>,
}

/// Measured result of a drain-and-swap program reload.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReport {
    /// Cycle at which ingress was quiesced (the old pipeline's clock).
    pub quiesce_cycle: u64,
    /// Cycles spent draining in-flight packets and pending host ops.
    pub drain_cycles: u64,
    /// Modeled reconfiguration cost for the new design.
    pub config_cycles: u64,
    /// Total ingress downtime: drain + reconfiguration.
    pub downtime_cycles: u64,
    /// Downtime in nanoseconds at the 250 MHz pipeline clock.
    pub downtime_ns: f64,
    /// New-design map ids that received migrated state.
    pub migrated_maps: Vec<u32>,
    /// Old-design map ids with no keyspec-compatible successor (state
    /// discarded).
    pub dropped_maps: Vec<u32>,
    /// Entries copied into the new maps.
    pub migrated_entries: u64,
    /// Entries lost because the successor map was smaller or rejected
    /// them.
    pub dropped_entries: u64,
}

/// One loaded pipeline with its host control channel.
///
/// The runtime owns the simulator: packets go in through
/// [`Runtime::enqueue`] (or a whole interleaved schedule through
/// [`Runtime::run_schedule`]), host ops through [`Runtime::submit`], and
/// everything the pipeline retires accumulates until drained.
#[derive(Debug)]
pub struct Runtime {
    sim: PipelineSim,
    design: PipelineDesign,
    options: RuntimeOptions,
    /// Reliable frame-protocol layer, present when the channel is lossy.
    reliable: Option<ReliableCtrl>,
    /// Cycles burned by previous designs (before each swap).
    retired_cycles: u64,
    /// Work retired before a swap but not yet drained by the caller.
    carried_outcomes: Vec<SimOutcome>,
    carried_completions: Vec<HostCompletion>,
    swaps: Vec<SwapReport>,
}

impl Runtime {
    /// Load `design` and bring up its control channel.
    pub fn new(design: &PipelineDesign, options: RuntimeOptions) -> Runtime {
        let mut sim = PipelineSim::with_options(design, options.sim);
        sim.attach_ctrl(options.ctrl);
        let _ = sim.attach_ctrl_loss(options.loss);
        let reliable = options.loss.is_lossy().then(ReliableCtrl::default);
        Runtime {
            sim,
            design: design.clone(),
            options,
            reliable,
            retired_cycles: 0,
            carried_outcomes: Vec::new(),
            carried_completions: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// The currently loaded design.
    pub fn design(&self) -> &PipelineDesign {
        &self.design
    }

    /// The wrapped simulator (escape hatch for tests and benches).
    pub fn sim_mut(&mut self) -> &mut PipelineSim {
        &mut self.sim
    }

    /// Live map state (host-side read access outside the modeled channel;
    /// use [`Runtime::submit`] for access that contends with traffic).
    pub fn maps(&self) -> &MapStore {
        self.sim.maps()
    }

    /// Direct map mutation for initial provisioning, before traffic.
    pub fn maps_mut(&mut self) -> &mut MapStore {
        self.sim.maps_mut()
    }

    /// Offer one packet to the pipeline's RX queue.
    pub fn enqueue(&mut self, packet: Vec<u8>) -> bool {
        self.sim.enqueue(packet)
    }

    /// Submit a host op over the control channel. On a lossy channel
    /// the op takes the reliable frame protocol (sequence-numbered,
    /// retried on timeout, deduplicated by the device); on a lossless
    /// one it takes the direct mailbox path.
    pub fn submit(&mut self, op: HostOp) -> Result<u64, CtrlError> {
        match &mut self.reliable {
            Some(r) => r.submit(&mut self.sim, &op),
            None => self.sim.submit_host_op(op),
        }
    }

    /// Counters of the reliable submission layer (`None` on a lossless
    /// channel, which bypasses it).
    pub fn reliable_stats(&self) -> Option<&crate::retry::ReliableStats> {
        self.reliable.as_ref().map(ReliableCtrl::stats)
    }

    /// Submit a generated [`ControlOp`] (from
    /// [`ehdl_traffic::ctrlgen::ControlOpGen`]).
    pub fn submit_control(&mut self, op: &ControlOp) -> Result<u64, CtrlError> {
        self.submit(to_host_op(op))
    }

    /// Advance one pipeline clock cycle (and pump the reliable layer's
    /// timeout/retry machinery when the channel is lossy).
    pub fn step(&mut self) {
        self.sim.step();
        if let Some(r) = &mut self.reliable {
            r.pump(&mut self.sim);
        }
    }

    /// Run until the pipeline and control channel are empty and every
    /// reliable op has resolved (or been abandoned).
    pub fn settle(&mut self) {
        match &mut self.reliable {
            Some(r) => {
                r.drive(&mut self.sim, 50_000_000);
            }
            None => self.sim.settle(50_000_000),
        }
    }

    /// Drain completed packet outcomes (including any retired just
    /// before a swap).
    pub fn drain(&mut self) -> Vec<SimOutcome> {
        let mut outs = std::mem::take(&mut self.carried_outcomes);
        outs.extend(self.sim.drain());
        outs
    }

    /// Drain retired host ops (including any retired just before a swap).
    /// On a lossy channel, resolved reliable completions come back in
    /// sequence order with duplicates already suppressed.
    pub fn completions(&mut self) -> Vec<HostCompletion> {
        let mut comps = std::mem::take(&mut self.carried_completions);
        match &mut self.reliable {
            Some(r) => {
                r.pump(&mut self.sim);
                comps.extend(r.take_passthrough());
                comps.extend(r.take_resolved());
            }
            None => comps.extend(self.sim.host_completions()),
        }
        comps
    }

    /// Drive an interleaved packet/op schedule end to end: each op is
    /// submitted at its position of the arrival order (barrier-ordered
    /// after the packets preceding it), packets stream back-to-back, and
    /// the pipeline settles before the report is assembled.
    pub fn run_schedule(&mut self, schedule: &[ScheduleItem]) -> ScheduleReport {
        let lost_before = self.sim.counters().rx_dropped;
        let mut packets = 0u64;
        let mut ops_submitted = 0u64;
        let mut ops_rejected = Vec::new();
        for item in schedule {
            match item {
                ScheduleItem::Packet(p) => {
                    packets += 1;
                    let mut attempts = 0u32;
                    while !self.sim.enqueue(p.clone()) {
                        // RX full: let the pipeline make progress. The
                        // refused attempt counted a drop; the retry keeps
                        // the schedule lossless so op barriers stay
                        // aligned with the arrival order.
                        self.sim.step();
                        attempts += 1;
                        if attempts > 10_000 {
                            break; // wedged pipeline; surface via `lost`
                        }
                    }
                }
                ScheduleItem::Op(op) => match self.submit_control(op) {
                    Ok(_) => ops_submitted += 1,
                    Err(e) => ops_rejected.push(e),
                },
            }
        }
        self.settle();
        ScheduleReport {
            packets,
            lost: self.sim.counters().rx_dropped - lost_before,
            ops_submitted,
            ops_rejected,
            outcomes: self.drain(),
            completions: self.completions(),
        }
    }

    /// Pipeline cycles across the runtime's whole life, including
    /// designs retired by previous swaps.
    pub fn total_cycles(&self) -> u64 {
        self.retired_cycles.saturating_add(self.sim.cycle())
    }

    /// Completed reload reports, oldest first.
    pub fn swap_history(&self) -> &[SwapReport] {
        &self.swaps
    }

    /// Host ops in flight right now: queued or in transit on the ctrl
    /// channel, plus (on a lossy channel) reliable ops still awaiting
    /// resolution. The serving reactor's admission control keeps this
    /// below [`Runtime::ctrl_queue_depth`] instead of discovering
    /// `QueueFull` the hard way.
    pub fn ops_in_flight(&self) -> usize {
        self.sim.host_ops_pending() + self.reliable.as_ref().map_or(0, ReliableCtrl::outstanding)
    }

    /// Configured ctrl mailbox depth (the hard ceiling behind
    /// [`Runtime::ops_in_flight`]-based admission).
    pub fn ctrl_queue_depth(&self) -> usize {
        self.options.ctrl.queue_depth
    }

    /// Snapshot the runtime's telemetry.
    pub fn stats(&self) -> RuntimeStats {
        let cycle = self.sim.cycle();
        let stages = self
            .sim
            .stage_occupancy()
            .into_iter()
            .enumerate()
            .map(|(stage, occupied_cycles)| StageTelemetry {
                stage,
                occupied_cycles,
                utilization: if cycle == 0 { 0.0 } else { occupied_cycles as f64 / cycle as f64 },
            })
            .collect();
        let lookups = self.sim.map_lookups();
        let hits = self.sim.map_hits();
        let maps = self
            .design
            .maps
            .iter()
            .enumerate()
            .map(|(i, def)| MapTelemetry {
                id: def.id,
                name: def.name.clone(),
                lookups: lookups.get(i).copied().unwrap_or(0),
                hits: hits.get(i).copied().unwrap_or(0),
                entries: self.sim.maps().get(def.id).map_or(0, |m| m.len()),
                capacity: def.max_entries as usize,
            })
            .collect();
        let counters = *self.sim.counters();
        let seconds = (cycle as f64 * CLOCK_NS / 1e9).max(1e-12);
        RuntimeStats {
            program: self.design.name.clone(),
            epoch: self.swaps.len() as u64,
            cycle,
            total_cycles: self.total_cycles(),
            counters,
            ctrl: self.sim.ctrl_stats().unwrap_or_default(),
            stages,
            maps,
            throughput_pps: counters.completed as f64 / seconds,
            reliability: self.reliable.as_ref().map(|r| r.stats().snapshot()),
            slo: None,
        }
    }

    /// Whether the pipeline, control channel, and reliable layer are all
    /// quiet — the reload handshake's precondition.
    fn quiesced(&self) -> bool {
        self.sim.is_idle() && self.reliable.as_ref().is_none_or(|r| r.outstanding() == 0)
    }

    /// Drain-and-swap reload with an unbounded drain; see
    /// [`Runtime::try_reload`] for the bounded, roll-back-capable form.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline cannot quiesce within 50M cycles — a
    /// wedged-hardware bug, not a workload property.
    pub fn reload(&mut self, new_design: &PipelineDesign) -> SwapReport {
        match self.try_reload(new_design, 50_000_000) {
            Ok(report) => report,
            Err(e) => panic!("reload drain did not quiesce: {e}"),
        }
    }

    /// Drain-and-swap reload: quiesce ingress (the caller stops offering
    /// packets), drain every in-flight packet, buffered write, queued
    /// host op and outstanding reliable op — bounded by
    /// `drain_budget_cycles` — then migrate all keyspec-compatible map
    /// state into `new_design` and switch over. Returns the measured
    /// downtime.
    ///
    /// Any packet outcomes or host completions still undrained carry over
    /// to the new epoch's [`Runtime::drain`] / [`Runtime::completions`]
    /// unchanged — a swap never loses retired work.
    ///
    /// # Errors
    ///
    /// [`SwapError::DrainTimeout`] when the handshake does not quiesce
    /// within the budget. The reload **rolls back cleanly**: the abort
    /// happens before any state is migrated or the design switched, so
    /// the old pipeline keeps serving with all in-flight work intact,
    /// and the attempt is not recorded in [`Runtime::swap_history`].
    pub fn try_reload(
        &mut self,
        new_design: &PipelineDesign,
        drain_budget_cycles: u64,
    ) -> Result<SwapReport, SwapError> {
        let quiesce_cycle = self.sim.cycle();
        // Drain: no new arrivals; everything in flight retires.
        let mut waited = 0u64;
        while !self.quiesced() {
            if waited >= drain_budget_cycles {
                let c = self.sim.counters();
                return Err(SwapError::DrainTimeout {
                    waited_cycles: waited,
                    in_flight: c.injected.saturating_sub(c.completed),
                    host_ops_pending: self.sim.host_ops_pending()
                        + self.reliable.as_ref().map_or(0, ReliableCtrl::outstanding),
                });
            }
            self.step();
            waited += 1;
        }
        let drain_cycles = self.sim.cycle() - quiesce_cycle;
        self.carried_outcomes.extend(self.sim.drain());
        let comps = self.completions();
        self.carried_completions.extend(comps);

        let mut new_sim = PipelineSim::with_options(new_design, self.options.sim);
        new_sim.attach_ctrl(self.options.ctrl);
        let _ = new_sim.attach_ctrl_loss(self.options.loss);

        // Migrate by keyspec: a map survives the swap when the new design
        // declares one with the same name and shape (capacity may change;
        // overflow entries are dropped and counted). A map the stores
        // cannot produce (a design/store mismatch) is dropped and
        // counted, never panicked over.
        let mut migrated_maps = Vec::new();
        let mut dropped_maps = Vec::new();
        let mut migrated_entries = 0u64;
        let mut dropped_entries = 0u64;
        for old_def in &self.design.maps {
            let Some(new_def) = migration_target(old_def, &new_design.maps) else {
                dropped_maps.push(old_def.id);
                continue;
            };
            let Some(old_map) = self.sim.maps().get(old_def.id) else {
                dropped_maps.push(old_def.id);
                continue;
            };
            let Some(new_map) = new_sim.maps_mut().get_mut(new_def.id) else {
                dropped_maps.push(old_def.id);
                continue;
            };
            for (_, k, v) in old_map.iter() {
                match new_map.update(k, v, UpdateFlags::Any) {
                    Ok(_) => migrated_entries += 1,
                    Err(_) => dropped_entries += 1,
                }
            }
            migrated_maps.push(new_def.id);
        }

        // Model the reconfiguration time on the new pipeline's clock so
        // the downtime is observable in its cycle counter too.
        let config_cycles =
            RECONFIG_BASE_CYCLES + RECONFIG_CYCLES_PER_STAGE * new_design.stage_count() as u64;
        for _ in 0..config_cycles {
            new_sim.step();
        }

        self.retired_cycles = self.retired_cycles.saturating_add(self.sim.cycle());
        self.sim = new_sim;
        self.design = new_design.clone();

        let downtime_cycles = drain_cycles + config_cycles;
        let report = SwapReport {
            quiesce_cycle,
            drain_cycles,
            config_cycles,
            downtime_cycles,
            downtime_ns: downtime_cycles as f64 * CLOCK_NS,
            migrated_maps,
            dropped_maps,
            migrated_entries,
            dropped_entries,
        };
        self.swaps.push(report.clone());
        Ok(report)
    }
}

/// Why a reload attempt was aborted (the old design keeps serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapError {
    /// The drain handshake did not quiesce within its cycle budget.
    DrainTimeout {
        /// Cycles spent waiting before giving up.
        waited_cycles: u64,
        /// Packets injected but not yet retired at abort time.
        in_flight: u64,
        /// Host ops still queued, delayed, or awaiting reliable
        /// resolution at abort time.
        host_ops_pending: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::DrainTimeout { waited_cycles, in_flight, host_ops_pending } => write!(
                f,
                "drain timed out after {waited_cycles} cycles \
                 ({in_flight} packets in flight, {host_ops_pending} host ops pending)"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// Lower a generated [`ControlOp`] to the simulator's host-op type.
pub fn to_host_op(op: &ControlOp) -> HostOp {
    match op.kind {
        ControlOpKind::Lookup => HostOp::Lookup { map: op.map, key: op.key.clone() },
        ControlOpKind::Update => HostOp::Update {
            map: op.map,
            key: op.key.clone(),
            value: op.value.clone(),
            flags: UpdateFlags::Any,
        },
        ControlOpKind::Delete => HostOp::Delete { map: op.map, key: op.key.clone() },
        ControlOpKind::Dump => HostOp::Dump { map: op.map },
    }
}
