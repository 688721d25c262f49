//! Deterministic fault injection for the pipeline simulator.
//!
//! Hardware deployed on a NIC runs for months; SEUs in BRAM and flip-flops
//! are a when, not an if. This module is the campaign engine behind the
//! hardened designs `CompilerOptions::protect` emits: a seeded RNG decides
//! each cycle whether to flip a bit somewhere in the in-flight pipeline
//! state (stage registers, stack bytes, predication bits, FEB/WAR delay
//! buffers) or in map BRAM words, or to inject a stuck-at or hung-stage
//! condition. Every injection is logged with its cycle, site, kind and
//! (eventual) outcome, so a campaign is bit-reproducible from its seed.
//!
//! The *semantics* of a fault depend on the design's [`Protection`](ehdl_core::Protection) level:
//!
//! * [`Protection::None`](ehdl_core::Protection::None) — the flip lands: in-flight corruption silently
//!   alters that packet's verdict; map corruption silently alters global
//!   state (and every later packet that reads it).
//! * [`Protection::Parity`](ehdl_core::Protection::Parity) — parity guards on stage boundaries detect
//!   in-flight corruption before it is consumed; the simulator recovers by
//!   replay, reusing the partial-flush checkpoint schedule. Map BRAM is
//!   still unprotected.
//! * [`Protection::EccWatchdog`](ehdl_core::Protection::EccWatchdog) — adds SECDED ECC on map ports
//!   (correct-on-read plus a background scrub; a second upset on the same
//!   word before correction is detected-but-uncorrectable) and a pipeline
//!   watchdog that notices a hung stage, drops the wedged packet, replays
//!   the innocents and performs a map-preserving reinit.
//!
//! [`Protection`]: ehdl_core::Protection

use ehdl_rng::Rng;

/// How long a stuck-at site stays forced, in cycles.
pub(crate) const STUCK_DURATION: u64 = 48;

/// Campaign parameters. All probabilities are per *injection decision*;
/// one decision is made per simulated cycle.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// RNG seed; identical seeds replay identical campaigns.
    pub seed: u64,
    /// Per-cycle probability of injecting a fault (0 disables the engine).
    pub rate: f64,
    /// Probability that a transient flip targets map BRAM rather than
    /// in-flight pipeline state.
    pub map_bias: f64,
    /// Fraction of injections that are stuck-at faults (a site whose bit
    /// is forced for `STUCK_DURATION`, 48 cycles).
    pub stuck_fraction: f64,
    /// Fraction of injections that hang a pipeline stage outright.
    pub hang_fraction: f64,
    /// Background scrub visits one outstanding map upset every this many
    /// cycles (ECC designs only; 0 disables scrubbing).
    pub scrub_period: u64,
    /// Cycles without retirement progress before the watchdog fires
    /// (watchdog designs only).
    pub watchdog_timeout: u64,
    /// Upper bound on the event log length (stats keep counting past it).
    pub max_events: usize,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 1,
            rate: 0.0,
            map_bias: 0.5,
            stuck_fraction: 0.05,
            hang_fraction: 0.01,
            scrub_period: 256,
            watchdog_timeout: 512,
            max_events: 100_000,
        }
    }
}

/// Where a fault landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit `bit` of register `reg` in the packet occupying `stage`.
    StageReg {
        /// Pipeline stage index.
        stage: usize,
        /// eBPF register number (0–10).
        reg: u8,
        /// Bit position within the 64-bit register.
        bit: u8,
    },
    /// Bit `bit` of stack byte `off` in the packet occupying `stage`.
    StageStack {
        /// Pipeline stage index.
        stage: usize,
        /// Byte offset into the 512-byte stack.
        off: u16,
        /// Bit position within the byte.
        bit: u8,
    },
    /// The resolved taken-bit of control block `block` in the packet
    /// occupying `stage` (the predication network's carried state).
    PredBit {
        /// Pipeline stage index.
        stage: usize,
        /// Control block index.
        block: u16,
    },
    /// A bit in entry `index` of the FEB/WAR delay buffer (the queue of
    /// map writes waiting out their WAR hold).
    DelayBuffer {
        /// Index into the pending-write queue at injection time.
        index: usize,
        /// Bit position within the entry's payload.
        bit: u8,
    },
    /// Bit `bit` of byte `byte` of the value stored in `slot` of map `map`.
    MapWord {
        /// Map id.
        map: u32,
        /// Occupied slot index.
        slot: u32,
        /// Byte offset within the stored value.
        byte: u32,
        /// Bit position within the byte.
        bit: u8,
    },
    /// The control logic of `stage` itself (hung-stage condition).
    Pipeline {
        /// Pipeline stage index.
        stage: usize,
    },
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultSite::StageReg { stage, reg, bit } => {
                write!(f, "stage{stage}.r{reg}[{bit}]")
            }
            FaultSite::StageStack { stage, off, bit } => {
                write!(f, "stage{stage}.stack[{off}][{bit}]")
            }
            FaultSite::PredBit { stage, block } => write!(f, "stage{stage}.pred[b{block}]"),
            FaultSite::DelayBuffer { index, bit } => write!(f, "delaybuf[{index}][{bit}]"),
            FaultSite::MapWord { map, slot, byte, bit } => {
                write!(f, "map{map}.slot{slot}[{byte}][{bit}]")
            }
            FaultSite::Pipeline { stage } => write!(f, "stage{stage}.ctrl"),
        }
    }
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A single transient bit flip.
    Transient,
    /// A site forced to a value for a bounded number of cycles.
    StuckAt,
    /// A pipeline stage that stops retiring.
    Hang,
}

impl FaultKind {
    /// Short name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::StuckAt => "stuck-at",
            FaultKind::Hang => "hang",
        }
    }
}

/// How an injected fault was (eventually) resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The targeted site held no live state (empty stage slot, empty map,
    /// empty delay buffer): the flip changed nothing.
    Masked,
    /// The flip landed on unprotected state; results may silently differ.
    SilentCorruption,
    /// A parity guard caught the corruption; the affected window was
    /// recovered by replay from its checkpoints.
    DetectedReplay,
    /// SECDED corrected the upset when a lookup next touched the word.
    CorrectedOnRead,
    /// The background scrubber corrected the upset.
    CorrectedByScrub,
    /// ECC check bits repaired a delay-buffer entry in place.
    CorrectedEcc,
    /// Two upsets accumulated in one protected word before correction:
    /// detected but uncorrectable, storage is corrupt.
    Uncorrectable,
    /// The watchdog drained and reinitialized the pipeline, dropping the
    /// hung packet and replaying the rest.
    HungRecovered,
    /// The stage hung and nothing recovered it (no watchdog).
    HungUnrecovered,
    /// An ECC upset still awaiting correction (interim state; finalized
    /// runs convert these to scrub corrections).
    Outstanding,
}

impl FaultOutcome {
    /// Short name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::SilentCorruption => "silent-corruption",
            FaultOutcome::DetectedReplay => "detected-replay",
            FaultOutcome::CorrectedOnRead => "corrected-on-read",
            FaultOutcome::CorrectedByScrub => "corrected-by-scrub",
            FaultOutcome::CorrectedEcc => "corrected-ecc",
            FaultOutcome::Uncorrectable => "uncorrectable",
            FaultOutcome::HungRecovered => "hung-recovered",
            FaultOutcome::HungUnrecovered => "hung-unrecovered",
            FaultOutcome::Outstanding => "outstanding",
        }
    }
}

/// One logged injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the fault was injected.
    pub cycle: u64,
    /// Where it landed.
    pub site: FaultSite,
    /// What kind of fault it was.
    pub kind: FaultKind,
    /// How it was resolved.
    pub outcome: FaultOutcome,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{} {} {} -> {}", self.cycle, self.kind.name(), self.site, self.outcome.name())
    }
}

/// Campaign tallies (one increment per injected *event*, not per cycle a
/// stuck-at site stays forced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total injections attempted.
    pub injected: u64,
    /// Injections that hit dead state.
    pub masked: u64,
    /// Flips that silently landed on unprotected state.
    pub silent: u64,
    /// Parity detections recovered by replay.
    pub detected_replays: u64,
    /// ECC corrections triggered by a map read.
    pub corrected_read: u64,
    /// ECC corrections performed by the background scrub.
    pub corrected_scrub: u64,
    /// Delay-buffer entries repaired in place by their check bits.
    pub corrected_ecc: u64,
    /// Detected-but-uncorrectable double upsets.
    pub uncorrectable: u64,
    /// Hung-stage conditions injected.
    pub hangs: u64,
    /// Hangs cleared by the watchdog.
    pub watchdog_recoveries: u64,
}

impl FaultStats {
    /// Injections that actually touched live state.
    pub fn effective(&self) -> u64 {
        self.injected - self.masked
    }

    /// Fraction of effective faults that were detected and handled
    /// (corrected, recovered by replay, or cleared by the watchdog).
    /// `1.0` when no effective fault was injected.
    pub fn coverage(&self) -> f64 {
        let eff = self.effective();
        if eff == 0 {
            return 1.0;
        }
        let handled = self.detected_replays
            + self.corrected_read
            + self.corrected_scrub
            + self.corrected_ecc
            + self.watchdog_recoveries;
        handled as f64 / eff as f64
    }
}

/// An active stuck-at fault: `site` is re-forced every cycle until
/// `until`. `event` indexes the injection's log entry so the first
/// effective application can upgrade a provisionally-masked outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StuckFault {
    pub(crate) site: FaultSite,
    pub(crate) until: u64,
    pub(crate) event: usize,
}

/// An outstanding single-bit upset in an ECC-protected map word; the
/// storage itself is still clean (SECDED corrects on every read), the
/// engine only tracks it so a read or a scrub can log the correction —
/// and so a second hit on the same word can be ruled uncorrectable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MapUpset {
    pub(crate) map: u32,
    pub(crate) slot: u32,
    pub(crate) word: u32,
    pub(crate) event: usize,
}

/// An active hung-stage condition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hang {
    pub(crate) stage: usize,
    pub(crate) since: u64,
    pub(crate) event: usize,
}

/// The per-simulator fault engine: RNG, schedule state, log and tallies.
///
/// Constructed by [`PipelineSim::attach_faults`] and driven once per
/// simulated cycle; the actual mutation of pipeline state lives in the
/// simulator (`sim.rs`), which owns that state.
///
/// [`PipelineSim::attach_faults`]: crate::PipelineSim::attach_faults
#[derive(Debug, Clone)]
pub struct FaultEngine {
    pub(crate) cfg: FaultConfig,
    pub(crate) rng: Rng,
    pub(crate) log: Vec<FaultEvent>,
    pub(crate) stats: FaultStats,
    pub(crate) stuck: Vec<StuckFault>,
    pub(crate) upsets: Vec<MapUpset>,
    pub(crate) hang: Option<Hang>,
    pub(crate) hung_cycles: u64,
    pub(crate) affected: Vec<u64>,
    pub(crate) map_corrupted: bool,
}

impl FaultEngine {
    /// Build an engine seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> FaultEngine {
        FaultEngine {
            cfg,
            rng: Rng::seed_from_u64(cfg.seed),
            log: Vec::new(),
            stats: FaultStats::default(),
            stuck: Vec::new(),
            upsets: Vec::new(),
            hang: None,
            hung_cycles: 0,
            affected: Vec::new(),
            map_corrupted: false,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The injection log, oldest first (capped at `cfg.max_events`).
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Campaign tallies.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Sequence numbers of packets whose results may legitimately differ
    /// from a fault-free reference run (corrupted in flight, or dropped by
    /// the watchdog). Sorted, unique.
    pub fn affected_seqs(&self) -> &[u64] {
        &self.affected
    }

    /// Whether map storage itself was corrupted (unprotected hit or an
    /// uncorrectable double upset): final map state may differ from the
    /// reference even for packets not in [`FaultEngine::affected_seqs`].
    pub fn map_storage_corrupted(&self) -> bool {
        self.map_corrupted
    }

    /// Cycles spent with a stage hung.
    pub fn hung_cycles(&self) -> u64 {
        self.hung_cycles
    }

    /// Fraction of `total_cycles` the pipeline was live (not hung).
    pub fn availability(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 1.0;
        }
        1.0 - (self.hung_cycles.min(total_cycles) as f64 / total_cycles as f64)
    }

    /// Append an event, respecting the log cap. Returns the event's index,
    /// or `usize::MAX` if the log is full (tallies still count it).
    pub(crate) fn record(&mut self, ev: FaultEvent) -> usize {
        if self.log.len() >= self.cfg.max_events {
            return usize::MAX;
        }
        self.log.push(ev);
        self.log.len() - 1
    }

    /// Rewrite a previously recorded event's outcome (e.g. an outstanding
    /// ECC upset resolving to a correction).
    pub(crate) fn resolve(&mut self, event: usize, outcome: FaultOutcome) {
        if let Some(ev) = self.log.get_mut(event) {
            ev.outcome = outcome;
        }
    }

    /// Mark a packet's results as legitimately divergent.
    pub(crate) fn mark_affected(&mut self, seq: u64) {
        if let Err(at) = self.affected.binary_search(&seq) {
            self.affected.insert(at, seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Replica-scoped failures (whole-pipeline loss inside a `ShardedNic`)
// ---------------------------------------------------------------------------

/// How a replica fails. Unlike the bit-level faults above, these take out a
/// whole pipeline replica at once — the clock domain dies, not a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFaultKind {
    /// Permanent death: the replica never returns. Its flows are re-steered
    /// to survivors for the rest of the run.
    Kill,
    /// Wedged pipeline: stops retiring but the part still answers the
    /// watchdog's reset strobe. After detection and a fail-stop drain the
    /// replica re-initializes and is re-admitted `reset_cycles` later.
    Hang,
    /// Transient brown-out: the clock returns on its own after `duration`
    /// cycles. Shorter than the watchdog budget it is absorbed invisibly
    /// (in-flight packets resume); longer, it is handled like a hang.
    BrownOut {
        /// Cycles until the replica's clock returns.
        duration: u64,
    },
}

/// One scheduled replica failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFault {
    /// Global `ShardedNic` cycle at which the replica goes dark.
    pub at: u64,
    /// Which replica.
    pub replica: usize,
    /// Failure mode.
    pub kind: ReplicaFaultKind,
}

/// Replica-failure schedule plus the recovery parameters of the sharded
/// layer's watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaFaultConfig {
    /// Failures to inject, in any order (sorted internally by cycle).
    pub schedule: Vec<ReplicaFault>,
    /// Heartbeat budget: a dark replica is detected exactly this many
    /// cycles after its last heartbeat, bounding detection latency.
    pub watchdog_budget: u64,
    /// Re-initialization time for a hung replica after its fail-stop
    /// (reset strobe, BRAM re-arm, steering re-admission).
    pub reset_cycles: u64,
}

impl Default for ReplicaFaultConfig {
    fn default() -> Self {
        ReplicaFaultConfig { schedule: Vec::new(), watchdog_budget: 256, reset_cycles: 2048 }
    }
}

/// Outcome counters for a replica-failure campaign. Every packet a failure
/// touches is accounted for: `drained` frames were still in the dead
/// replica's ingress FIFO and are punted back to the host, `discarded`
/// packets were mid-pipeline when the clock died and are unrecoverable.
/// Nothing is ever silently lost — the sharded layer asserts
/// `offered == completed + drained + discarded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaFaultStats {
    /// Replica failures injected.
    pub injected: u64,
    /// Failures detected by the watchdog (masked brown-outs excluded).
    pub detected: u64,
    /// Brown-outs shorter than the watchdog budget, absorbed with no
    /// fail-over (their in-flight packets simply resumed).
    pub masked_brownouts: u64,
    /// Sum of detection latencies in cycles (dark → detected).
    pub detection_latency_total: u64,
    /// Worst-case detection latency in cycles.
    pub detection_latency_max: u64,
    /// Ingress-FIFO frames punted back to the host at fail-stop.
    pub drained: u64,
    /// Mid-pipeline packets lost with the clock domain.
    pub discarded: u64,
    /// RSS indirection-table slots rewritten across all re-steers.
    pub resteered_slots: u64,
    /// Replicas re-admitted to service (hang resets + returned brown-outs).
    pub readmissions: u64,
    /// Private-map entries reconciled into the canonical store.
    pub reconciled_entries: u64,
    /// Global cycles with at least one replica out of service.
    pub degraded_cycles: u64,
    /// Per-replica out-of-service cycles summed over all replicas.
    pub replica_down_cycles: u64,
}

impl ReplicaFaultStats {
    /// Mean detection latency in cycles (0 with no detections).
    pub fn mean_detection_latency(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.detection_latency_total as f64 / self.detected as f64
        }
    }

    /// Serving capacity over the run: the fraction of replica-cycles that
    /// were in service. A single permanent kill on an `n`-replica NIC
    /// converges to `(n-1)/n` from above.
    pub fn availability(&self, replicas: usize, total_cycles: u64) -> f64 {
        let denom = replicas as u64 * total_cycles;
        if denom == 0 {
            return 1.0;
        }
        1.0 - (self.replica_down_cycles.min(denom) as f64 / denom as f64)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_deterministic_from_its_seed() {
        let cfg = FaultConfig { seed: 7, rate: 0.5, ..Default::default() };
        let mut a = FaultEngine::new(cfg);
        let mut b = FaultEngine::new(cfg);
        for _ in 0..1000 {
            assert_eq!(a.rng.next_u64(), b.rng.next_u64());
        }
    }

    #[test]
    fn stats_coverage_counts_handled_fraction() {
        let mut s = FaultStats::default();
        assert_eq!(s.coverage(), 1.0);
        s.injected = 10;
        s.masked = 2;
        s.detected_replays = 4;
        s.corrected_read = 2;
        s.corrected_scrub = 1;
        s.silent = 1;
        assert_eq!(s.effective(), 8);
        assert!((s.coverage() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn affected_seqs_stay_sorted_unique() {
        let mut e = FaultEngine::new(FaultConfig::default());
        e.mark_affected(5);
        e.mark_affected(1);
        e.mark_affected(5);
        e.mark_affected(3);
        assert_eq!(e.affected_seqs(), &[1, 3, 5]);
    }

    #[test]
    fn event_log_respects_cap_and_resolution() {
        let cfg = FaultConfig { max_events: 2, ..Default::default() };
        let mut e = FaultEngine::new(cfg);
        let ev = FaultEvent {
            cycle: 1,
            site: FaultSite::Pipeline { stage: 0 },
            kind: FaultKind::Hang,
            outcome: FaultOutcome::Outstanding,
        };
        let i0 = e.record(ev);
        let i1 = e.record(FaultEvent { cycle: 2, ..ev });
        let i2 = e.record(FaultEvent { cycle: 3, ..ev });
        assert_eq!((i0, i1, i2), (0, 1, usize::MAX));
        e.resolve(i0, FaultOutcome::HungRecovered);
        assert_eq!(e.log()[0].outcome, FaultOutcome::HungRecovered);
        assert_eq!(format!("{}", e.log()[0]), "@1 hang stage0.ctrl -> hung-recovered");
    }
}
