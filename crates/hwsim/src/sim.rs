//! The pipeline simulator.

use ehdl_core::analytical::SHELL_LATENCY_NS;
use ehdl_core::ir::PacketProof;
use ehdl_core::pipeline::{EdgeCond, PipelineDesign, Protection};
use ehdl_core::plan::map_bit;
use ehdl_core::prune::PruneInfo;
use ehdl_core::LoweredPlan;
use ehdl_ebpf::maps::{MapStore, UpdateFlags};
use ehdl_ebpf::opcode::{AtomicOp, MemSize};
use ehdl_ebpf::vm::{
    alu_eval, cond_eval, decode_map_value_addr, endian_eval, map_value_addr, mask_for, xdp_md,
    XdpAction, CTX_BASE, MAP_HANDLE_BASE, PACKET_BASE, STACK_BASE, STACK_SIZE, STACK_TOP,
    XDP_HEADROOM,
};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::ctrl::{
    decode_frame, CtrlError, CtrlLossConfig, CtrlOptions, CtrlState, CtrlStats, HostCompletion,
    HostOp, LossState, QueuedOp,
};
use crate::fault::{
    FaultConfig, FaultEngine, FaultEvent, FaultKind, FaultOutcome, FaultSite, Hang, MapUpset,
    StuckFault, STUCK_DURATION,
};
use crate::shared::{map_key_hash, MapAccess, MapEvent, MapEventKind};

mod compiled;

/// Pipeline clock period in nanoseconds (250 MHz).
pub const CLOCK_NS: f64 = 4.0;
/// Cycles to refill the pipeline after a flush (App. A.1).
pub const FLUSH_RELOAD_CYCLES: u64 = 4;

/// Why the simulator refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The frame exceeds the datapath's buffered maximum packet length;
    /// the ingress MAC drops it before the pipeline sees a byte.
    FrameTooLarge {
        /// Offered frame length.
        len: usize,
        /// The design's `max_packet_len`.
        max: usize,
    },
    /// The RX queue is at capacity; the arrival is lost.
    QueueFull {
        /// Configured queue depth.
        depth: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the datapath maximum of {max}")
            }
            SimError::QueueFull { depth } => {
                write!(f, "rx queue full ({depth} packets)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Fix `bpf_ktime_get_ns` to a constant (for differential tests);
    /// `None` derives time from the cycle counter.
    pub freeze_time_ns: Option<u64>,
    /// RX queue depth in packets; arrivals beyond this are lost.
    pub rx_queue_depth: usize,
    /// Validation mode: overwrite every register and stack byte the §4.3
    /// pruning analysis declared *dead* with a poison pattern at each
    /// stage boundary — exactly what the real hardware does by not wiring
    /// them. Any observable effect is a pruning-soundness bug.
    pub poison_dead_state: bool,
    /// Partial flushes (App. A.1/A.2): on a RAW hazard, replay only the
    /// FEB's read→write window from per-stage checkpoints instead of
    /// everything below the write stage, dropping the flush cost `K` from
    /// `write_stage + reload` to `window + reload`. Off reproduces the
    /// full-pipeline flush of the baseline hardware.
    pub partial_flush: bool,
    /// Soundness validation: recheck every compile-time packet-bounds
    /// proof (`op.proof`) against the concrete address and packet length;
    /// violations increment [`SimCounters::proof_violations`] without
    /// changing the verdict (the unguarded hardware would simply read).
    pub check_proofs: bool,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            freeze_time_ns: None,
            rx_queue_depth: 4096,
            poison_dead_state: false,
            partial_flush: true,
            check_proofs: false,
        }
    }
}

/// Event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Packets accepted into the pipeline.
    pub injected: u64,
    /// Packets that completed (any action).
    pub completed: u64,
    /// Arrivals lost to RX-queue overflow.
    pub rx_dropped: u64,
    /// Pipeline flush events (§4.1.2).
    pub flushes: u64,
    /// Packets sent back for re-execution by flushes.
    pub flush_replays: u64,
    /// Packets dropped by the implicit hardware bounds check.
    pub bounds_faults: u64,
    /// Packets sent back for re-execution by fault recovery (parity
    /// detections and watchdog drains) — counted separately from the
    /// hazard machinery's `flush_replays`.
    pub fault_replays: u64,
    /// Watchdog-initiated drain + map-preserving reinit events.
    pub watchdog_resets: u64,
    /// Packets lost to injected faults (dropped by a watchdog reset).
    pub pkts_lost_to_faults: u64,
    /// Compile-time packet-bounds proofs contradicted by a concrete
    /// access (soundness validation; must stay 0).
    pub proof_violations: u64,
    /// Host control-channel ops applied to the live maps.
    pub host_ops: u64,
    /// Host writes that landed inside an open RAW window and triggered
    /// the hazard flush machinery.
    pub host_op_flushes: u64,
    /// Cycles the whole pipeline spent frozen waiting on the external
    /// shared-map fabric (bank conflicts and access latency levied by
    /// [`crate::shared::ShardedNic`]); 0 for a standalone pipeline.
    pub mem_stall_cycles: u64,
    /// Ingress-FIFO frames punted back to the host by a fail-stop
    /// teardown ([`PipelineSim::fail_stop`]) — recoverable, never
    /// silently lost.
    pub failstop_drained: u64,
    /// Mid-pipeline packets lost with the clock domain at a fail-stop
    /// teardown — unrecoverable, but counted.
    pub failstop_discarded: u64,
}

/// A completed packet.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Arrival sequence number.
    pub seq: u64,
    /// Final verdict.
    pub action: XdpAction,
    /// Redirect target, when the action is `Redirect`.
    pub redirect_ifindex: Option<u32>,
    /// Final packet bytes (after any rewriting / encapsulation).
    pub packet: Vec<u8>,
    /// Cycles from injection to completion.
    pub latency_cycles: u64,
    /// End-to-end latency estimate including the shell, in nanoseconds.
    pub latency_ns: f64,
}

/// Hard cap on control blocks per design, so per-packet enable/taken
/// signals fit in fixed-size bitmaps (no heap traffic per packet).
const MAX_BLOCKS: usize = 512;

/// [`PacketState::idle`] of a packet the hardware bounds check dropped:
/// it does nothing more.
const FAULTED: u32 = u32::MAX;
/// Predication-signal groups per packet: one per 64 blocks.
const PRED_GROUPS: usize = MAX_BLOCKS / 64;
/// Offsets of the enable and taken signals in a [`Predication`] group:
/// the `known` word, then the value word.
const ENABLE: usize = 0;
const TAKEN: usize = 2;

/// The per-block predication signals of one packet, enable and taken, each
/// tri-state: wires, not a heap vector. The four words of 64 blocks form
/// one 32-byte group, so a design of up to 64 blocks reads one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(32))]
struct Predication([[u64; 4]; PRED_GROUPS]);

impl Predication {
    #[inline(always)]
    fn get(&self, sig: usize, b: usize) -> Option<bool> {
        let g = &self.0[(b >> 6) & (PRED_GROUPS - 1)];
        (g[sig] >> (b % 64) & 1 == 1).then_some(g[sig + 1] >> (b % 64) & 1 == 1)
    }

    #[inline(always)]
    fn set(&mut self, sig: usize, b: usize, v: bool) {
        let g = &mut self.0[(b >> 6) & (PRED_GROUPS - 1)];
        g[sig] |= 1 << (b % 64);
        g[sig + 1] = (g[sig + 1] & !(1 << (b % 64))) | (u64::from(v) << (b % 64));
    }
}

/// Mutable per-packet execution state (the contents of one pipeline slot).
/// `repr(C)`, hot fields first: a stage visit reads the idle tag, the
/// offsets, the first predication group and the registers.
#[derive(Debug, Clone)]
#[repr(C)]
struct PacketState {
    /// The packet does nothing below this stage: the end of a disabled
    /// block's run, [`FAULTED`], or 0. The slot's tag mirrors it, so an
    /// idle visit never touches the packet.
    idle: u32,
    action: Option<XdpAction>,
    data_off: usize,
    end_off: usize,
    pred: Predication,
    regs: [u64; 11],
    redirect: Option<u32>,
    /// Superset summary of `map_reads`: for every entry the
    /// [`read_key_bit`] of its `(map, key)` is set. FEB write interlocks
    /// test this one word before scanning the vector, so the per-write
    /// sweep over all in-flight packets is a few cycles per slot unless a
    /// packet might actually hold a matching read. Never pruned on
    /// retirement (a stale bit only costs an exact scan), cleared with the
    /// vector on reset.
    read_filter: u64,
    /// Lowest `data_off` this packet ever had. Everything below it in
    /// `buf` is still the zeroed headroom, so snapshots copy only the
    /// tail from here on.
    buf_lo: usize,
    /// Lowest stack byte ever written; bytes below are still zero.
    stack_lo: usize,
    buf: Vec<u8>,
    /// Unconfirmed reads, `(map, stage, key)` triples (cleared only by
    /// replay). The stage tag bounds how far a stale reader must roll
    /// back: to its own earliest matching read, not the FEB minimum.
    map_reads: Vec<(u32, u32, Vec<u8>)>,
    stack: [u8; STACK_SIZE as usize],
}

/// Recycled checkpoint storage: flush checkpoints come and go every few
/// cycles under hazard-heavy traffic, so their boxes (and the `Vec`s
/// inside) are pooled instead of reallocated.
#[derive(Debug, Clone, Default)]
struct StatePool {
    #[allow(clippy::vec_box)] // boxed so snapshot/restore moves a pointer
    free: Vec<Box<PacketState>>,
    /// Retired unconfirmed-read key buffers: a lookup records its read
    /// with a pooled key, so the lookup path is allocation-free once warm.
    keys: Vec<Vec<u8>>,
    /// Retired whole in-flight frames: a completed packet's box (state
    /// buffers, checkpoint vector, original-bytes buffer) is reused by the
    /// next injection, so the enqueue path stops allocating once warm.
    #[allow(clippy::vec_box)] // boxed so slot moves stay pointer-sized
    flights: Vec<Box<InFlight>>,
    /// Largest read-record set any snapshot has carried. Boxes are grown
    /// to this high-water on *recycle* (retiring or flush cycles, where
    /// allocation is fair game) so [`StatePool::snapshot`] itself never
    /// grows a vector mid-step.
    read_high: usize,
    /// [`Predication`] groups actually used by this design.
    groups: usize,
}

impl StatePool {
    const CAP: usize = 64;
    /// Key buffers are tiny and churn fastest (one per in-flight lookup),
    /// so they get a deeper pool than checkpoint boxes.
    const KEY_CAP: usize = 256;

    /// Clone `src` into a pooled box (allocation-free when warm).
    #[inline(never)]
    fn snapshot(&mut self, src: &PacketState) -> Box<PacketState> {
        self.read_high = self.read_high.max(src.map_reads.len());
        match self.free.pop() {
            Some(mut b) => {
                b.assign_from(src, self.groups, &mut self.keys);
                b
            }
            None => Box::new(src.clone()),
        }
    }

    fn recycle(&mut self, mut b: Box<PacketState>) {
        if self.free.len() < Self::CAP {
            b.map_reads.reserve(self.read_high.saturating_sub(b.map_reads.len()));
            self.free.push(b);
        }
    }

    /// A recycled key buffer (allocation-free when warm).
    fn take_key(&mut self) -> Vec<u8> {
        self.keys.pop().unwrap_or_default()
    }

    fn recycle_key(&mut self, k: Vec<u8>) {
        pool_key(&mut self.keys, k);
    }

    /// Pool a retired in-flight frame for reuse: its checkpoints, resume
    /// snapshot and read keys go to their own pools, the other buffers
    /// stay inside.
    fn recycle_flight(&mut self, mut f: Box<InFlight>) {
        for (_, b) in f.checkpoints.drain(..) {
            self.recycle(b);
        }
        if let Some((_, b)) = f.resume.take() {
            self.recycle(b);
        }
        for (_, _, k) in f.state.map_reads.drain(..) {
            self.recycle_key(k);
        }
        if self.flights.len() < Self::CAP {
            self.flights.push(f);
        }
    }
}

/// One packet in flight. `repr(C)`, hot fields first (see
/// [`PacketState`]).
#[derive(Debug, Clone)]
#[repr(C)]
struct InFlight {
    seq: u64,
    /// Set while replaying up to a checkpoint after a flush.
    resume: Option<(usize, Box<PacketState>)>,
    state: PacketState,
    injected_cycle: u64,
    orig: Vec<u8>,
    /// Post-side-effect snapshots in ascending stage order (App. A.2
    /// elastic buffers): `(resume_stage, state)`.
    checkpoints: Vec<(usize, Box<PacketState>)>,
}

/// A pipeline slot: its occupant and the occupant's idle tag
/// ([`InFlight::idle`]), kept beside the pointer so a visit below the tag
/// moves the packet without reading it, and the cycles it held a packet
/// (occupancy telemetry).
#[derive(Debug, Clone, Default)]
struct Slot {
    pkt: Option<Box<InFlight>>,
    idle: u32,
    occupied: u64,
}

impl Slot {
    fn hold(&mut self, pkt: Box<InFlight>, idle: u32) {
        self.pkt = Some(pkt);
        self.idle = idle;
    }
}

#[derive(Debug, Clone)]
enum WriteKind {
    Update { key: Vec<u8>, value: Vec<u8>, flags: UpdateFlags },
    Delete { key: Vec<u8> },
    StoreValue { slot: usize, off: usize, size: MemSize, value: u64 },
}

#[derive(Debug, Clone)]
struct PendingWrite {
    commit_cycle: u64,
    map: u32,
    seq: u64,
    kind: WriteKind,
}

/// The cycle-accurate simulator of one compiled design.
///
/// ```
/// use ehdl_core::Compiler;
/// use ehdl_ebpf::asm::Asm;
/// use ehdl_ebpf::Program;
/// use ehdl_hwsim::PipelineSim;
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 3); // XDP_TX
/// a.exit();
/// let design = Compiler::new().compile(&Program::from_insns(a.into_insns()))?;
/// let mut sim = PipelineSim::new(&design);
/// sim.enqueue(vec![0u8; 64]);
/// sim.settle(10_000);
/// let out = sim.drain().remove(0);
/// assert_eq!(out.action, ehdl_ebpf::vm::XdpAction::Tx);
/// assert_eq!(out.latency_cycles as usize, design.stage_count());
/// # Ok::<(), ehdl_core::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim {
    /// The design fixed at attach time: one fused op per stage op and
    /// every design-derived table the cycle loop reads. Shared, so the hot
    /// loop borrows it while mutating the simulator.
    plan: Arc<LoweredPlan>,
    options: SimOptions,
    /// The datapath's buffered maximum packet length and frame size.
    max_packet_len: usize,
    frame_size: usize,
    protect: Protection,
    /// What only the validation modes read of the design, if one is on.
    checks: Option<Box<Checks>>,
    maps: MapStore,
    slots: Vec<Slot>,
    rx: VecDeque<Box<InFlight>>,
    pending_writes: Vec<PendingWrite>,
    out: Vec<SimOutcome>,
    counters: SimCounters,
    cycle: u64,
    next_seq: u64,
    /// Injection blocked while a multi-frame packet streams in.
    inject_busy: u64,
    /// Post-flush reload bubble.
    stall: u64,
    prandom_state: u64,
    /// Reusable map key / byte-string buffers for helper calls.
    scratch_key: Vec<u8>,
    scratch_val: Vec<u8>,
    /// Pooled byte buffers backing WAR-delayed map writes, so the
    /// update/delete path is allocation-free once warm.
    buf_pool: Vec<Vec<u8>>,
    /// Checkpoint storage recycler.
    pool: StatePool,
    /// Partial-flush replay stream: evicted window packets waiting to
    /// re-enter the pipeline at `replay_entry`, oldest first.
    replay: VecDeque<Box<InFlight>>,
    /// Stage at which queued replay packets re-enter (the triggering
    /// FEB's earliest read stage).
    replay_entry: usize,
    /// Reload bubble gating the replay stream after a partial flush.
    replay_stall: u64,
    /// Hazard keys whose triggering write is still in a WAR delay buffer:
    /// the flush controller holds the replay stream until these retire,
    /// so the replayed read cannot hit the stale-risk interlock.
    replay_hold: Vec<(u32, Vec<u8>)>,
    /// Attached fault-injection engine (campaigns only; `None` keeps the
    /// hot loop fault-free at the cost of one branch per cycle).
    fault: Option<Box<FaultEngine>>,
    /// Attached host control channel (`None` keeps the hot loop free of
    /// arbitration checks).
    ctrl: Option<Box<CtrlState>>,
    /// Per map: pipeline lookups issued / hits (telemetry CSRs).
    map_lookups: Vec<u64>,
    map_hits: Vec<u64>,
    /// Externally levied whole-pipeline freeze cycles (shared-map fabric
    /// back-pressure). While non-zero, [`PipelineSim::step`] burns the
    /// cycle without moving anything — the clock-gated stall a real
    /// memory interconnect applies to a blocked requester.
    ext_stall: u64,
    /// Memory-port tap for the banked shared-map fabric (`None` keeps
    /// the hot loop free of recording).
    shared: Option<Box<SharedPort>>,
}

/// The design facts only the validation modes read: the pruning liveness
/// per stage boundary ([`SimOptions::poison_dead_state`]) and the packet
/// proof of each stage op ([`SimOptions::check_proofs`]).
#[derive(Debug, Clone)]
struct Checks {
    prune: PruneInfo,
    proofs: Vec<Vec<Option<PacketProof>>>,
}

/// Recording state behind [`PipelineSim::attach_shared_port`]: accesses
/// to *shared* maps are traced for fabric timing and (optionally) logged
/// as full read/write events for the linearizability checker. Private
/// maps are replica-local BRAM — they never touch the interconnect and
/// are not recorded.
#[derive(Debug, Clone)]
struct SharedPort {
    /// Per map id: log full events for this map.
    shared_maps: Vec<bool>,
    /// Master switch for event logging (off = timing trace only).
    log_events: bool,
    /// Map accesses since the last drain (fabric timing trace).
    accesses: Vec<MapAccess>,
    /// Full events on shared maps since the last drain.
    events: Vec<MapEvent>,
}

impl PipelineSim {
    /// Instantiate a simulator for `design` with default options.
    pub fn new(design: &PipelineDesign) -> PipelineSim {
        PipelineSim::with_options(design, SimOptions::default())
    }

    /// Instantiate with explicit options. The simulator keeps the lowered
    /// plan and the few design facts it reads, not the design; a clone
    /// shares the plan.
    ///
    /// # Panics
    ///
    /// Panics if the design has more than 512 control blocks, or if it does
    /// not lower ([`ehdl_core::LowerError`]). The verifier rejects unknown
    /// helpers and undeclared maps at load time, so only a design edited by
    /// hand after compilation can fail to lower.
    pub fn with_options(design: &PipelineDesign, options: SimOptions) -> PipelineSim {
        assert!(
            design.blocks.len() <= MAX_BLOCKS,
            "design has {} blocks; the simulator supports at most {MAX_BLOCKS}",
            design.blocks.len()
        );
        let plan = match LoweredPlan::try_lower(design) {
            Ok(lp) => Arc::new(lp),
            Err(e) => panic!("the design does not lower: {e}"),
        };
        let checks = (options.poison_dead_state || options.check_proofs).then(|| {
            Box::new(Checks {
                prune: design.prune.clone(),
                proofs: design
                    .stages
                    .iter()
                    .map(|st| st.ops.iter().map(|op| op.proof).collect())
                    .collect(),
            })
        });
        let nstages = plan.stage_count();
        let nmaps = design.maps.len();
        PipelineSim {
            options,
            max_packet_len: design.framing.max_packet_len,
            frame_size: design.framing.frame_size,
            protect: design.protect,
            checks,
            maps: MapStore::new(&design.maps),
            slots: vec![Slot::default(); nstages],
            rx: VecDeque::new(),
            pending_writes: Vec::new(),
            out: Vec::new(),
            counters: SimCounters::default(),
            cycle: 0,
            next_seq: 0,
            inject_busy: 0,
            stall: 0,
            prandom_state: 0x9e37_79b9_7f4a_7c15,
            scratch_key: Vec::new(),
            scratch_val: Vec::new(),
            buf_pool: Vec::new(),
            replay: VecDeque::new(),
            replay_entry: 0,
            replay_stall: 0,
            replay_hold: Vec::new(),
            pool: StatePool {
                free: Vec::new(),
                keys: Vec::new(),
                flights: Vec::new(),
                read_high: 0,
                groups: plan.block_count().div_ceil(64).max(1),
            },
            plan,
            fault: None,
            ctrl: None,
            map_lookups: vec![0; nmaps],
            map_hits: vec![0; nmaps],
            ext_stall: 0,
            shared: None,
        }
    }

    /// Per-map pipeline lookup counts (telemetry CSRs).
    pub fn map_lookups(&self) -> &[u64] {
        &self.map_lookups
    }

    /// Per-map pipeline lookup hits (telemetry CSRs).
    pub fn map_hits(&self) -> &[u64] {
        &self.map_hits
    }

    /// Per-stage occupied-cycle counts (occupancy telemetry).
    pub fn stage_occupancy(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.occupied).collect()
    }

    /// The live maps (host view).
    pub fn maps(&self) -> &MapStore {
        &self.maps
    }

    /// Mutable map access (host control plane).
    pub fn maps_mut(&mut self) -> &mut MapStore {
        &mut self.maps
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Event counters.
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Packets currently inside the pipeline.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.pkt.is_some()).count()
    }

    /// Packets waiting in the RX queue (the ingress async FIFO).
    pub fn rx_queued(&self) -> usize {
        self.rx.len()
    }

    /// Queue a packet for injection. Returns `false` (and counts a drop)
    /// if the RX queue is full or the frame exceeds the datapath's
    /// maximum packet length; see [`PipelineSim::try_enqueue`] for the
    /// reason.
    pub fn enqueue(&mut self, packet: Vec<u8>) -> bool {
        self.try_enqueue(packet).is_ok()
    }

    /// Whether the RX queue can accept another arrival right now. Lets a
    /// steering front end apply backpressure (hold the frame at ingress)
    /// instead of offering a frame that would be dropped and counted.
    pub fn rx_has_space(&self) -> bool {
        self.rx.len() < self.options.rx_queue_depth
    }

    /// Queue a packet for injection, reporting *why* a frame is refused.
    ///
    /// Runts (even empty frames) and truncated headers are accepted —
    /// the MAC delivers them and the program's own bounds checks decide,
    /// exactly as in the reference VM. Frames longer than the design's
    /// `max_packet_len` never fit the datapath buffer and are dropped at
    /// ingress, as a real NIC MAC drops oversized frames. Both refusals
    /// count as `rx_dropped`.
    ///
    /// # Errors
    ///
    /// [`SimError::FrameTooLarge`] for oversized frames,
    /// [`SimError::QueueFull`] when the RX queue is at capacity.
    pub fn try_enqueue(&mut self, packet: Vec<u8>) -> Result<(), SimError> {
        if packet.len() > self.max_packet_len {
            self.counters.rx_dropped = self.counters.rx_dropped.saturating_add(1);
            return Err(SimError::FrameTooLarge { len: packet.len(), max: self.max_packet_len });
        }
        if self.rx.len() >= self.options.rx_queue_depth {
            self.counters.rx_dropped = self.counters.rx_dropped.saturating_add(1);
            return Err(SimError::QueueFull { depth: self.options.rx_queue_depth });
        }
        // Reuse a retired in-flight frame wholesale, resetting the state in
        // place (which re-zeros only the dirty regions and recycles leftover
        // read keys). The frame kept its datapath buffer and gave its
        // original-bytes buffer to the outcome (`complete`), so the caller's
        // `packet` takes that place and a warm enqueue allocates nothing.
        let mut b = self.pool.flights.pop().unwrap_or_else(|| {
            Box::new(InFlight {
                seq: 0,
                resume: None,
                state: PacketState {
                    idle: 0,
                    action: None,
                    data_off: 0,
                    end_off: 0,
                    pred: Predication::default(),
                    regs: [0; 11],
                    redirect: None,
                    read_filter: 0,
                    buf_lo: 0,
                    stack_lo: STACK_SIZE as usize,
                    buf: Vec::new(),
                    map_reads: Vec::new(),
                    stack: [0; STACK_SIZE as usize],
                },
                injected_cycle: 0,
                orig: Vec::new(),
                checkpoints: Vec::new(),
            })
        });
        b.state.reset(&packet, self.pool.groups, &mut self.pool.keys);
        b.orig = packet;
        b.seq = self.next_seq;
        b.injected_cycle = 0;
        self.rx.push_back(b);
        self.next_seq += 1;
        Ok(())
    }

    /// Number of frames a packet occupies on the datapath.
    fn frames_of(&self, len: usize) -> u64 {
        (len.max(1)).div_ceil(self.frame_size) as u64
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        // External memory-fabric back-pressure: a pending stall freezes
        // the whole pipeline for the cycle (clock gating), exactly like a
        // blocked requester port. Nothing moves — not even injection.
        if self.ext_stall > 0 {
            self.ext_stall -= 1;
            self.cycle += 1;
            self.counters.mem_stall_cycles = self.counters.mem_stall_cycles.saturating_add(1);
            return;
        }

        // 0. Fault engine tick (scrub, watchdog, stuck-at sites, new
        // injections) — before anything moves this cycle, like the
        // asynchronous upset it models.
        if self.fault.is_some() {
            self.fault_cycle();
        }

        // 1. Commit due buffered map writes (oldest first).
        self.commit_due_writes();

        // 1b. Host control channel: apply the head-of-queue op once its
        // arrival latency has elapsed and its ordering fence holds.
        if self.ctrl.is_some() {
            self.ctrl_cycle();
        }

        // 2. Advance the pipeline from the back. One refcount bump per cycle
        // lets every stage borrow the plan while `self` stays mutable.
        // A regular cycle (no fault engine, host channel, queued replay
        // stream or poison diagnostics) starts on the no-hook walk; the
        // first flush makes the pipeline irregular, and the stages below it
        // finish the cycle on the hooked walk. The flushing stage's own
        // re-entry port needs no poll: a replay stream re-enters strictly
        // below the stage that raised it (a FEB read precedes its write).
        let lp = Arc::clone(&self.plan);
        let nstages = self.slots.len();
        let mut s = nstages;
        let regular = self.fault.is_none()
            && self.ctrl.is_none()
            && self.replay.is_empty()
            && !self.options.poison_dead_state;
        if regular {
            while s > 0 {
                s -= 1;
                if self.step_stage::<false>(s, nstages, &lp) {
                    break;
                }
            }
        }
        while s > 0 {
            s -= 1;
            self.step_stage::<true>(s, nstages, &lp);
        }

        // 3. Injection.
        self.inject_cycle();
        self.cycle += 1;
    }

    /// One stage of the pipeline walk: stall checks, execution,
    /// advance/flush handling, and the partial-flush re-entry port. Returns
    /// whether the stage raised a flush.
    ///
    /// A visit below the occupant's idle tag ([`InFlight::idle`]) moves the
    /// pointer and the tag on without reading the packet.
    ///
    /// `HOOKS` compiles in what only an irregular pipeline needs: the stall
    /// checks, the dead-state poison and the re-entry port. Without a fault
    /// engine, a host channel or a queued replay stream none of them can
    /// fire — the walk runs back to front, so the slot ahead of every packet
    /// has already been vacated — and the `false` instantiation drops them
    /// from the hot loop.
    fn step_stage<const HOOKS: bool>(
        &mut self,
        s: usize,
        nstages: usize,
        lp: &LoweredPlan,
    ) -> bool {
        let mut flushed = false;
        let slot = &mut self.slots[s];
        let idle = slot.idle;
        if let Some(mut pkt) = slot.pkt.take() {
            slot.occupied = slot.occupied.saturating_add(1);
            // A packet may not advance into an occupied slot, nor past
            // the re-entry stage of a pending partial-flush replay
            // stream (the queued packets are older and go first). A
            // blocked packet holds its slot and defers execution. A
            // stage whose control logic a fault has hung blocks
            // unconditionally until something clears the hang. The
            // host-port arbiter adds two holds while an op is queued:
            // younger packets stall before irreversibly writing the
            // op's map, and before retiring a read the op is about to
            // invalidate.
            let blocked = HOOKS
                && (self.fault.as_ref().is_some_and(|f| f.hang.map(|h| h.stage) == Some(s))
                    || (s + 1 < nstages
                        && (self.slots[s + 1].pkt.is_some()
                            || (s + 1 == self.replay_entry && !self.replay.is_empty())))
                    || self.ctrl_effect_stall(s, pkt.seq)
                    || (s + 1 == nstages && self.ctrl_retire_stall(s, &pkt)));
            if blocked {
                self.slots[s].hold(pkt, idle);
                return false;
            }
            let (result, idle) = if (s as u32) < idle {
                (StageResult::Ok, idle)
            } else {
                (self.exec_stage(s, &mut pkt, lp), pkt.state.idle)
            };
            match result {
                StageResult::FlushSelf => {
                    // Reading packet saw a stale location: it and
                    // everything younger re-executes (re-reading from
                    // its latest checkpoint repairs the value).
                    self.slots[s].hold(pkt, idle);
                    self.flush_below(s + 1, s, None);
                    flushed = true;
                }
                result => {
                    // On a flush below, the writer (this packet) keeps
                    // going.
                    if s + 1 == nstages {
                        self.complete(pkt);
                    } else {
                        if HOOKS {
                            self.poison_dead(&mut pkt, s + 1);
                        }
                        self.place_in_slot(s + 1, pkt, idle);
                    }
                    if let StageResult::FlushBelow { boundary, read_stage, map, key } = result {
                        self.flush_below(boundary, read_stage, Some((map, key)));
                        flushed = true;
                    }
                }
            }
        }
        // Partial-flush replay stream: evictees re-enter at the
        // window's read stage, one per cycle after the reload bubble,
        // once the triggering write has retired from its delay buffer.
        if HOOKS && s == self.replay_entry && !self.replay.is_empty() && self.slots[s].pkt.is_none()
        {
            if self.replay_stall > 0 {
                self.replay_stall -= 1;
            } else {
                self.retire_replay_holds();
                if self.replay_hold.is_empty() {
                    let pkt = self.replay.pop_front().expect("replay checked non-empty");
                    let idle = pkt.idle();
                    self.slots[s].hold(pkt, idle);
                }
            }
        }
        flushed
    }

    /// Stage-0 injection port: reload bubbles, multi-frame pacing, and the
    /// replay-stream priority hold.
    fn inject_cycle(&mut self) {
        if self.stall > 0 {
            self.stall -= 1;
        } else if self.inject_busy > 0 {
            self.inject_busy -= 1;
        } else if self.slots.first().is_some_and(|s| s.pkt.is_none())
            && (self.replay.is_empty() || self.replay_entry != 0)
        {
            if let Some(mut pkt) = self.rx.pop_front() {
                pkt.injected_cycle = self.cycle;
                self.inject_busy = self.frames_of(pkt.orig.len()).saturating_sub(1);
                self.counters.injected = self.counters.injected.saturating_add(1);
                let idle = pkt.idle();
                self.place_in_slot(0, pkt, idle);
            }
        }
    }

    /// Run until the pipeline and queues are empty (or `max_cycles` pass).
    pub fn settle(&mut self, max_cycles: u64) {
        let mut budget = max_cycles;
        while (self.in_flight() > 0
            || !self.rx.is_empty()
            || !self.replay.is_empty()
            || !self.pending_writes.is_empty()
            || self.host_ops_pending() > 0)
            && budget > 0
        {
            self.step();
            budget -= 1;
        }
    }

    /// Take all completed packets (in completion order = arrival order).
    pub fn drain(&mut self) -> Vec<SimOutcome> {
        std::mem::take(&mut self.out)
    }

    /// Attach the shared-map memory-port tap ([`crate::shared::ShardedNic`]).
    ///
    /// Accesses to the maps listed in `shared_maps` are traced as
    /// [`MapAccess`]es for fabric timing and, when `log_events` is set,
    /// additionally logged as full [`MapEvent`]s feeding the per-key
    /// linearizability checker. Accesses to other maps hit replica-local
    /// BRAM and are not recorded — only shared traffic pays the
    /// interconnect toll.
    pub fn attach_shared_port(&mut self, shared_maps: &[u32], log_events: bool) {
        let mut flags = vec![false; self.map_lookups.len()];
        for &m in shared_maps {
            if let Some(f) = flags.get_mut(m as usize) {
                *f = true;
            }
        }
        self.shared = Some(Box::new(SharedPort {
            shared_maps: flags,
            log_events,
            accesses: Vec::new(),
            events: Vec::new(),
        }));
    }

    /// Move the map accesses recorded since the last drain into `into`
    /// (appending; `into` is not cleared). No-op without an attached port.
    pub fn drain_map_accesses(&mut self, into: &mut Vec<MapAccess>) {
        if let Some(p) = self.shared.as_deref_mut() {
            into.append(&mut p.accesses);
        }
    }

    /// Move the shared-map events recorded since the last drain into
    /// `into` (appending). No-op without an attached port.
    pub fn drain_map_events(&mut self, into: &mut Vec<MapEvent>) {
        if let Some(p) = self.shared.as_deref_mut() {
            into.append(&mut p.events);
        }
    }

    /// Freeze the pipeline for `cycles` additional cycles (shared-map
    /// fabric back-pressure: bank-conflict serialization and access
    /// latency). Stalls accumulate.
    pub fn add_mem_stall(&mut self, cycles: u64) {
        self.ext_stall = self.ext_stall.saturating_add(cycles);
    }

    /// Externally levied stall cycles not yet burned.
    pub fn mem_stall_pending(&self) -> u64 {
        self.ext_stall
    }

    /// Is the pipeline completely idle (nothing in flight, queued,
    /// replaying, buffered, or pending on the host channel)?
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0
            && self.rx.is_empty()
            && self.replay.is_empty()
            && self.pending_writes.is_empty()
            && self.host_ops_pending() == 0
    }

    /// Fail-stop teardown: the pipeline's clock domain is gone (replica
    /// death in a [`crate::shared::ShardedNic`]). Returns
    /// `(drained, discarded)` sequence numbers, both sorted:
    ///
    /// - **drained** — frames still waiting in the ingress FIFO. They
    ///   never entered the pipeline and are punted back to the host,
    ///   recoverable by re-transmission or software fallback.
    /// - **discarded** — packets mid-pipeline or queued for replay when
    ///   the clock died. Their partial state is unrecoverable; they are
    ///   counted, never silently lost.
    ///
    /// Buffered map writes whose owner already retired are force-committed
    /// (the owner's completion is architecturally visible, so losing the
    /// write would corrupt storage); writes belonging to discarded packets
    /// die with them. Already-retired outcomes stay in the output buffer.
    /// Afterwards the simulator [`PipelineSim::is_idle`]s with maps
    /// intact, ready for a cold restart on re-admission.
    pub fn fail_stop(&mut self) -> (Vec<u64>, Vec<u64>) {
        let mut doomed: Vec<Box<InFlight>> =
            self.slots.iter_mut().filter_map(|slot| slot.pkt.take()).collect();
        doomed.extend(self.replay.drain(..));
        let mut discarded: Vec<u64> = doomed.iter().map(|p| p.seq).collect();
        let mut rx_frames: Vec<Box<InFlight>> = self.rx.drain(..).collect();
        let mut drained: Vec<u64> = rx_frames.iter().map(|p| p.seq).collect();
        // Commit buffered writes of retired packets; drop the rest.
        let pending = std::mem::take(&mut self.pending_writes);
        for w in &pending {
            if !discarded.contains(&w.seq) && !drained.contains(&w.seq) {
                self.apply_write(w);
            }
        }
        for pkt in doomed.drain(..).chain(rx_frames.drain(..)) {
            self.pool.recycle_flight(pkt);
        }
        self.replay_hold.clear();
        self.replay_entry = 0;
        self.replay_stall = 0;
        self.stall = 0;
        self.inject_busy = 0;
        self.ext_stall = 0;
        drained.sort_unstable();
        discarded.sort_unstable();
        self.counters.failstop_drained =
            self.counters.failstop_drained.saturating_add(drained.len() as u64);
        self.counters.failstop_discarded =
            self.counters.failstop_discarded.saturating_add(discarded.len() as u64);
        (drained, discarded)
    }

    /// Record a map read on the shared port (call only when attached).
    #[inline(never)]
    fn note_map_read(&mut self, map: u32, key: &[u8], slot: Option<usize>) {
        let Some(p) = self.shared.as_deref_mut() else { return };
        if !p.shared_maps.get(map as usize).copied().unwrap_or(false) {
            return;
        }
        p.accesses.push(MapAccess { key_hash: map_key_hash(map, key) });
        if p.log_events {
            let value = match slot {
                Some(s) => self.maps.get(map).map(|m| m.value(s).to_vec()).unwrap_or_default(),
                None => Vec::new(),
            };
            p.events.push(MapEvent {
                map,
                key: key.to_vec(),
                value,
                kind: MapEventKind::Read { hit: slot.is_some() },
            });
        }
    }

    /// Record an immediate map update on the shared port.
    #[inline(never)]
    fn note_map_update(&mut self, map: u32, key: &[u8], value: &[u8]) {
        let Some(p) = self.shared.as_deref_mut() else { return };
        if !p.shared_maps.get(map as usize).copied().unwrap_or(false) {
            return;
        }
        p.accesses.push(MapAccess { key_hash: map_key_hash(map, key) });
        if p.log_events {
            p.events.push(MapEvent {
                map,
                key: key.to_vec(),
                value: value.to_vec(),
                kind: MapEventKind::Write,
            });
        }
    }

    /// Record an immediate map delete on the shared port.
    #[inline(never)]
    fn note_map_delete(&mut self, map: u32, key: &[u8]) {
        let Some(p) = self.shared.as_deref_mut() else { return };
        if !p.shared_maps.get(map as usize).copied().unwrap_or(false) {
            return;
        }
        p.accesses.push(MapAccess { key_hash: map_key_hash(map, key) });
        if p.log_events {
            p.events.push(MapEvent {
                map,
                key: key.to_vec(),
                value: Vec::new(),
                kind: MapEventKind::Delete,
            });
        }
    }

    /// Record an in-place atomic (read-modify-write) on the shared port:
    /// one fabric access, logged as a write of the post-update value.
    #[inline(never)]
    fn note_map_atomic(&mut self, map: u32, slot: usize) {
        let Some(p) = self.shared.as_deref_mut() else { return };
        if !p.shared_maps.get(map as usize).copied().unwrap_or(false) {
            return;
        }
        let Some(m) = self.maps.get(map) else { return };
        let key = m.key_of(slot);
        p.accesses.push(MapAccess { key_hash: map_key_hash(map, key) });
        if p.log_events {
            p.events.push(MapEvent {
                map,
                key: key.to_vec(),
                value: m.value(slot).to_vec(),
                kind: MapEventKind::Write,
            });
        }
    }

    /// Record a committed [`PendingWrite`] (WAR-delayed commits, own-write
    /// forwarding, and immediate value stores all land here) on the
    /// shared port, at the moment it actually mutates storage.
    #[inline(never)]
    fn note_applied_write(&mut self, w: &PendingWrite) {
        match &w.kind {
            WriteKind::Update { key, value, .. } => self.note_map_update(w.map, key, value),
            WriteKind::Delete { key } => self.note_map_delete(w.map, key),
            WriteKind::StoreValue { slot, .. } => self.note_map_atomic(w.map, *slot),
        }
    }

    fn complete(&mut self, mut pkt: Box<InFlight>) {
        let faulted = pkt.state.idle == FAULTED;
        let action = match (faulted, pkt.state.action) {
            (true, _) => XdpAction::Drop,
            (false, Some(a)) => a,
            (false, None) => XdpAction::Aborted,
        };
        if faulted {
            self.counters.bounds_faults = self.counters.bounds_faults.saturating_add(1);
        }
        let latency_cycles = self.cycle - pkt.injected_cycle;
        self.counters.completed = self.counters.completed.saturating_add(1);
        // The outcome leaves in the buffer the packet arrived in (the
        // original bytes are dead once it retires), refilled with the final
        // bytes. The rest of the frame — the box, the drained
        // checkpoint/read vectors, the headroom-sized datapath buffer —
        // goes back to the pool whole for the next injection, so a packet
        // costs no allocation and the outcomes hold no headroom.
        let mut packet = std::mem::take(&mut pkt.orig);
        packet.clear();
        let end = pkt.state.end_off.min(pkt.state.buf.len());
        packet.extend_from_slice(&pkt.state.buf[pkt.state.data_off..end]);
        self.out.push(SimOutcome {
            seq: pkt.seq,
            action,
            redirect_ifindex: if action == XdpAction::Redirect { pkt.state.redirect } else { None },
            packet,
            latency_cycles,
            latency_ns: latency_cycles as f64 * CLOCK_NS + SHELL_LATENCY_NS,
        });
        self.pool.recycle_flight(pkt);
    }

    /// Place `pkt` into slot `t`, taking a forced checkpoint first when
    /// `t` is a FEB read stage (or, with a host control channel attached,
    /// any lookup stage): partial flushes re-enter the pipeline at
    /// the window's read stage, so every packet inside the window must be
    /// resumable from there (or later). The state on *entering* slot `t`
    /// is exactly the pre-execution state of stage `t`, so snapshotting
    /// here also covers packets flushed out of the slot before they run.
    /// Skipped while a resume snapshot is pending (the packet's live state
    /// is downstream of `t`'s input) and when the last checkpoint already
    /// sits at `t`. Idle packets take it too: the one read of an idle visit.
    #[inline(always)]
    fn place_in_slot(&mut self, t: usize, mut pkt: Box<InFlight>, idle: u32) {
        let st = self.plan.stage(t);
        if (st.checkpoint || self.ctrl.is_some() && st.lookup)
            && self.options.partial_flush
            && pkt.resume.is_none()
            && pkt.checkpoints.last().map(|(cs, _)| *cs) != Some(t)
        {
            let snap = self.pool.snapshot(&pkt.state);
            pkt.checkpoints.push((t, snap));
        }
        self.slots[t].hold(pkt, idle);
    }

    /// Flush all pipeline slots below `boundary`.
    ///
    /// `trigger` identifies the hazard: packets holding an unconfirmed read
    /// of that key must roll back past their earliest matching read to
    /// repair it; innocent bystanders resume from their latest checkpoint,
    /// so their committed side effects are never replayed (App. A.2).
    ///
    /// With `partial_flush` on and a FEB trigger, only the hazard window
    /// `[read_stage, boundary)` is evicted and replayed — the flush cost
    /// drops from `boundary + reload` to `window + reload` cycles.
    fn flush_below(&mut self, boundary: usize, read_stage: usize, trigger: Option<(u32, Vec<u8>)>) {
        if self.options.partial_flush {
            if let Some((map, key)) = trigger {
                self.partial_flush(boundary, read_stage, map, key);
                return;
            }
        }
        let limit = |st: &PacketState| match &trigger {
            Some((m, k)) => matching_read_limit(st, *m, k),
            None => usize::MAX,
        };
        let n = self.reinject_below(boundary, limit, |_| {});
        if n == 0 {
            return;
        }
        self.counters.flushes = self.counters.flushes.saturating_add(1);
        self.counters.flush_replays = self.counters.flush_replays.saturating_add(n);
    }

    /// Pull every packet below `boundary`, and the whole queued replay
    /// stream, back to the front of the RX queue in arrival order: each is
    /// rolled back to `limit(state)` (`usize::MAX`: its latest checkpoint)
    /// and handed to `fix`, and the front end takes the reload bubble. The
    /// replay stream's packets are older than anything below its entry
    /// stage, so they re-enter from the front too. Returns how many packets
    /// re-enter; 0 leaves everything but the replay holds untouched.
    fn reinject_below(
        &mut self,
        boundary: usize,
        limit: impl Fn(&PacketState) -> usize,
        mut fix: impl FnMut(&mut InFlight),
    ) -> u64 {
        let mut replay = Vec::new();
        for s in (0..boundary.min(self.slots.len())).rev() {
            if let Some(pkt) = self.slots[s].pkt.take() {
                replay.push(pkt); // oldest first
            }
        }
        replay.extend(self.replay.drain(..));
        self.replay_hold.clear();
        if replay.is_empty() {
            return 0;
        }
        replay.sort_by_key(|p| p.seq);
        let n = replay.len() as u64;
        for mut pkt in replay.into_iter().rev() {
            let limit = limit(&pkt.state);
            pkt.reset_for_replay(limit, &mut self.pool);
            fix(&mut pkt);
            self.counters.injected = self.counters.injected.saturating_sub(1);
            self.rx.push_front(pkt);
        }
        self.stall = self.stall.max(FLUSH_RELOAD_CYCLES);
        self.inject_busy = 0;
        n
    }

    /// Partial flush (App. A.1): evict only the hazard window
    /// `[entry, boundary)` into the replay stream, which re-enters the
    /// pipeline at `entry` after the reload bubble. Packets below the
    /// window keep flowing and stall behind the stream; packets below the
    /// window that still hold an unconfirmed read of the key (replaying
    /// after an earlier flush) are pulled back as well.
    fn partial_flush(&mut self, boundary: usize, entry: usize, map: u32, key: Vec<u8>) {
        let had_stream = !self.replay.is_empty();
        let mut evicted: Vec<Box<InFlight>> = Vec::new();
        for s in (entry..boundary.min(self.slots.len())).rev() {
            if let Some(pkt) = self.slots[s].pkt.take() {
                evicted.push(pkt); // oldest first
            }
        }
        for s in (0..entry.min(self.slots.len())).rev() {
            let stale = self.slots[s]
                .pkt
                .as_ref()
                .is_some_and(|p| matching_read_limit(&p.state, map, &key) != usize::MAX);
            if stale {
                evicted.push(self.slots[s].pkt.take().expect("stale slot checked above"));
            }
        }
        // Roll back stale packets already queued from an earlier
        // overlapping flush so their repaired read re-executes too.
        let mut queue_rolled = 0u64;
        for pkt in self.replay.iter_mut() {
            let limit = matching_read_limit(&pkt.state, map, &key);
            if limit != usize::MAX {
                pkt.reset_for_replay(limit, &mut self.pool);
                queue_rolled += 1;
            }
        }
        if evicted.is_empty() && queue_rolled == 0 {
            return;
        }
        self.counters.flushes = self.counters.flushes.saturating_add(1);
        self.counters.flush_replays =
            self.counters.flush_replays.saturating_add(evicted.len() as u64);
        for mut pkt in evicted {
            // Stale readers roll back below their earliest matching read;
            // innocents resume from their latest checkpoint. Both have a
            // forced checkpoint at (or above) `entry`, so every queued
            // packet can re-enter the pipeline there.
            let limit = matching_read_limit(&pkt.state, map, &key);
            pkt.reset_for_replay(limit, &mut self.pool);
            self.replay.push_back(pkt);
        }
        // Merge with any pending stream: keep arrival order and re-enter
        // at the lowest read stage involved.
        self.replay.make_contiguous().sort_by_key(|p| p.seq);
        self.replay_entry = if had_stream { self.replay_entry.min(entry) } else { entry };
        // The flush controller holds the replay until the triggering
        // write has retired from its WAR delay buffer — otherwise the
        // replayed read would hit the stale-risk interlock and escalate
        // to a full flush. The hold is dynamic (checked against
        // `pending_writes` at re-entry) because a delayed write can
        // retire early when its own packet reads it back.
        let write_pending = self
            .pending_writes
            .iter()
            .any(|w| w.map == map && self.pending_write_key_matches(w, &key));
        if write_pending && !self.replay_hold.iter().any(|(m, k)| *m == map && *k == key) {
            self.replay_hold.push((map, key));
        }
        self.replay_stall = self.replay_stall.max(FLUSH_RELOAD_CYCLES);
    }

    /// Drop replay holds whose pending write has retired.
    fn retire_replay_holds(&mut self) {
        if self.replay_hold.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.replay_hold);
        self.replay_hold = pending
            .into_iter()
            .filter(|(m, k)| {
                self.pending_writes
                    .iter()
                    .any(|w| w.map == *m && self.pending_write_key_matches(w, k))
            })
            .collect();
    }

    /// Does a pending write target `key`?
    fn pending_write_key_matches(&self, w: &PendingWrite, key: &[u8]) -> bool {
        match &w.kind {
            WriteKind::Update { key: k, .. } | WriteKind::Delete { key: k } => k == key,
            WriteKind::StoreValue { slot, .. } => {
                self.maps.get(w.map).is_some_and(|m| m.key_of(*slot) == key)
            }
        }
    }

    fn commit_due_writes(&mut self) {
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.pending_writes.len() {
            if self.pending_writes[i].commit_cycle <= cycle {
                let w = self.pending_writes.remove(i);
                self.apply_write(&w);
                self.recycle_write(w);
            } else {
                i += 1;
            }
        }
    }

    fn apply_write(&mut self, w: &PendingWrite) {
        let Some(map) = self.maps.get_mut(w.map) else { return };
        match &w.kind {
            WriteKind::Update { key, value, flags } => {
                let _ = map.update(key, value, *flags);
            }
            WriteKind::Delete { key } => {
                let _ = map.delete(key);
            }
            WriteKind::StoreValue { slot, off, size, value } => {
                let _ = store_le(map.value_mut(*slot), *off, *size, *value);
            }
        }
        if self.shared.is_some() {
            self.note_applied_write(w);
        }
    }

    /// Commit any buffered writes of `seq` on `map` (store-to-load
    /// forwarding: a packet always observes its own earlier writes).
    fn forward_own_writes(&mut self, map: u32, seq: u64) {
        let mut i = 0;
        while i < self.pending_writes.len() {
            if self.pending_writes[i].map == map && self.pending_writes[i].seq == seq {
                let w = self.pending_writes.remove(i);
                self.apply_write(&w);
                self.recycle_write(w);
            } else {
                i += 1;
            }
        }
    }

    /// Does any *other* packet have an uncommitted write to `key` on `map`?
    fn stale_risk(&self, map: u32, seq: u64, key: &[u8]) -> bool {
        self.pending_writes
            .iter()
            .any(|w| w.map == map && w.seq != seq && self.pending_write_key_matches(w, key))
    }

    fn time_ns(&self) -> u64 {
        self.options.freeze_time_ns.unwrap_or((self.cycle as f64 * CLOCK_NS) as u64)
    }

    fn prandom(&mut self) -> u64 {
        let mut x = self.prandom_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prandom_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 32
    }

    /// Evaluate block `block`'s enable at its entry stage: some
    /// predecessor is enabled and its edge condition holds. Every
    /// predecessor owning an entry stage ran it earlier, so its enable is
    /// known; [`PipelineSim::block_enabled`] resolves the rest.
    #[inline(always)]
    fn enable_at_entry(&self, pkt: &mut PacketState, block: usize) -> bool {
        let e = block == 0
            || self.plan.preds_of(block).iter().any(|&(p, cond)| {
                let p = p as usize;
                pkt.pred.get(ENABLE, p).unwrap_or_else(|| self.block_enabled(pkt, p))
                    && match cond {
                        EdgeCond::Always => true,
                        EdgeCond::IfTaken => pkt.pred.get(TAKEN, p) == Some(true),
                        EdgeCond::IfNotTaken => pkt.pred.get(TAKEN, p) == Some(false),
                    }
            });
        pkt.pred.set(ENABLE, block, e);
        e
    }

    /// The memoized enable of a block that owns no entry stage (all of
    /// its instructions were optimized away) yet still routes control to
    /// its successors.
    #[cold]
    #[inline(never)]
    fn block_enabled(&self, pkt: &mut PacketState, block: usize) -> bool {
        pkt.pred.get(ENABLE, block).unwrap_or_else(|| self.enable_at_entry(pkt, block))
    }

    /// In poison mode, clobber all state the pruning analysis declared
    /// dead at the boundary entering `stage` — emulating the wires the
    /// real hardware simply does not have (§4.3).
    fn poison_dead(&self, pkt: &mut InFlight, stage: usize) {
        if !self.options.poison_dead_state || pkt.resume.is_some() {
            return;
        }
        let Some(prune) = self.checks.as_ref().map(|c| &c.prune) else { return };
        let (Some(&live_regs), Some(live_stack)) =
            (prune.live_regs.get(stage), prune.live_stack.get(stage))
        else {
            return;
        };
        for r in 0..11 {
            if live_regs & (1 << r) == 0 {
                pkt.state.regs[r] = 0xDEAD_DEAD_DEAD_DEAD;
            }
        }
        for (byte, sb) in pkt.state.stack.iter_mut().enumerate() {
            if live_stack[byte / 64] & (1 << (byte % 64)) == 0 {
                *sb = 0xDD;
            }
        }
        // Poison breaks the zero-below-watermark invariant; snapshots of
        // this packet must copy the full stack from now on.
        pkt.state.stack_lo = 0;
    }

    /// Decode `addr` as a map value address, `(map, slot, offset)`, and
    /// resolve that map's value size — the geometry lowering bakes into the
    /// fused map-memory ops.
    fn map_value_at(&self, addr: u64) -> Option<(u32, usize, usize, usize)> {
        let (map, slot, off) =
            decode_map_value_addr(addr, |m| self.maps.get(m).map(|x| x.def().value_stride()))?;
        Some((map, slot, off, self.maps.get(map)?.def().value_size as usize))
    }

    /// FEB comparison: does a younger in-flight packet (or a queued replay)
    /// hold an unconfirmed read of `key`?
    fn younger_read_matches(&self, write_stage: usize, map: u32, key: &[u8]) -> bool {
        let bit = read_key_bit(map, key);
        self.slots[..write_stage]
            .iter()
            .filter_map(|slot| slot.pkt.as_deref())
            .map(|p| &p.state)
            .chain(self.replay.iter().map(|p| &p.state))
            .any(|st| {
                st.read_filter & bit != 0
                    && st.map_reads.iter().any(|&(m, _, ref k)| m == map && k == key)
            })
    }

    /// Recheck the compile-time packet-bounds proof of op `i` of stage `s`
    /// against the concrete access (soundness validation,
    /// [`SimOptions::check_proofs`]). Out of line, so a fused packet access
    /// pays for the option test only.
    #[cold]
    #[inline(never)]
    fn recheck_proof(&mut self, s: usize, i: usize, addr: u64, state: &PacketState) {
        let Some(p) = self.checks.as_ref().and_then(|c| c.proofs[s][i]) else { return };
        let off = addr.wrapping_sub(PACKET_BASE) as i64 - state.data_off as i64;
        let len = (state.end_off - state.data_off) as i64;
        let held = (PACKET_BASE..STACK_BASE).contains(&addr) && (p.lo..=p.hi).contains(&off);
        if !held || len < p.min_len {
            self.counters.proof_violations = self.counters.proof_violations.saturating_add(1);
        }
    }

    fn mem_read(
        &mut self,
        state: &PacketState,
        seq: u64,
        addr: u64,
        size: MemSize,
    ) -> Result<u64, OpAbort> {
        if (CTX_BASE..CTX_BASE + xdp_md::SIZE as u64).contains(&addr) {
            return Ok(ctx_read(state, addr, size));
        }
        let mut v = [0u8; 8];
        self.read_into(state, seq, addr, &mut v[..size.bytes()])?;
        Ok(u64::from_le_bytes(v))
    }

    /// Read `out.len()` bytes at `addr` into `out` (no allocation; the
    /// whole slice is overwritten on success).
    fn read_into(
        &mut self,
        state: &PacketState,
        seq: u64,
        addr: u64,
        out: &mut [u8],
    ) -> Result<(), OpAbort> {
        let n = out.len();
        if (PACKET_BASE..STACK_BASE).contains(&addr) {
            let off = (addr - PACKET_BASE) as usize;
            if off >= state.data_off && off + n <= state.end_off {
                out.copy_from_slice(&state.buf[off..off + n]);
                return Ok(());
            }
            return Err(OpAbort::Fault);
        }
        if (STACK_BASE..STACK_TOP).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            if off + n <= STACK_SIZE as usize {
                out.copy_from_slice(&state.stack[off..off + n]);
                return Ok(());
            }
            return Err(OpAbort::Fault);
        }
        if let Some((map_id, slot, off, value_size)) = self.map_value_at(addr) {
            return self.map_value_read(map_id, slot, off, value_size, seq, out);
        }
        Err(OpAbort::Fault)
    }

    /// Run `f` on the recycled key buffer, sized to `key_size` and zeroed;
    /// the buffer is restored on every exit path.
    fn with_scratch_key<R>(
        &mut self,
        key_size: usize,
        f: impl FnOnce(&mut PipelineSim, &mut [u8]) -> R,
    ) -> R {
        let mut key = std::mem::take(&mut self.scratch_key);
        key.clear();
        key.resize(key_size, 0);
        let r = f(self, &mut key);
        key.clear();
        self.scratch_key = key;
        r
    }

    /// Load `out.len()` bytes at `off` of a map value. An access past the
    /// value faults before the stale-risk interlock is consulted.
    #[inline(always)]
    fn map_value_read(
        &mut self,
        map: u32,
        slot: usize,
        off: usize,
        value_size: usize,
        seq: u64,
        out: &mut [u8],
    ) -> Result<(), OpAbort> {
        self.forward_own_writes(map, seq);
        if self.fault.is_some() {
            self.fault_map_read(map, slot as u32);
        }
        let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
        if off + out.len() > value_size {
            return Err(OpAbort::Fault);
        }
        if self.stale_risk(map, seq, m.key_of(slot)) {
            return Err(OpAbort::FlushSelf);
        }
        out.copy_from_slice(&m.value(slot)[off..off + out.len()]);
        Ok(())
    }

    /// Store `value` at `off` of a map value, through the WAR delay buffer
    /// when the stage has one.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn map_value_store(
        &mut self,
        stage: usize,
        map: u32,
        slot: usize,
        off: usize,
        size: MemSize,
        value: u64,
        value_size: usize,
        delay: u64,
        feb_read_stage: usize,
        seq: u64,
        ctl: &mut StageCtl,
    ) -> Result<(), OpAbort> {
        let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
        if off + size.bytes() > value_size {
            return Err(OpAbort::Fault);
        }
        let key = m.key_of(slot);
        ctl.wrote(self.younger_read_matches(stage, map, key), map, key, feb_read_stage);
        let w = PendingWrite {
            commit_cycle: self.cycle + delay,
            map,
            seq,
            kind: WriteKind::StoreValue { slot, off, size, value },
        };
        if delay == 0 {
            self.apply_write(&w);
        } else {
            self.pending_writes.push(w);
        }
        Ok(())
    }

    /// Atomic read-modify-write on a map value, executed in the map block
    /// immediately; returns the fetched (old) word. Unlike a plain load,
    /// the stale-risk interlock is consulted before the bounds check.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn map_atomic(
        &mut self,
        map: u32,
        slot: usize,
        off: usize,
        size: MemSize,
        value_size: usize,
        aop: AtomicOp,
        operand_v: u64,
        r0: u64,
        seq: u64,
        ctl: &mut StageCtl,
    ) -> Result<u64, OpAbort> {
        self.forward_own_writes(map, seq);
        if self.fault.is_some() {
            self.fault_map_read(map, slot as u32);
        }
        let n = size.bytes();
        let m = self.maps.get(map).ok_or(OpAbort::Fault)?;
        if self.stale_risk(map, seq, m.key_of(slot)) {
            return Err(OpAbort::FlushSelf);
        }
        if off + n > value_size {
            return Err(OpAbort::Fault);
        }
        let m = self.maps.get_mut(map).expect("map checked above");
        let old = load_le(m.value(slot), off, size).ok_or(OpAbort::Fault)?;
        let new = atomic_new_value(aop, old, operand_v, r0 & mask_for(size));
        store_le(m.value_mut(slot), off, size, new).ok_or(OpAbort::Fault)?;
        if self.shared.is_some() {
            self.note_map_atomic(map, slot);
        }
        ctl.side_effect = true;
        Ok(old)
    }

    /// `bpf_map_lookup_elem`: returns the value address (0 on a miss) and
    /// records the unconfirmed read in the packet state, its key in a
    /// pooled buffer.
    #[inline(always)]
    fn map_lookup(
        &mut self,
        stage: usize,
        map: u32,
        key_size: usize,
        stride: u32,
        seq: u64,
        state: &mut PacketState,
    ) -> Result<u64, OpAbort> {
        self.with_scratch_key(key_size, |sim, key| {
            sim.read_into(state, seq, state.regs[2], key)?;
            sim.forward_own_writes(map, seq);
            if sim.stale_risk(map, seq, key) {
                return Err(OpAbort::FlushSelf);
            }
            let mut record = sim.pool.take_key();
            record.extend_from_slice(key);
            let slot = sim.maps.get_mut(map).expect("map exists").lookup(key).ok().flatten();
            if let Some(c) = sim.map_lookups.get_mut(map as usize) {
                *c = c.saturating_add(1);
            }
            if slot.is_some() {
                if let Some(c) = sim.map_hits.get_mut(map as usize) {
                    *c = c.saturating_add(1);
                }
            }
            if sim.shared.is_some() {
                sim.note_map_read(map, key, slot);
            }
            let value = match slot {
                Some(slot) => {
                    if sim.fault.is_some() {
                        sim.fault_map_read(map, slot as u32);
                    }
                    map_value_addr(map, slot, stride)
                }
                None => 0,
            };
            state.read_filter |= read_key_bit(map, key);
            state.map_reads.push((map, stage as u32, record));
            Ok(value)
        })
    }

    /// `bpf_map_update_elem`. An immediate (undelayed) write commits
    /// straight from the scratch buffers; a WAR-delayed write copies into
    /// pooled storage recycled at commit time — no allocation either way.
    /// A value that cannot be read commits nothing, raises no hazard and
    /// faults the packet.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn map_update(
        &mut self,
        stage: usize,
        map: u32,
        key_size: usize,
        value_size: usize,
        delay: u64,
        feb_read_stage: usize,
        seq: u64,
        state: &PacketState,
        ctl: &mut StageCtl,
    ) -> Result<(), OpAbort> {
        self.with_scratch_key(key_size, |sim, key| {
            sim.read_into(state, seq, state.regs[2], key)?;
            // FEB: compare the write key against unconfirmed reads of
            // younger in-flight packets (§4.1.2).
            let hazard = sim.younger_read_matches(stage, map, key);
            let flags = UpdateFlags::from_raw(state.regs[4]).unwrap_or(UpdateFlags::Any);
            let mut value = std::mem::take(&mut sim.scratch_val);
            value.clear();
            value.resize(value_size, 0);
            let read = sim.read_into(state, seq, state.regs[3], &mut value);
            if read.is_ok() {
                if delay == 0 {
                    if let Some(m) = sim.maps.get_mut(map) {
                        let _ = m.update(key, &value, flags);
                    }
                    if sim.shared.is_some() {
                        sim.note_map_update(map, key, &value);
                    }
                } else {
                    let k = sim.pooled_copy(key);
                    let v = sim.pooled_copy(&value);
                    sim.pending_writes.push(PendingWrite {
                        commit_cycle: sim.cycle + delay,
                        map,
                        seq,
                        kind: WriteKind::Update { key: k, value: v, flags },
                    });
                }
            }
            value.clear();
            sim.scratch_val = value;
            read?;
            ctl.wrote(hazard, map, key, feb_read_stage);
            Ok(())
        })
    }

    /// `bpf_map_delete_elem`, immediate or WAR-delayed like an update.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn map_delete(
        &mut self,
        stage: usize,
        map: u32,
        key_size: usize,
        delay: u64,
        feb_read_stage: usize,
        seq: u64,
        state: &PacketState,
        ctl: &mut StageCtl,
    ) -> Result<(), OpAbort> {
        self.with_scratch_key(key_size, |sim, key| {
            sim.read_into(state, seq, state.regs[2], key)?;
            let hazard = sim.younger_read_matches(stage, map, key);
            if delay == 0 {
                if let Some(m) = sim.maps.get_mut(map) {
                    let _ = m.delete(key);
                }
                if sim.shared.is_some() {
                    sim.note_map_delete(map, key);
                }
            } else {
                let k = sim.pooled_copy(key);
                sim.pending_writes.push(PendingWrite {
                    commit_cycle: sim.cycle + delay,
                    map,
                    seq,
                    kind: WriteKind::Delete { key: k },
                });
            }
            ctl.wrote(hazard, map, key, feb_read_stage);
            Ok(())
        })
    }

    /// Copy `src` into a pooled byte buffer (allocation-free when warm).
    fn pooled_copy(&mut self, src: &[u8]) -> Vec<u8> {
        let mut b = self.buf_pool.pop().unwrap_or_default();
        b.clear();
        b.extend_from_slice(src);
        b
    }

    fn recycle_buf(&mut self, mut b: Vec<u8>) {
        if self.buf_pool.len() < 32 {
            b.clear();
            self.buf_pool.push(b);
        }
    }

    /// Return a retired pending write's owned buffers to the pool.
    fn recycle_write(&mut self, w: PendingWrite) {
        match w.kind {
            WriteKind::Update { key, value, .. } => {
                self.recycle_buf(key);
                self.recycle_buf(value);
            }
            WriteKind::Delete { key } => self.recycle_buf(key),
            WriteKind::StoreValue { .. } => {}
        }
    }

    /// `bpf_csum_diff(from, from_size, to, to_size, seed)`: the seed minus
    /// the `from` words plus the `to` words, truncated to 32 bits.
    #[inline(never)]
    fn csum_diff(&mut self, seq: u64, state: &PacketState) -> Result<u64, OpAbort> {
        let regs = &state.regs;
        let mut sum = regs[5] as i64;
        let mut buf = std::mem::take(&mut self.scratch_val);
        let mut r = Ok(());
        if regs[2] > 0 {
            r = self.csum_block(state, seq, regs[1], regs[2] as usize, &mut buf).map(|v| sum -= v);
        }
        if r.is_ok() && regs[4] > 0 {
            r = self.csum_block(state, seq, regs[3], regs[4] as usize, &mut buf).map(|v| sum += v);
        }
        buf.clear();
        self.scratch_val = buf;
        r.map(|()| (sum as u64) & 0xffff_ffff)
    }

    /// Sum `len` bytes at `addr` as little-endian u32 words (the
    /// `bpf_csum_diff` accumulation), via the recycled scratch buffer.
    fn csum_block(
        &mut self,
        state: &PacketState,
        seq: u64,
        addr: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<i64, OpAbort> {
        buf.clear();
        buf.resize(len, 0);
        self.read_into(state, seq, addr, buf)?;
        let mut sum = 0i64;
        for wds in buf.chunks(4) {
            let mut b = [0u8; 4];
            b[..wds.len()].copy_from_slice(wds);
            sum += i64::from(u32::from_le_bytes(b));
        }
        Ok(sum)
    }

    /// Store `value` in place at a packet or stack address; any other
    /// region (or a packet byte outside `[data, data_end)`) faults.
    fn local_write(
        state: &mut PacketState,
        addr: u64,
        size: MemSize,
        value: u64,
    ) -> Result<(), OpAbort> {
        if (PACKET_BASE..STACK_BASE).contains(&addr) {
            let off = (addr - PACKET_BASE) as usize;
            if off >= state.data_off && off + size.bytes() <= state.end_off {
                return store_le(&mut state.buf, off, size, value).ok_or(OpAbort::Fault);
            }
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            store_le(&mut state.stack, off, size, value).ok_or(OpAbort::Fault)?;
            state.stack_lo = state.stack_lo.min(off);
            return Ok(());
        }
        Err(OpAbort::Fault)
    }
}

/// Host control-channel integration (see [`crate::ctrl`] for the model
/// and the ordering contract).
///
/// Like the fault engine, the channel's data lives in the private `CtrlState`; the
/// code that arbitrates it against the pipeline lives here because the
/// simulator owns the pipeline state.
impl PipelineSim {
    /// Attach a host control channel. Ops submitted via
    /// [`PipelineSim::submit_host_op`] start flowing on the next step.
    ///
    /// Attaching also widens the forced-checkpoint schedule to every
    /// map-lookup stage ([`ehdl_core::LoweredStage::lookup`]): a host write
    /// can invalidate *any* recorded read, not only FEB-protected ones, and
    /// the flush controller re-enters the pipeline at the stale read's
    /// stage.
    pub fn attach_ctrl(&mut self, options: CtrlOptions) {
        self.ctrl = Some(Box::new(CtrlState::new(options)));
    }

    /// Submit a host map op. It applies after the channel latency, once
    /// its ordering fence holds; the result arrives via
    /// [`PipelineSim::host_completions`].
    ///
    /// # Errors
    ///
    /// [`CtrlError::NotAttached`] without a channel,
    /// [`CtrlError::NoSuchMap`] for an unknown map id, and
    /// [`CtrlError::QueueFull`] when the command queue is at capacity.
    pub fn submit_host_op(&mut self, op: HostOp) -> Result<u64, CtrlError> {
        self.admit_host_op(Ok(op), None)
    }

    /// Attach the seeded loss model to the control link. Only wire-frame
    /// submissions ([`PipelineSim::submit_host_frame`]) and their
    /// completions traverse the lossy link; [`PipelineSim::submit_host_op`]
    /// models a reliable debug backdoor and is unaffected.
    ///
    /// # Errors
    ///
    /// [`CtrlError::NotAttached`] without a channel.
    pub fn attach_ctrl_loss(&mut self, cfg: CtrlLossConfig) -> Result<(), CtrlError> {
        let Some(ctrl) = self.ctrl.as_deref_mut() else {
            return Err(CtrlError::NotAttached);
        };
        ctrl.loss = if cfg.is_lossy() { Some(Box::new(LossState::new(cfg))) } else { None };
        Ok(())
    }

    /// Submit a host op as a wire frame ([`crate::ctrl::encode_frame`])
    /// over the (possibly lossy) control link. Returns the frame's
    /// retransmission seq on acceptance; completions carry that seq as
    /// their `id`.
    ///
    /// Acceptance is a *posted write*: the mailbox slot was taken, but the
    /// frame may still be dropped, duplicated, delayed, or mangled in
    /// transit. A frame whose seq was already applied is answered from the
    /// channel's dedupe cache without re-executing, so retransmitting
    /// until a completion arrives yields exactly-once application.
    ///
    /// # Errors
    ///
    /// [`CtrlError::NotAttached`] without a channel,
    /// [`CtrlError::BadFrame`] when the frame does not decode at the
    /// driver (before transit), [`CtrlError::NoSuchMap`] for an unknown
    /// map id, and [`CtrlError::QueueFull`] when the command queue is at
    /// capacity — all typed, synchronous rejections; nothing is dropped
    /// silently on the host side.
    pub fn submit_host_frame(&mut self, frame: &[u8]) -> Result<u64, CtrlError> {
        // Driver-side validation: a frame the host itself mangled never
        // reaches the DMA engine.
        match decode_frame(frame) {
            Ok((seq, op)) => self.admit_host_op(Ok(op), Some((seq, frame))),
            Err(e) => self.admit_host_op(Err(CtrlError::BadFrame(e)), None),
        }
    }

    /// The mailbox's one admission path. `op` is the op to queue, or the
    /// driver-side refusal it already met; `frame` is the wire frame (and
    /// its seq) it was decoded from, which crosses the lossy link, or
    /// `None` for the backdoor. Returns the frame's seq, or the backdoor
    /// op's id. Every refusal after the channel check counts as rejected.
    fn admit_host_op(
        &mut self,
        op: Result<HostOp, CtrlError>,
        frame: Option<(u64, &[u8])>,
    ) -> Result<u64, CtrlError> {
        let cycle = self.cycle;
        let barrier = self.next_seq;
        let nmaps = self.maps.len() as u32;
        let Some(ctrl) = self.ctrl.as_deref_mut() else {
            return Err(CtrlError::NotAttached);
        };
        let depth = ctrl.options.queue_depth;
        let op = op
            .and_then(|op| match op.map() {
                map if map >= nmaps => Err(CtrlError::NoSuchMap { map }),
                _ if ctrl.queue.len() >= depth => Err(CtrlError::QueueFull { depth }),
                _ => Ok(op),
            })
            .inspect_err(|_| ctrl.stats.rejected = ctrl.stats.rejected.saturating_add(1))?;
        // In-transit fate. Every roll always advances the RNG stream so
        // the pattern for later frames is independent of earlier outcomes.
        let mut dup = None;
        let mut extra_delay = 0u64;
        if let (Some((seq, bytes)), Some(loss)) = (frame, ctrl.loss.as_deref_mut()) {
            let dropped = loss.roll(loss.cfg.drop_rate);
            let duplicated = loss.roll(loss.cfg.dup_rate);
            let corrupted = loss.roll(loss.cfg.corrupt_rate);
            let delayed = loss.roll(loss.cfg.delay_rate);
            if dropped {
                ctrl.stats.req_dropped = ctrl.stats.req_dropped.saturating_add(1);
                return Ok(seq);
            }
            if corrupted {
                let mut mangled = bytes.to_vec();
                loss.mangle(&mut mangled);
                if decode_frame(&mangled).is_err() {
                    // The NIC received garbage; the CRC catches it and the
                    // frame is discarded — a detected drop.
                    ctrl.stats.req_corrupted = ctrl.stats.req_corrupted.saturating_add(1);
                    return Ok(seq);
                }
                // A flip pattern the CRC missed would arrive as a clean
                // frame; astronomically unlikely, treated as undamaged.
            }
            if duplicated {
                dup = Some(op.clone());
                ctrl.stats.req_duplicated = ctrl.stats.req_duplicated.saturating_add(1);
            }
            if delayed {
                extra_delay = loss.extra_delay();
                ctrl.stats.req_delayed = ctrl.stats.req_delayed.saturating_add(1);
            }
        }
        let frame_seq = frame.map(|(seq, _)| seq);
        let first_id = ctrl.next_id;
        for (copy, op) in std::iter::once(op).chain(dup).enumerate() {
            // A duplicate arriving at a full mailbox is swallowed by the
            // hardware; the first copy already carries the op.
            if copy > 0 && ctrl.queue.len() >= depth {
                break;
            }
            ctrl.stats.submitted = ctrl.stats.submitted.saturating_add(1);
            ctrl.queue.push_back(QueuedOp {
                id: ctrl.next_id,
                op,
                barrier_seq: barrier,
                issued_cycle: cycle,
                ready_cycle: cycle + ctrl.options.latency_cycles + extra_delay,
                frame_seq,
            });
            ctrl.next_id += 1;
        }
        Ok(frame_seq.unwrap_or(first_id))
    }

    /// Take all retired host-op completions (in application order).
    pub fn host_completions(&mut self) -> Vec<HostCompletion> {
        self.ctrl.as_deref_mut().map_or_else(Vec::new, |c| std::mem::take(&mut c.completions))
    }

    /// Control-channel counters, when a channel is attached.
    pub fn ctrl_stats(&self) -> Option<CtrlStats> {
        self.ctrl.as_deref().map(|c| c.stats)
    }

    /// Host ops submitted but not yet applied, plus completions still in
    /// transit on a delayed return path (the channel is not quiet until
    /// both are empty).
    pub fn host_ops_pending(&self) -> usize {
        self.ctrl.as_deref().map_or(0, |c| c.queue.len() + c.delayed.len())
    }

    /// Apply the head-of-queue op if its latency has elapsed and its
    /// ordering fence holds (one op per cycle, like a single-issue
    /// AXI-Lite slave).
    fn ctrl_cycle(&mut self) {
        // Deliver completions whose in-transit delay elapsed.
        if let Some(ctrl) = self.ctrl.as_deref_mut() {
            if !ctrl.delayed.is_empty() {
                let cycle = self.cycle;
                let mut i = 0;
                while i < ctrl.delayed.len() {
                    if ctrl.delayed[i].0 <= cycle {
                        let (_, c) = ctrl.delayed.swap_remove(i);
                        ctrl.completions.push(c);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        let ready = {
            let Some(ctrl) = self.ctrl.as_deref() else { return };
            let Some(front) = ctrl.queue.front() else { return };
            self.cycle >= front.ready_cycle && self.host_fence_ok(front)
        };
        if !ready {
            return;
        }
        let q = self
            .ctrl
            .as_deref_mut()
            .and_then(|c| c.queue.pop_front())
            .expect("readiness checked above");
        // Exactly-once application: a retransmitted frame whose seq was
        // already applied is answered from the dedupe cache.
        if let Some(seq) = q.frame_seq {
            let cached = self.ctrl.as_deref().and_then(|c| c.applied.get(&seq)).cloned();
            if let Some(mut completion) = cached {
                completion.issued_cycle = q.issued_cycle;
                let ctrl = self.ctrl.as_deref_mut().expect("channel attached: op was queued");
                ctrl.stats.dedupe_hits = ctrl.stats.dedupe_hits.saturating_add(1);
                Self::deliver_completion(ctrl, self.cycle, completion);
                return;
            }
        }
        let latency = self.cycle.saturating_sub(q.issued_cycle);
        let frame_seq = q.frame_seq;
        let completion = self.apply_host_op(q);
        let ctrl = self.ctrl.as_deref_mut().expect("channel attached: op was queued");
        let s = &mut ctrl.stats;
        if completion.result.is_ok() {
            s.completed = s.completed.saturating_add(1);
        } else {
            s.failed = s.failed.saturating_add(1);
        }
        if completion.flushed_readers > 0 {
            s.flushes = s.flushes.saturating_add(1);
            s.flushed_readers = s.flushed_readers.saturating_add(completion.flushed_readers);
        }
        s.latency_cycles_total = s.latency_cycles_total.saturating_add(latency);
        s.latency_cycles_max = s.latency_cycles_max.max(latency);
        let completion = if let Some(seq) = frame_seq {
            // Frame completions carry the host's retransmission seq so the
            // host can match them against outstanding ops.
            let mut c = completion;
            c.id = seq;
            ctrl.remember_applied(seq, c.clone());
            c
        } else {
            completion
        };
        if frame_seq.is_some() {
            Self::deliver_completion(ctrl, self.cycle, completion);
        } else {
            // The reliable backdoor path bypasses the lossy return link.
            ctrl.completions.push(completion);
        }
    }

    /// Send a completion back over the (possibly lossy) return link:
    /// it may be dropped (the dedupe cache still remembers the applied
    /// op, so a retransmission recovers it), duplicated, or delayed. A
    /// corrupted completion fails its CRC at the host and counts as a
    /// detected drop.
    fn deliver_completion(ctrl: &mut CtrlState, cycle: u64, completion: HostCompletion) {
        let Some(loss) = ctrl.loss.as_deref_mut() else {
            ctrl.completions.push(completion);
            return;
        };
        let dropped = loss.roll(loss.cfg.drop_rate);
        let duplicated = loss.roll(loss.cfg.dup_rate);
        let corrupted = loss.roll(loss.cfg.corrupt_rate);
        let delayed = loss.roll(loss.cfg.delay_rate);
        if dropped || corrupted {
            ctrl.stats.comp_dropped = ctrl.stats.comp_dropped.saturating_add(1);
            return;
        }
        if duplicated {
            ctrl.stats.comp_duplicated = ctrl.stats.comp_duplicated.saturating_add(1);
            ctrl.completions.push(completion.clone());
        }
        if delayed {
            let extra = loss.extra_delay();
            ctrl.stats.comp_delayed = ctrl.stats.comp_delayed.saturating_add(1);
            ctrl.delayed.push((cycle + extra, completion));
        } else {
            ctrl.completions.push(completion);
        }
    }

    /// The barrier fence of a queued op: every packet logically preceding
    /// it (`seq < barrier`) must be past the last stage touching its map,
    /// have no write still sitting in a WAR delay buffer, and — for a
    /// mutating op — hold no unconfirmed read of the op's key anywhere
    /// (rolling such a reader back would replay a read that legitimately
    /// preceded the op).
    fn host_fence_ok(&self, q: &QueuedOp) -> bool {
        let b = q.barrier_seq;
        let m = q.op.map();
        if self.pending_writes.iter().any(|w| w.map == m && w.seq < b) {
            return false;
        }
        let fence = self.plan.host_fence_stage(m).min(self.slots.len());
        if self.slots[..fence].iter().filter_map(|s| s.pkt.as_deref()).any(|p| p.seq < b) {
            return false;
        }
        // Both queues are seq-ordered, so the front carries the minimum.
        if self.rx.front().is_some_and(|p| p.seq < b) {
            return false;
        }
        if self.replay.front().is_some_and(|p| p.seq < b) {
            return false;
        }
        if q.op.mutates() {
            if let Some(key) = q.op.key() {
                let stale_old = self
                    .slots
                    .iter()
                    .filter_map(|s| s.pkt.as_deref())
                    .any(|p| p.seq < b && matching_read_limit(&p.state, m, key) != usize::MAX);
                if stale_old {
                    return false;
                }
            }
        }
        true
    }

    /// Apply one fenced host op to the live maps, triggering the hazard
    /// flush machinery when a write lands inside an open RAW window.
    fn apply_host_op(&mut self, q: QueuedOp) -> HostCompletion {
        self.counters.host_ops = self.counters.host_ops.saturating_add(1);
        let map_id = q.op.map();
        let result = q.op.apply(&mut self.maps);
        let flushed_readers = match (&q.op, &result) {
            (HostOp::Update { map, key, .. } | HostOp::Delete { map, key }, Ok(_)) => {
                self.host_flush_readers(*map, key)
            }
            _ => 0,
        };
        HostCompletion {
            id: q.id,
            map: map_id,
            result,
            issued_cycle: q.issued_cycle,
            applied_cycle: self.cycle,
            flushed_readers,
        }
    }

    /// Roll back every younger in-flight packet still holding an
    /// unconfirmed read of (`map`, `key`) — the host write's RAW hazard,
    /// resolved by the exact same flush/replay path a pipeline FEB uses.
    /// Returns how many packets matched. Out of line: it runs only for a
    /// host write landing in an open RAW window, and inlined it would grow
    /// `step`, which every cycle runs.
    #[inline(never)]
    fn host_flush_readers(&mut self, map: u32, key: &[u8]) -> u64 {
        let mut entry = usize::MAX;
        let mut deepest = None;
        let mut matched = 0u64;
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some(p) = &slot.pkt {
                let lim = matching_read_limit(&p.state, map, key);
                if lim != usize::MAX {
                    entry = entry.min(lim);
                    deepest = Some(s);
                    matched += 1;
                }
            }
        }
        for p in &self.replay {
            let lim = matching_read_limit(&p.state, map, key);
            if lim != usize::MAX {
                entry = entry.min(lim);
                matched += 1;
            }
        }
        if matched == 0 {
            return 0;
        }
        // The window runs from the earliest stale read to just past the
        // deepest stale reader (replay-queue-only matches roll back in
        // place, so the window may be empty).
        let boundary = deepest.map_or(entry, |d| d + 1).max(entry);
        self.counters.host_op_flushes = self.counters.host_op_flushes.saturating_add(1);
        self.flush_below(boundary, entry, Some((map, key.to_vec())));
        matched
    }

    /// Host-port write arbitration: a packet logically ordered after a
    /// queued op (`seq >= barrier`) may not irreversibly write the op's
    /// map before the op applies — the sequential reference would run the
    /// op first.
    #[inline]
    fn ctrl_effect_stall(&self, s: usize, seq: u64) -> bool {
        let Some(ctrl) = self.ctrl.as_deref() else { return false };
        if ctrl.queue.is_empty() {
            return false;
        }
        let mask = self.plan.stage(s).effect_maps;
        if mask == 0 {
            return false;
        }
        ctrl.queue.iter().any(|q| seq >= q.barrier_seq && mask & map_bit(q.op.map()) != 0)
    }

    /// Retirement hold: a packet ordered after a queued mutating op may
    /// not complete while it holds (or its final stage could still
    /// create) a read the op is about to invalidate — once retired it is
    /// beyond the reach of the flush that would repair it.
    fn ctrl_retire_stall(&self, s: usize, pkt: &InFlight) -> bool {
        let Some(ctrl) = self.ctrl.as_deref() else { return false };
        if ctrl.queue.is_empty() {
            return false;
        }
        ctrl.queue.iter().any(|q| {
            if pkt.seq < q.barrier_seq || !q.op.mutates() {
                return false;
            }
            let m = q.op.map();
            let stale =
                q.op.key().is_some_and(|k| matching_read_limit(&pkt.state, m, k) != usize::MAX);
            stale || self.plan.stage(s).read_maps & map_bit(m) != 0
        })
    }
}

/// Fault-injection integration (see [`crate::fault`] for the model).
///
/// The engine's data lives in [`FaultEngine`]; the code that actually
/// mutates pipeline state lives here, because the simulator owns that
/// state. To satisfy the borrow checker the engine is taken out of
/// `self.fault` for the duration of a fault cycle.
impl PipelineSim {
    /// Attach a fault-injection engine. Faults start landing on the next
    /// [`PipelineSim::step`]; reattaching replaces the engine (and its log).
    pub fn attach_faults(&mut self, cfg: FaultConfig) {
        self.fault = Some(Box::new(FaultEngine::new(cfg)));
    }

    /// The attached fault engine, if any.
    pub fn fault_engine(&self) -> Option<&FaultEngine> {
        self.fault.as_deref()
    }

    /// Fraction of elapsed cycles the pipeline was live (not hung).
    /// `1.0` without an attached engine.
    pub fn availability(&self) -> f64 {
        self.fault.as_ref().map_or(1.0, |f| f.availability(self.cycle))
    }

    /// End-of-campaign cleanup: the background scrubber would eventually
    /// visit every outstanding ECC upset, so resolve them all as scrub
    /// corrections before reading the stats.
    pub fn finalize_faults(&mut self) {
        let Some(eng) = self.fault.as_mut() else { return };
        while !eng.upsets.is_empty() {
            let u = eng.upsets.remove(0);
            eng.stats.corrected_scrub = eng.stats.corrected_scrub.saturating_add(1);
            eng.resolve(u.event, FaultOutcome::CorrectedByScrub);
        }
    }

    /// One fault-engine clock tick: watchdog, scrub, stuck-at sites, and
    /// possibly a fresh injection.
    fn fault_cycle(&mut self) {
        let Some(mut eng) = self.fault.take() else { return };
        // Hang accounting and the watchdog. Without a watchdog the hang
        // persists: availability collapses until the run's cycle budget
        // expires — exactly the failure mode the primitive exists for.
        if let Some(h) = eng.hang {
            eng.hung_cycles = eng.hung_cycles.saturating_add(1);
            if self.protect.watchdog()
                && self.cycle.saturating_sub(h.since) >= eng.cfg.watchdog_timeout
            {
                self.watchdog_recover(&mut eng, h);
            }
        }
        // Background scrub: one outstanding upset corrected per period.
        if self.protect.ecc()
            && eng.cfg.scrub_period > 0
            && self.cycle.is_multiple_of(eng.cfg.scrub_period)
            && !eng.upsets.is_empty()
        {
            let u = eng.upsets.remove(0);
            eng.stats.corrected_scrub = eng.stats.corrected_scrub.saturating_add(1);
            eng.resolve(u.event, FaultOutcome::CorrectedByScrub);
        }
        // Re-force active stuck-at sites, dropping expired ones. The first
        // application that hits live state upgrades the event's outcome.
        if !eng.stuck.is_empty() {
            let mut stuck = std::mem::take(&mut eng.stuck);
            let cycle = self.cycle;
            stuck.retain(|f| f.until > cycle);
            for f in &stuck {
                let outcome = self.apply_inflight_fault(&mut eng, f.site);
                if outcome != FaultOutcome::Masked {
                    upgrade_masked_event(&mut eng, f.event, outcome);
                }
            }
            eng.stuck = stuck;
        }
        // New injection?
        if eng.cfg.rate > 0.0 && eng.rng.gen_f64() < eng.cfg.rate {
            self.inject_fault(&mut eng);
        }
        self.fault = Some(eng);
    }

    /// Inject one fault: pick a kind, pick a site, apply it, log it.
    fn inject_fault(&mut self, eng: &mut FaultEngine) {
        eng.stats.injected = eng.stats.injected.saturating_add(1);
        let cfg = eng.cfg;
        let cycle = self.cycle;
        let r = eng.rng.gen_f64();
        if r < cfg.hang_fraction {
            // Hung stage. At most one at a time (a second upset in already
            // wedged control logic changes nothing).
            let site = FaultSite::Pipeline { stage: eng.rng.gen_index(self.slots.len().max(1)) };
            if eng.hang.is_some() {
                eng.stats.masked = eng.stats.masked.saturating_add(1);
                eng.record(FaultEvent {
                    cycle,
                    site,
                    kind: FaultKind::Hang,
                    outcome: FaultOutcome::Masked,
                });
                return;
            }
            let FaultSite::Pipeline { stage } = site else { return };
            let event = eng.record(FaultEvent {
                cycle,
                site,
                kind: FaultKind::Hang,
                outcome: FaultOutcome::HungUnrecovered,
            });
            eng.hang = Some(Hang { stage, since: cycle, event });
            eng.stats.hangs = eng.stats.hangs.saturating_add(1);
            return;
        }
        if r < cfg.hang_fraction + cfg.stuck_fraction {
            // Stuck-at: a structural in-flight site forced for a while.
            let site = self.random_inflight_site(&mut eng.rng, /*structural_only=*/ true);
            let outcome = self.apply_inflight_fault(eng, site);
            bump_fault_stats(&mut eng.stats, outcome);
            let event = eng.record(FaultEvent { cycle, site, kind: FaultKind::StuckAt, outcome });
            eng.stuck.push(StuckFault { site, until: cycle + STUCK_DURATION, event });
            return;
        }
        // Transient single-bit flip: map BRAM or in-flight state.
        if eng.rng.gen_f64() < cfg.map_bias {
            let site = self.random_map_site(&mut eng.rng);
            let outcome = match site {
                Some(s) => self.apply_map_fault(eng, s, cycle),
                None => FaultOutcome::Masked,
            };
            bump_fault_stats(&mut eng.stats, outcome);
            // Outstanding upsets record their own event (they need its
            // index); everything else is logged here.
            if outcome != FaultOutcome::Outstanding {
                let site = site.unwrap_or(FaultSite::MapWord { map: 0, slot: 0, byte: 0, bit: 0 });
                eng.record(FaultEvent { cycle, site, kind: FaultKind::Transient, outcome });
            }
            return;
        }
        let site = self.random_inflight_site(&mut eng.rng, /*structural_only=*/ false);
        let outcome = self.apply_inflight_fault(eng, site);
        bump_fault_stats(&mut eng.stats, outcome);
        eng.record(FaultEvent { cycle, site, kind: FaultKind::Transient, outcome });
    }

    /// A random site in the in-flight pipeline state. `structural_only`
    /// restricts to sites that exist independently of queue occupancy
    /// (stuck-at faults outlive any one packet).
    fn random_inflight_site(&self, rng: &mut ehdl_rng::Rng, structural_only: bool) -> FaultSite {
        let nstages = self.slots.len().max(1);
        let stage = rng.gen_index(nstages);
        let choices = if structural_only { 3 } else { 4 };
        match rng.gen_index(choices) {
            0 => FaultSite::StageReg {
                stage,
                reg: rng.gen_index(11) as u8,
                bit: rng.gen_index(64) as u8,
            },
            1 => FaultSite::StageStack {
                stage,
                off: rng.gen_index(STACK_SIZE as usize) as u16,
                bit: rng.gen_index(8) as u8,
            },
            2 => FaultSite::PredBit {
                stage,
                block: rng.gen_index(self.plan.block_count().max(1)) as u16,
            },
            _ => FaultSite::DelayBuffer {
                index: rng.gen_index(self.pending_writes.len().max(1)),
                bit: rng.gen_index(64) as u8,
            },
        }
    }

    /// A random occupied map-BRAM word, or `None` when every map is empty.
    fn random_map_site(&self, rng: &mut ehdl_rng::Rng) -> Option<FaultSite> {
        let nmaps = self.map_lookups.len();
        if nmaps == 0 {
            return None;
        }
        let map = rng.gen_index(nmaps) as u32;
        let m = self.maps.get(map)?;
        let live = m.len();
        if live == 0 {
            return None;
        }
        let (slot, _, value) = m.iter().nth(rng.gen_index(live))?;
        if value.is_empty() {
            return None;
        }
        Some(FaultSite::MapWord {
            map,
            slot: slot as u32,
            byte: rng.gen_index(value.len()) as u32,
            bit: rng.gen_index(8) as u8,
        })
    }

    /// Is any packet occupying `stage`?
    fn slot_occupied(&self, stage: usize) -> bool {
        self.slots.get(stage).is_some_and(|s| s.pkt.is_some())
    }

    /// Apply a flip to in-flight state. Under parity the corruption is
    /// detected at the stage boundary before anything consumes it: the
    /// window is recovered by replay from its checkpoints and no state is
    /// actually corrupted (replay would restore it regardless). Without
    /// parity the flip lands and the packet's results are untrusted.
    fn apply_inflight_fault(&mut self, eng: &mut FaultEngine, site: FaultSite) -> FaultOutcome {
        let parity = self.protect.parity();
        match site {
            FaultSite::StageReg { stage, reg, bit } => {
                if !self.slot_occupied(stage) {
                    return FaultOutcome::Masked;
                }
                if parity {
                    self.fault_replay_below(stage + 1);
                    return FaultOutcome::DetectedReplay;
                }
                if let Some(pkt) = self.slots[stage].pkt.as_mut() {
                    pkt.state.regs[reg as usize % 11] ^= 1u64 << (bit % 64);
                    let seq = pkt.seq;
                    eng.mark_affected(seq);
                }
                FaultOutcome::SilentCorruption
            }
            FaultSite::StageStack { stage, off, bit } => {
                if !self.slot_occupied(stage) {
                    return FaultOutcome::Masked;
                }
                if parity {
                    self.fault_replay_below(stage + 1);
                    return FaultOutcome::DetectedReplay;
                }
                if let Some(pkt) = self.slots[stage].pkt.as_mut() {
                    let off = off as usize % STACK_SIZE as usize;
                    pkt.state.stack[off] ^= 1 << (bit % 8);
                    // The flip may dirty a byte below the zero watermark.
                    pkt.state.stack_lo = pkt.state.stack_lo.min(off);
                    let seq = pkt.seq;
                    eng.mark_affected(seq);
                }
                FaultOutcome::SilentCorruption
            }
            FaultSite::PredBit { stage, block } => {
                if !self.slot_occupied(stage) {
                    return FaultOutcome::Masked;
                }
                if parity {
                    self.fault_replay_below(stage + 1);
                    return FaultOutcome::DetectedReplay;
                }
                if let Some(pkt) = self.slots[stage].pkt.as_mut() {
                    let b = block as usize % MAX_BLOCKS;
                    let cur = pkt.state.pred.get(TAKEN, b).unwrap_or(false);
                    pkt.state.pred.set(TAKEN, b, !cur);
                    let seq = pkt.seq;
                    eng.mark_affected(seq);
                }
                FaultOutcome::SilentCorruption
            }
            FaultSite::DelayBuffer { index, bit } => {
                if index >= self.pending_writes.len() {
                    return FaultOutcome::Masked;
                }
                if parity {
                    // Delay-buffer entries carry check bits in hardened
                    // designs (the FEB snoop path already holds a shadow
                    // copy): repaired in place, no replay needed.
                    return FaultOutcome::CorrectedEcc;
                }
                let seq = self.pending_writes[index].seq;
                match &mut self.pending_writes[index].kind {
                    WriteKind::Update { value, .. } => {
                        let len = value.len();
                        if let Some(b) = value.get_mut((bit as usize / 8) % len.max(1)) {
                            *b ^= 1 << (bit % 8);
                        }
                    }
                    WriteKind::Delete { key } => {
                        let len = key.len();
                        if let Some(b) = key.get_mut((bit as usize / 8) % len.max(1)) {
                            *b ^= 1 << (bit % 8);
                        }
                    }
                    WriteKind::StoreValue { value, .. } => {
                        *value ^= 1u64 << (bit % 64);
                    }
                }
                // A corrupted buffered write lands in the map eventually:
                // global state is no longer trustworthy.
                eng.mark_affected(seq);
                eng.map_corrupted = true;
                FaultOutcome::SilentCorruption
            }
            FaultSite::MapWord { .. } | FaultSite::Pipeline { .. } => FaultOutcome::Masked,
        }
    }

    /// Apply a flip to a map BRAM word. Under ECC a first upset is held
    /// outstanding (SECDED corrects it on every read until a scrub or a
    /// logged read resolves it); a second upset on the same word before
    /// correction is detected but uncorrectable. Without ECC the flip
    /// silently corrupts storage.
    fn apply_map_fault(
        &mut self,
        eng: &mut FaultEngine,
        site: FaultSite,
        cycle: u64,
    ) -> FaultOutcome {
        let FaultSite::MapWord { map, slot, byte, bit } = site else {
            return FaultOutcome::Masked;
        };
        if self.protect.ecc() {
            let word = byte / 8;
            if let Some(pos) =
                eng.upsets.iter().position(|u| u.map == map && u.slot == slot && u.word == word)
            {
                let u = eng.upsets.swap_remove(pos);
                eng.resolve(u.event, FaultOutcome::Uncorrectable);
                self.corrupt_map_word(map, slot, byte, bit);
                eng.map_corrupted = true;
                return FaultOutcome::Uncorrectable;
            }
            let event = eng.record(FaultEvent {
                cycle,
                site,
                kind: FaultKind::Transient,
                outcome: FaultOutcome::Outstanding,
            });
            eng.upsets.push(MapUpset { map, slot, word, event });
            return FaultOutcome::Outstanding;
        }
        self.corrupt_map_word(map, slot, byte, bit);
        eng.map_corrupted = true;
        FaultOutcome::SilentCorruption
    }

    /// Flip one stored bit (the slot was picked live this same call).
    fn corrupt_map_word(&mut self, map: u32, slot: u32, byte: u32, bit: u8) {
        if let Some(m) = self.maps.get_mut(map) {
            if let Some(b) = m.value_mut(slot as usize).get_mut(byte as usize) {
                *b ^= 1 << (bit % 8);
            }
        }
    }

    /// ECC correct-on-read bookkeeping: a lookup touching `(map, slot)`
    /// runs the word through the SECDED decoder, clearing any outstanding
    /// upsets there. Called from the map read paths when an engine is
    /// attached.
    fn fault_map_read(&mut self, map: u32, slot: u32) {
        let Some(eng) = self.fault.as_mut() else { return };
        let mut i = 0;
        while i < eng.upsets.len() {
            if eng.upsets[i].map == map && eng.upsets[i].slot == slot {
                let u = eng.upsets.swap_remove(i);
                eng.stats.corrected_read = eng.stats.corrected_read.saturating_add(1);
                eng.resolve(u.event, FaultOutcome::CorrectedOnRead);
            } else {
                i += 1;
            }
        }
    }

    /// Recovery-by-replay: evict every slot below `boundary` plus the
    /// queued replay stream, and replay all of them from their latest
    /// checkpoints — the same machinery a hazard flush uses, but counted
    /// in `fault_replays` so campaigns can separate protection cost from
    /// hazard cost. Committed side effects are never replayed (App. A.2).
    fn fault_replay_below(&mut self, boundary: usize) {
        let plan = Arc::clone(&self.plan);
        // A replayed packet resuming at stage `r` will skip every stage
        // below it — including, crucially, any map write it already
        // committed. Read records whose FEB window closes below `r` are
        // therefore confirmed forever (the packet physically passed the
        // write stage without a flush); keeping them would let a later FEB
        // roll the packet below its own committed side effect and
        // double-commit it.
        let prune = |pkt: &mut InFlight| {
            let Some(r) = pkt.resume.as_ref().map(|(s, _)| *s) else { return };
            let confirmed = |m: u32| plan.feb_write_max(m).is_some_and(|w| w < r);
            // The stale `state` is consulted by hazard pull-back checks
            // until the resume swap, so it needs the same treatment.
            pkt.state.map_reads.retain(|&(m, _, _)| !confirmed(m));
            if let Some((_, snap)) = pkt.resume.as_mut() {
                snap.map_reads.retain(|&(m, _, _)| !confirmed(m));
            }
            // ... as are surviving checkpoints, should a later hazard
            // rollback resume from one of them.
            for (_, snap) in pkt.checkpoints.iter_mut() {
                snap.map_reads.retain(|&(m, _, _)| !confirmed(m));
            }
        };
        let n = self.reinject_below(boundary, |_| usize::MAX, prune);
        self.counters.fault_replays = self.counters.fault_replays.saturating_add(n);
    }

    /// Watchdog timeout: drop the wedged packet, replay every innocent
    /// in-flight packet from its checkpoints, and reinitialize the
    /// pipeline control — maps are preserved.
    fn watchdog_recover(&mut self, eng: &mut FaultEngine, h: Hang) {
        eng.hang = None;
        eng.resolve(h.event, FaultOutcome::HungRecovered);
        eng.stats.watchdog_recoveries = eng.stats.watchdog_recoveries.saturating_add(1);
        self.counters.watchdog_resets = self.counters.watchdog_resets.saturating_add(1);
        if let Some(pkt) = self.slots.get_mut(h.stage).and_then(|s| s.pkt.take()) {
            eng.mark_affected(pkt.seq);
            self.counters.pkts_lost_to_faults = self.counters.pkts_lost_to_faults.saturating_add(1);
            self.complete_as_fault_drop(pkt);
        }
        self.fault_replay_below(self.slots.len());
        self.stall = self.stall.max(FLUSH_RELOAD_CYCLES);
    }

    /// Retire a packet the watchdog gave up on, with a forced drop verdict.
    fn complete_as_fault_drop(&mut self, mut pkt: Box<InFlight>) {
        pkt.state.idle = 0;
        pkt.state.action = Some(XdpAction::Drop);
        self.complete(pkt);
    }
}

/// Tally one resolved fault event.
fn bump_fault_stats(stats: &mut crate::fault::FaultStats, outcome: FaultOutcome) {
    match outcome {
        FaultOutcome::Masked => stats.masked = stats.masked.saturating_add(1),
        FaultOutcome::SilentCorruption => stats.silent = stats.silent.saturating_add(1),
        FaultOutcome::DetectedReplay => {
            stats.detected_replays = stats.detected_replays.saturating_add(1)
        }
        FaultOutcome::CorrectedOnRead => {
            stats.corrected_read = stats.corrected_read.saturating_add(1)
        }
        FaultOutcome::CorrectedByScrub => {
            stats.corrected_scrub = stats.corrected_scrub.saturating_add(1)
        }
        FaultOutcome::CorrectedEcc => stats.corrected_ecc = stats.corrected_ecc.saturating_add(1),
        FaultOutcome::Uncorrectable => stats.uncorrectable = stats.uncorrectable.saturating_add(1),
        FaultOutcome::HungRecovered => {
            stats.watchdog_recoveries = stats.watchdog_recoveries.saturating_add(1)
        }
        FaultOutcome::HungUnrecovered | FaultOutcome::Outstanding => {}
    }
}

/// A stuck-at site's first effective application upgrades its provisional
/// `Masked` log entry (and the tallies) to the real outcome.
fn upgrade_masked_event(eng: &mut FaultEngine, event: usize, outcome: FaultOutcome) {
    let was_masked = eng.log.get(event).is_some_and(|e| e.outcome == FaultOutcome::Masked);
    if was_masked {
        eng.stats.masked = eng.stats.masked.saturating_sub(1);
        bump_fault_stats(&mut eng.stats, outcome);
        eng.resolve(event, outcome);
    }
}

fn atomic_new_value(aop: AtomicOp, old: u64, operand_v: u64, expected: u64) -> u64 {
    match aop {
        AtomicOp::Add { .. } => old.wrapping_add(operand_v),
        AtomicOp::Or { .. } => old | operand_v,
        AtomicOp::And { .. } => old & operand_v,
        AtomicOp::Xor { .. } => old ^ operand_v,
        AtomicOp::Xchg => operand_v,
        AtomicOp::Cmpxchg => {
            if old == expected {
                operand_v
            } else {
                old
            }
        }
    }
}

/// Earliest stage at which `state` holds an unconfirmed read of `key` on
/// `map`, or `usize::MAX` when it holds none (the packet is innocent).
fn matching_read_limit(state: &PacketState, map: u32, key: &[u8]) -> usize {
    state
        .map_reads
        .iter()
        .filter(|&&(m, _, ref k)| m == map && k == key)
        .map(|&(_, s, _)| s as usize)
        .min()
        .unwrap_or(usize::MAX)
}

/// `base + off`, the effective address of a memory op.
#[inline(always)]
fn addr_of(state: &PacketState, base: u8, off: i16) -> u64 {
    state.regs[base as usize].wrapping_add(off as i64 as u64)
}

/// The `size`-wide little-endian word at `o` of `bytes`, `None` past the
/// end: one fixed-width copy per size, where a variable-length copy would
/// be a library call.
#[inline(always)]
fn load_le(bytes: &[u8], o: usize, size: MemSize) -> Option<u64> {
    let at = bytes.get(o..)?;
    Some(match size {
        MemSize::B => u64::from(*at.first()?),
        MemSize::H => u64::from(u16::from_le_bytes(*at.first_chunk()?)),
        MemSize::W => u64::from(u32::from_le_bytes(*at.first_chunk()?)),
        MemSize::Dw => u64::from_le_bytes(*at.first_chunk()?),
    })
}

/// Store the low `size` bytes of `v` little-endian at `o` of `bytes`,
/// `None` (nothing written) past the end; fixed-width like [`load_le`].
#[inline(always)]
fn store_le(bytes: &mut [u8], o: usize, size: MemSize, v: u64) -> Option<()> {
    let at = bytes.get_mut(o..)?;
    match size {
        MemSize::B => *at.first_mut()? = v as u8,
        MemSize::H => *at.first_chunk_mut()? = (v as u16).to_le_bytes(),
        MemSize::W => *at.first_chunk_mut()? = (v as u32).to_le_bytes(),
        MemSize::Dw => *at.first_chunk_mut()? = v.to_le_bytes(),
    }
    Some(())
}

/// A context field at `addr` (inside the `xdp_md` window):
/// `data`/`data_meta` and `data_end` resolve to the packet geometry, every
/// other field reads 0.
#[inline]
fn ctx_read(state: &PacketState, addr: u64, size: MemSize) -> u64 {
    let v = match (addr - CTX_BASE) as i64 {
        xdp_md::DATA | xdp_md::DATA_META => PACKET_BASE + state.data_off as u64,
        xdp_md::DATA_END => PACKET_BASE + state.end_off as u64,
        _ => 0,
    };
    v & mask_for(size)
}

fn map_handle(v: u64) -> Option<u32> {
    (MAP_HANDLE_BASE..MAP_HANDLE_BASE + 0x1000).contains(&v).then(|| (v - MAP_HANDLE_BASE) as u32)
}

/// The [`PacketState::read_filter`] bit of one `(map, key)` pair: FNV-1a
/// over the map id and key bytes, folded to a 64-way partition.
#[inline]
fn read_key_bit(map: u32, key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(map);
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    1u64 << (h & 63)
}

/// Return a read-key buffer to `keys`, the bounded pool behind
/// [`StatePool::take_key`].
fn pool_key(keys: &mut Vec<Vec<u8>>, mut k: Vec<u8>) {
    if keys.len() < StatePool::KEY_CAP {
        k.clear();
        keys.push(k);
    }
}

impl PacketState {
    /// Reinitialize in place to injection-fresh state for `orig`,
    /// keeping every allocation (read keys go back to the pool).
    fn reset(&mut self, orig: &[u8], groups: usize, keys: &mut Vec<Vec<u8>>) {
        self.buf.clear();
        self.buf.resize(XDP_HEADROOM + orig.len(), 0);
        self.buf[XDP_HEADROOM..].copy_from_slice(orig);
        self.data_off = XDP_HEADROOM;
        self.end_off = self.buf.len();
        self.buf_lo = XDP_HEADROOM;
        self.regs = [0; 11];
        self.regs[1] = CTX_BASE;
        self.regs[10] = STACK_TOP;
        // Only [stack_lo..] can be dirty; re-zero it and the watermark.
        self.stack[self.stack_lo..].fill(0);
        self.stack_lo = STACK_SIZE as usize;
        // Block indices never reach group `groups`, so the groups above
        // stay zero for the design at hand.
        self.pred.0[..groups].fill([0; 4]);
        self.idle = 0;
        self.action = None;
        self.redirect = None;
        self.read_filter = 0;
        for (_, _, k) in self.map_reads.drain(..) {
            pool_key(keys, k);
        }
    }

    /// Field-wise `clone_from` that reuses this state's buffers (the
    /// derived `Clone::clone_from` would allocate fresh `Vec`s) and skips
    /// the clean regions below the dirty watermarks: bytes under
    /// `buf_lo` / `stack_lo` are zero on both sides by invariant, so a
    /// snapshot copies the packet tail and the touched stack bytes, not
    /// the whole 512-byte frame and headroom.
    fn assign_from(&mut self, src: &PacketState, groups: usize, keys: &mut Vec<Vec<u8>>) {
        let n = src.buf.len();
        if self.buf.len() != n {
            self.buf.clear();
            self.buf.resize(n, 0);
            self.buf_lo = 0; // everything in dst is (zero-)clean now
        }
        let lo = src.buf_lo.min(n);
        let zero_from = self.buf_lo.min(lo);
        self.buf[zero_from..lo].fill(0);
        self.buf[lo..].copy_from_slice(&src.buf[lo..]);
        self.buf_lo = src.buf_lo;
        self.data_off = src.data_off;
        self.end_off = src.end_off;
        self.regs = src.regs;
        let slo = src.stack_lo;
        self.stack[self.stack_lo.min(slo)..slo].fill(0);
        self.stack[slo..].copy_from_slice(&src.stack[slo..]);
        self.stack_lo = slo;
        self.pred.0[..groups].copy_from_slice(&src.pred.0[..groups]);
        self.idle = src.idle;
        self.action = src.action;
        self.redirect = src.redirect;
        self.read_filter = src.read_filter;
        while self.map_reads.len() > src.map_reads.len() {
            pool_key(keys, self.map_reads.pop().expect("len checked non-zero").2);
        }
        let have = self.map_reads.len();
        for (dst, s) in self.map_reads.iter_mut().zip(&src.map_reads) {
            dst.0 = s.0;
            dst.1 = s.1;
            dst.2.clone_from(&s.2);
        }
        for s in &src.map_reads[have..] {
            let mut k = keys.pop().unwrap_or_default();
            k.clear();
            k.extend_from_slice(&s.2);
            self.map_reads.push((s.0, s.1, k));
        }
    }
}

impl InFlight {
    /// The slot tag: the occupant does nothing below this stage. A packet
    /// replaying up to a checkpoint idles until its resume stage.
    fn idle(&self) -> u32 {
        self.resume.as_ref().map_or(self.state.idle, |(r, _)| *r as u32)
    }

    /// Prepare for re-execution after a flush: resume from the latest
    /// checkpoint whose stage does not exceed `limit` (stale readers pass
    /// their hazard's read stage; innocents pass `usize::MAX`).
    fn reset_for_replay(&mut self, limit: usize, pool: &mut StatePool) {
        while self.checkpoints.last().is_some_and(|(s, _)| *s > limit) {
            let (_, b) = self.checkpoints.pop().expect("non-empty: last() was Some");
            pool.recycle(b);
        }
        if let Some((_, b)) = self.resume.take() {
            pool.recycle(b);
        }
        if let Some((stage, snap)) = self.checkpoints.last() {
            self.resume = Some((*stage, pool.snapshot(snap)));
            // State fields are don't-care until the resume point.
            return;
        }
        let groups = pool.groups;
        self.state.reset(&self.orig, groups, &mut pool.keys);
    }
}

/// A stage's control outputs, accumulated across its ops by the map
/// writes. The map operations have one body each, always inlined into
/// their two call sites (the fused arm with baked geometry, the
/// unspecialized arm with geometry resolved at run time): a call per map
/// op costs the firewall several percent.
#[derive(Debug, Default)]
struct StageCtl {
    /// Map state changed irreversibly: checkpoint after this stage.
    side_effect: bool,
    /// FEB hit `(map, key, read_stage)`: younger readers of the key flush.
    flush: Option<(u32, Vec<u8>, usize)>,
}

impl StageCtl {
    /// A map write of `key` committed or entered its delay buffer; `hazard`
    /// (a younger packet holds an unconfirmed read of it) raises the flush.
    /// Only a fired hazard copies the key.
    #[inline(always)]
    fn wrote(&mut self, hazard: bool, map: u32, key: &[u8], feb_read_stage: usize) {
        self.side_effect = true;
        if hazard {
            self.flush = Some((map, key.to_vec(), feb_read_stage));
        }
    }
}

enum StageResult {
    Ok,
    /// Flush all stages strictly below `boundary`, repairing stale reads
    /// of `key` on `map` performed at `read_stage`.
    FlushBelow {
        /// First stage that is *not* flushed.
        boundary: usize,
        /// Stage of the protected read (checkpoint rollback limit).
        read_stage: usize,
        /// Hazard map.
        map: u32,
        /// Hazard key.
        key: Vec<u8>,
    },
    /// Flush this packet's stage and everything younger.
    FlushSelf,
}

/// Why an operation could not complete normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpAbort {
    /// Access outside valid bounds: the hardware drops the packet.
    Fault,
    /// The packet read a location with an uncommitted older write: it must
    /// re-execute (RAW protection).
    FlushSelf,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_core::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    fn run_one(program: &Program, pkt: Vec<u8>) -> SimOutcome {
        let design = Compiler::new().compile(program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.enqueue(pkt);
        sim.settle(100_000);
        sim.drain().remove(0)
    }

    #[test]
    fn trivial_pass() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let out = run_one(&Program::from_insns(a.into_insns()), vec![0; 64]);
        assert_eq!(out.action, XdpAction::Pass);
    }

    #[test]
    fn packet_store_visible_in_output() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.mov64_imm(2, 0xab);
        a.store_reg(MemSize::B, 7, 3, 2);
        a.mov64_imm(0, 3);
        a.exit();
        let out = run_one(&Program::from_insns(a.into_insns()), vec![0; 64]);
        assert_eq!(out.action, XdpAction::Tx);
        assert_eq!(out.packet[3], 0xab);
    }

    #[test]
    fn latency_tracks_stage_count() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let design = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let stages = design.stage_count() as u64;
        let mut sim = PipelineSim::new(&design);
        sim.enqueue(vec![0; 64]);
        sim.settle(10_000);
        let out = sim.drain().remove(0);
        assert_eq!(out.latency_cycles, stages);
    }

    #[test]
    fn pipeline_overlaps_packets() {
        // With n stages and k packets, completion takes about n + k cycles,
        // far less than n * k.
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 0);
        a.alu64_imm(AluOp::Add, 2, 1);
        a.store_reg(MemSize::B, 7, 0, 2);
        a.mov64_imm(0, 3);
        a.exit();
        let design = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let n = design.stage_count() as u64;
        let mut sim = PipelineSim::new(&design);
        for _ in 0..50 {
            sim.enqueue(vec![7; 64]);
        }
        sim.settle(100_000);
        assert_eq!(sim.counters().completed, 50);
        assert!(sim.cycle() < n + 80, "cycles {} vs stages {n}", sim.cycle());
        for out in sim.drain() {
            assert_eq!(out.packet[0], 8);
        }
    }

    #[test]
    fn rx_queue_overflow_counts_drops() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let design = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let mut sim = PipelineSim::with_options(
            &design,
            SimOptions { rx_queue_depth: 4, ..Default::default() },
        );
        for _ in 0..10 {
            sim.enqueue(vec![0; 64]);
        }
        assert_eq!(sim.counters().rx_dropped, 6);
    }

    use ehdl_ebpf::opcode::{AluOp, MemSize};
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod fault_tests {
    use super::*;
    use ehdl_core::{Compiler, CompilerOptions, Protection};
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    /// Same lookup→increment→update shape as the hazard tests: per-flow
    /// counters make silent corruption and replay mistakes observable.
    fn counter_program() -> Program {
        let mut a = Asm::new();
        let skip = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 0);
        a.store_reg(MemSize::W, 10, -8, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
        a.load(MemSize::Dw, 6, 0, 0);
        a.bind(skip);
        a.alu64_imm(AluOp::Add, 6, 1);
        a.store_reg(MemSize::Dw, 10, -16, 6);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        a.mov64_imm(0, 3);
        a.exit();
        Program::new("ctr", a.into_insns(), vec![MapDef::new(0, "cells", MapKind::Hash, 4, 8, 64)])
    }

    fn design_with(protect: Protection) -> ehdl_core::PipelineDesign {
        let opts = CompilerOptions { protect, ..Default::default() };
        Compiler::with_options(opts).compile(&counter_program()).unwrap()
    }

    fn pkt(flow: u8) -> Vec<u8> {
        let mut p = vec![0u8; 64];
        p[0] = flow;
        p
    }

    fn flow_count(sim: &PipelineSim, flow: u8) -> Option<u64> {
        let m = sim.maps().get(0)?;
        let slot = m.clone().lookup(&[flow, 0, 0, 0]).ok().flatten()?;
        Some(u64::from_le_bytes(m.value(slot).try_into().ok()?))
    }

    #[test]
    fn unprotected_map_flips_corrupt_storage() {
        let mut sim = PipelineSim::new(&design_with(Protection::None));
        sim.attach_faults(FaultConfig {
            seed: 11,
            rate: 0.2,
            map_bias: 1.0,
            stuck_fraction: 0.0,
            hang_fraction: 0.0,
            ..Default::default()
        });
        for i in 0..32u8 {
            sim.enqueue(pkt(i));
        }
        sim.settle(1_000_000);
        let eng = sim.fault_engine().unwrap();
        assert!(eng.stats().silent > 0, "unprotected flips must land: {:?}", eng.stats());
        assert!(eng.map_storage_corrupted());
        assert_eq!(eng.stats().detected_replays, 0);
        assert_eq!(sim.counters().fault_replays, 0);
    }

    #[test]
    fn parity_recovers_inflight_flips_by_replay() {
        let mut sim = PipelineSim::new(&design_with(Protection::Parity));
        sim.attach_faults(FaultConfig {
            seed: 5,
            rate: 0.3,
            map_bias: 0.0,
            stuck_fraction: 0.0,
            hang_fraction: 0.0,
            ..Default::default()
        });
        for _ in 0..30 {
            sim.enqueue(pkt(1));
        }
        sim.settle(1_000_000);
        let stats = *sim.fault_engine().unwrap().stats();
        assert!(stats.detected_replays > 0, "faults must be detected: {stats:?}");
        assert_eq!(stats.silent, 0, "parity leaves nothing silent");
        assert!(sim.counters().fault_replays > 0);
        assert!(sim.fault_engine().unwrap().affected_seqs().is_empty());
        // Recovery preserved exact per-flow counts: nothing diverged.
        assert_eq!(sim.counters().completed, 30);
        assert_eq!(flow_count(&sim, 1), Some(30));
    }

    #[test]
    fn ecc_corrects_or_rules_uncorrectable_every_map_upset() {
        let mut sim = PipelineSim::new(&design_with(Protection::EccWatchdog));
        sim.attach_faults(FaultConfig {
            seed: 23,
            rate: 0.1,
            map_bias: 1.0,
            stuck_fraction: 0.0,
            hang_fraction: 0.0,
            scrub_period: 64,
            ..Default::default()
        });
        for i in 0..32u8 {
            sim.enqueue(pkt(i));
        }
        sim.settle(1_000_000);
        sim.finalize_faults();
        let stats = *sim.fault_engine().unwrap().stats();
        assert_eq!(stats.silent, 0, "ECC leaves nothing silent: {stats:?}");
        assert!(stats.corrected_read + stats.corrected_scrub > 0);
        assert_eq!(
            stats.corrected_read + stats.corrected_scrub + stats.uncorrectable,
            stats.effective(),
            "every effective upset resolves: {stats:?}"
        );
        if stats.uncorrectable == 0 {
            assert!(!sim.fault_engine().unwrap().map_storage_corrupted());
            for i in 0..32u8 {
                assert_eq!(flow_count(&sim, i), Some(1));
            }
        }
    }

    #[test]
    fn watchdog_drains_and_recovers_hung_stage() {
        let mut sim = PipelineSim::new(&design_with(Protection::EccWatchdog));
        sim.attach_faults(FaultConfig {
            seed: 3,
            rate: 1.0,
            map_bias: 0.0,
            stuck_fraction: 0.0,
            hang_fraction: 1.0,
            watchdog_timeout: 64,
            ..Default::default()
        });
        for i in 0..20u8 {
            sim.enqueue(pkt(i));
        }
        sim.settle(1_000_000);
        assert!(sim.counters().watchdog_resets >= 1, "{:?}", sim.counters());
        assert!(sim.availability() < 1.0);
        // Every packet retired: hung ones as forced drops, the rest clean.
        assert_eq!(sim.counters().completed, 20);
        let outs = sim.drain();
        assert_eq!(outs.len(), 20);
        let lost = sim.counters().pkts_lost_to_faults;
        assert_eq!(outs.iter().filter(|o| o.action == XdpAction::Drop).count() as u64, lost);
        let stats = sim.fault_engine().unwrap().stats();
        assert_eq!(stats.watchdog_recoveries, sim.counters().watchdog_resets);
    }

    #[test]
    fn hang_without_watchdog_collapses_availability() {
        let mut sim = PipelineSim::new(&design_with(Protection::None));
        sim.attach_faults(FaultConfig {
            seed: 3,
            rate: 1.0,
            map_bias: 0.0,
            stuck_fraction: 0.0,
            hang_fraction: 1.0,
            ..Default::default()
        });
        for i in 0..8u8 {
            sim.enqueue(pkt(i));
        }
        sim.settle(20_000);
        assert!(sim.availability() < 0.5, "availability {}", sim.availability());
        assert!(sim.counters().completed < 8, "{:?}", sim.counters());
        assert_eq!(sim.counters().watchdog_resets, 0);
    }

    #[test]
    fn campaigns_are_bit_reproducible() {
        let run = || {
            let mut sim = PipelineSim::new(&design_with(Protection::EccWatchdog));
            sim.attach_faults(FaultConfig { seed: 42, rate: 0.05, ..Default::default() });
            for i in 0..24u8 {
                sim.enqueue(pkt(i % 6));
            }
            sim.settle(1_000_000);
            sim.finalize_faults();
            let outs = sim.drain().iter().map(|o| (o.seq, o.action)).collect::<Vec<_>>();
            let eng = sim.fault_engine().unwrap();
            (outs, *sim.counters(), *eng.stats(), eng.log().to_vec(), eng.hung_cycles())
        };
        let a = run();
        let b = run();
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.0, b.0);
        assert_eq!(a.3, b.3);
        assert_eq!(a.4, b.4);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod hazard_timing_tests {
    use super::*;
    use ehdl_core::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    /// A lookup→update program: reads key K, then (always) updates K.
    pub(crate) fn rmw_program() -> Program {
        let mut a = Asm::new();
        let skip = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        // key = packet byte 0 (the flow id)
        a.load(MemSize::B, 2, 7, 0);
        a.store_reg(MemSize::W, 10, -8, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
        a.load(MemSize::Dw, 6, 0, 0); // read old value
        a.bind(skip);
        // value = old + 1 (or 1 on miss: r6 starts 0)
        a.alu64_imm(AluOp::Add, 6, 1);
        a.store_reg(MemSize::Dw, 10, -16, 6);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        a.mov64_imm(0, 3);
        a.exit();
        Program::new("rmw", a.into_insns(), vec![MapDef::new(0, "cells", MapKind::Hash, 4, 8, 64)])
    }

    pub(crate) fn pkt(flow: u8) -> Vec<u8> {
        let mut p = vec![0u8; 64];
        p[0] = flow;
        p
    }

    #[test]
    fn same_flow_inside_window_flushes_and_stays_correct() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let window = design.hazards.max_raw_window().expect("rmw has a FEB") as u64;
        assert!(window >= 2);

        // Back-to-back same-flow packets: the second reads before the
        // first writes → flush; final count must still be exact.
        let mut sim = PipelineSim::new(&design);
        for _ in 0..10 {
            sim.enqueue(pkt(1));
        }
        sim.settle(1_000_000);
        assert!(sim.counters().flushes > 0, "inside-window traffic must flush");
        let m = sim.maps().get(0).unwrap();
        let slot = m.clone().lookup(&[1, 0, 0, 0]).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(m.value(slot).try_into().unwrap()), 10);
    }

    #[test]
    fn same_flow_outside_window_never_flushes() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let window = design.hazards.max_raw_window().unwrap() as u64;

        // Space same-flow packets strictly wider than the hazard window:
        // the earlier packet's update commits before the next read.
        let mut sim = PipelineSim::new(&design);
        for _ in 0..10 {
            sim.enqueue(pkt(1));
            for _ in 0..window + 4 {
                sim.step();
            }
        }
        sim.settle(1_000_000);
        assert_eq!(sim.counters().flushes, 0, "spaced traffic never hazards");
        let m = sim.maps().get(0).unwrap();
        let slot = m.clone().lookup(&[1, 0, 0, 0]).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(m.value(slot).try_into().unwrap()), 10);
    }

    #[test]
    fn distinct_flows_inside_window_never_flush() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        for i in 0..32u8 {
            sim.enqueue(pkt(i)); // all different keys, back to back
        }
        sim.settle(1_000_000);
        assert_eq!(sim.counters().flushes, 0, "FEB matches keys, not the map");
        assert_eq!(sim.counters().completed, 32);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod ctrl_tests {
    use super::hazard_timing_tests::{pkt, rmw_program};
    use super::*;
    use crate::ctrl::{CtrlError, CtrlOptions, HostOp, HostOpResult};
    use ehdl_core::Compiler;
    use ehdl_ebpf::maps::UpdateFlags;

    fn key(flow: u8) -> Vec<u8> {
        vec![flow, 0, 0, 0]
    }

    fn count_of(sim: &PipelineSim, flow: u8) -> u64 {
        let m = sim.maps().get(0).unwrap();
        let slot = m.clone().lookup(&key(flow)).unwrap().unwrap();
        u64::from_le_bytes(m.value(slot).try_into().unwrap())
    }

    #[test]
    fn submit_requires_attached_channel_and_known_map() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        let op = HostOp::Lookup { map: 0, key: key(1) };
        assert_eq!(sim.submit_host_op(op.clone()), Err(CtrlError::NotAttached));
        sim.attach_ctrl(CtrlOptions::default());
        assert_eq!(
            sim.submit_host_op(HostOp::Dump { map: 9 }),
            Err(CtrlError::NoSuchMap { map: 9 })
        );
        assert!(sim.submit_host_op(op).is_ok());
        sim.settle(10_000);
        let c = sim.host_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].result, Ok(HostOpResult::Value(None)));
    }

    #[test]
    fn queue_depth_bounds_outstanding_ops() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 1000, queue_depth: 2 });
        assert!(sim.submit_host_op(HostOp::Dump { map: 0 }).is_ok());
        assert!(sim.submit_host_op(HostOp::Dump { map: 0 }).is_ok());
        assert_eq!(
            sim.submit_host_op(HostOp::Dump { map: 0 }),
            Err(CtrlError::QueueFull { depth: 2 })
        );
        let stats = sim.ctrl_stats().unwrap();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn host_write_respects_barrier_order() {
        // 5 increments of flow 1, then a host write setting it to 100,
        // then 5 more increments. Sequentially: 5 → 100 → 105. The op is
        // submitted while the first packets are still in flight; the
        // fence + reservation machinery must serialize exactly at the
        // barrier.
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 1, queue_depth: 4 });
        for _ in 0..5 {
            sim.enqueue(pkt(1));
        }
        let id = sim
            .submit_host_op(HostOp::Update {
                map: 0,
                key: key(1),
                value: 100u64.to_le_bytes().to_vec(),
                flags: UpdateFlags::Any,
            })
            .unwrap();
        for _ in 0..5 {
            sim.enqueue(pkt(1));
        }
        sim.settle(1_000_000);
        assert_eq!(count_of(&sim, 1), 105);
        let c = sim.host_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].id, id);
        assert_eq!(c[0].result, Ok(HostOpResult::Updated));
        assert_eq!(sim.counters().completed, 10);
        assert_eq!(sim.counters().host_ops, 1);
    }

    #[test]
    fn host_write_inside_raw_window_flushes_young_readers() {
        // With a 1-cycle channel the update lands while younger same-key
        // packets already hold unconfirmed reads of the old value: the
        // write must trigger the FEB flush/replay path, and the replayed
        // packets must observe the host's value.
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 1, queue_depth: 4 });
        for _ in 0..3 {
            sim.enqueue(pkt(1));
        }
        // Let the front packets reach deep stages before submitting.
        for _ in 0..4 {
            sim.step();
        }
        sim.submit_host_op(HostOp::Update {
            map: 0,
            key: key(1),
            value: 1000u64.to_le_bytes().to_vec(),
            flags: UpdateFlags::Any,
        })
        .unwrap();
        for _ in 0..6 {
            sim.enqueue(pkt(1));
        }
        sim.settle(1_000_000);
        let barrier = 3; // three packets had arrived at submission
        let expected = 1000 + (9 - barrier);
        assert_eq!(count_of(&sim, 1), expected);
        let stats = sim.ctrl_stats().unwrap();
        assert!(
            stats.flushes > 0 && stats.flushed_readers > 0,
            "host write must repair in-flight readers: {stats:?}"
        );
        assert_eq!(sim.counters().host_op_flushes, stats.flushes);
    }

    #[test]
    fn host_ops_while_idle_have_pure_latency() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 64, queue_depth: 4 });
        sim.submit_host_op(HostOp::Lookup { map: 0, key: key(7) }).unwrap();
        sim.settle(10_000);
        let stats = sim.ctrl_stats().unwrap();
        assert_eq!(stats.latency_cycles_max, 64);
        assert_eq!(stats.mean_latency_cycles(), 64.0);
        assert_eq!(stats.flushes, 0);
    }

    #[test]
    fn dump_sees_barrier_consistent_snapshot() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 1, queue_depth: 4 });
        for f in 0..4u8 {
            sim.enqueue(pkt(f));
        }
        sim.submit_host_op(HostOp::Dump { map: 0 }).unwrap();
        for f in 4..8u8 {
            sim.enqueue(pkt(f));
        }
        sim.settle(1_000_000);
        let c = sim.host_completions();
        let Ok(HostOpResult::Entries(entries)) = &c[0].result else {
            panic!("dump failed: {:?}", c[0].result);
        };
        // Exactly the four pre-barrier flows, each counted once.
        let mut keys: Vec<u8> = entries.iter().map(|(k, _)| k[0]).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        for (_, v) in entries.iter() {
            assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 1);
        }
    }

    /// Map ids from 63 up share the top bit of the stage masks, so a stage
    /// that writes only map 64 is still held behind a queued host op on it.
    #[test]
    fn effect_stall_covers_map_ids_past_63() {
        use ehdl_core::ir::MapUse;
        use ehdl_ebpf::asm::Asm;
        use ehdl_ebpf::helpers::BPF_MAP_UPDATE_ELEM;
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, MemSize};
        use ehdl_ebpf::Program;
        let mut a = Asm::new();
        a.mov64_imm(2, 1);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.store_reg(MemSize::Dw, 10, -16, 2);
        a.ld_map_fd(1, 64);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        a.mov64_imm(0, 2);
        a.exit();
        let maps = (0..65).map(|id| MapDef::new(id, &format!("m{id}"), MapKind::Hash, 4, 8, 4));
        let program = Program::new("m64", a.into_insns(), maps.collect());
        let design = Compiler::new().compile(&program).unwrap();
        let write_stage = design
            .stages
            .iter()
            .position(|st| st.ops.iter().any(|op| op.map_use == Some(MapUse::HelperWrite(64))))
            .expect("the update of map 64 has a stage");
        let mut sim = PipelineSim::new(&design);
        sim.attach_ctrl(CtrlOptions { latency_cycles: 1000, queue_depth: 4 });
        assert!(!sim.ctrl_effect_stall(write_stage, 0), "nothing queued yet");
        sim.submit_host_op(HostOp::Delete { map: 64, key: key(1) }).unwrap();
        assert!(sim.ctrl_effect_stall(write_stage, 0), "a packet after the barrier must wait");
    }

    #[test]
    fn per_map_telemetry_counts_lookups_and_hits() {
        let program = rmw_program();
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::new(&design);
        for _ in 0..4 {
            sim.enqueue(pkt(9));
        }
        sim.settle(1_000_000);
        assert!(sim.map_lookups()[0] >= 4, "lookups {:?}", sim.map_lookups());
        // First access misses, later ones hit (replays may add more).
        assert!(sim.map_hits()[0] >= 3, "hits {:?}", sim.map_hits());
        assert!(sim.map_hits()[0] < sim.map_lookups()[0]);
        assert!(sim.stage_occupancy().iter().any(|&c| c > 0));
    }
}

/// A stage's in-place writes before a self-flush vanish with the flush.
#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod engine_tests {
    use super::*;
    use crate::diff::{check, Scenario};
    use ehdl_core::{Compiler, FusedOp};
    use ehdl_programs::leaky_bucket;
    use ehdl_traffic::{FlowSet, Popularity, Workload};

    /// Per packet the verdict, redirect target and bytes, then the sorted
    /// map contents: everything a run leaves but its timing.
    type Observed = (Vec<(u64, XdpAction, Option<u32>, Vec<u8>)>, Vec<Vec<(Vec<u8>, Vec<u8>)>>);

    fn observe(sim: &mut PipelineSim) -> Observed {
        let outs = sim.drain().into_iter();
        let maps = sim.maps().iter().map(|m| {
            let mut e: Vec<_> = m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
            e.sort();
            e
        });
        (outs.map(|o| (o.seq, o.action, o.redirect_ifindex, o.packet)).collect(), maps.collect())
    }

    /// A flush-capable op past index 0 raises `FlushSelf` after the op
    /// before it wrote a register in place. Another packet's write still in
    /// a WAR delay buffer is what raises it; the leaky bucket has none, so
    /// the test plants one that matches the reader's key and writes nothing
    /// when it commits. The flush re-injects the reader from a checkpoint at
    /// or before the stage's entry (forced FEB checkpoints with partial
    /// flushes on; the original bytes with them off), so every packet
    /// retires as in the unflushed run, which the differential harness
    /// holds to the VM. Packets go through one at a time: what is checked
    /// is the flushed packet's own replay, not its interplay with other
    /// packets' hazards.
    #[test]
    fn a_self_flush_after_an_in_place_write_stays_vm_clean() {
        let program = leaky_bucket::program();
        let design = Compiler::new().compile(&program).unwrap();
        let lp = LoweredPlan::try_lower(&design).unwrap();
        let (s, src, off) = (0..lp.stage_count())
            .find_map(|s| match lp.stage_fused(s) {
                [FusedOp::AluRR { .. } | FusedOp::AluRI { .. }, FusedOp::LdMap { src, off, .. }] => {
                    Some((s, *src, *off))
                }
                _ => None,
            })
            .expect("the leaky bucket has an [ALU, LdMap] stage");
        let hot = Workload::new(FlowSet::udp(64, 42), Popularity::Hot { p_hot: 0.5 }, 64, 43)
            .packets(300);
        let scenario = Scenario::new(&program, &design, &hot);
        check(&scenario).assert_clean();
        let run = |options, plant: bool| {
            let mut sim = PipelineSim::with_options(&design, options);
            let mut self_flushes = 0;
            for p in &hot {
                sim.enqueue(p.clone());
                let mut planted = false;
                while plant && !sim.is_idle() {
                    let reader =
                        sim.slots[s].pkt.as_ref().filter(|p| !planted && p.resume.is_none());
                    let addr = reader.map(|p| addr_of(&p.state, src, off));
                    if let Some((map, slot, _, value_size)) = addr.and_then(|a| sim.map_value_at(a))
                    {
                        // Past the value's end: the commit writes nothing.
                        let kind = WriteKind::StoreValue {
                            slot,
                            off: value_size,
                            size: MemSize::B,
                            value: 0,
                        };
                        let commit_cycle = sim.cycle + 2;
                        sim.pending_writes.push(PendingWrite {
                            commit_cycle,
                            map,
                            seq: u64::MAX,
                            kind,
                        });
                        planted = true;
                        let flushes = sim.counters().flushes;
                        sim.step();
                        self_flushes += u64::from(sim.counters().flushes > flushes);
                    } else {
                        sim.step();
                    }
                }
            }
            sim.settle(1_000_000);
            (observe(&mut sim), self_flushes)
        };
        let (clean, _) = run(scenario.sim, false);
        for partial_flush in [true, false] {
            let (flushed, self_flushes) = run(SimOptions { partial_flush, ..scenario.sim }, true);
            assert!(self_flushes > 0, "the planted writes must raise a self-flush at stage {s}");
            assert_eq!(flushed, clean, "partial_flush {partial_flush}");
        }
    }
}
