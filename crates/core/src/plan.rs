//! The design as the simulator executes it, fixed at attach time.
//!
//! A synthesized eHDL pipeline is constant: every stage's ops, enables,
//! checkpoints and hazard schedule are decided when the design is built
//! (§4). [`LoweredPlan::try_lower`] is the one pass that turns a
//! [`PipelineDesign`] into that constant form, and the only place the
//! tables the cycle loop needs are derived: one specialized [`FusedOp`]
//! per source op, per-stage checkpoint and map masks, per-map host fences
//! and FEB write stages, the hazard schedule of every map write and the
//! flat block-predecessor table. The simulator
//! shares it behind one `Arc`, so the executor borrows design data while
//! it mutates packet state. [`control_inventory`] describes the same
//! design's host-facing interface for the resource model and the VHDL.

use crate::ddg::same_stage_dependence;
use crate::ir::{HwInsn, MapUse, MemLabel};
use crate::pipeline::{EdgeCond, PipelineDesign, StageOp};
use ehdl_ebpf::helpers::{
    BPF_CSUM_DIFF, BPF_GET_PRANDOM_U32, BPF_GET_SMP_PROCESSOR_ID, BPF_KTIME_GET_NS,
    BPF_MAP_DELETE_ELEM, BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM, BPF_REDIRECT,
    BPF_XDP_ADJUST_HEAD, BPF_XDP_ADJUST_TAIL,
};
use ehdl_ebpf::insn::{Instruction, Operand};
use ehdl_ebpf::opcode::{AluOp, AtomicOp, JmpOp, MemSize, Width};
use ehdl_ebpf::vm::MAP_HANDLE_BASE;

/// One host-facing map port in the control-interface inventory.
///
/// Every map is reachable from the host over the AXI-Lite-like control
/// channel (§4.4 exposes maps "to the host for exactly this reason"); the
/// port is arbitrated against the pipeline's own read/write ports, so the
/// inventory records where in the pipeline the last access sits — a host
/// operation serializes behind in-flight packets up to that stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMapPort {
    /// Map id.
    pub map: u32,
    /// Map name (names the port in the emitted VHDL).
    pub name: String,
    /// Key width of the port.
    pub key_bits: u32,
    /// Value width of the port.
    pub value_bits: u32,
    /// One past the last pipeline stage that touches the map (read, write
    /// or atomic). A host op with packet barrier `B` applies once every
    /// packet older than `B` has advanced to at least this stage: all of
    /// its effects on (and observations of) the map have then retired.
    pub fence_stage: usize,
    /// Whether the pipeline writes the map: host writes must then win
    /// arbitration against the pipeline's write/atomic port, not only the
    /// read port.
    pub pipeline_writes: bool,
}

/// One control/status register exposed over the control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrDef {
    /// Register name (names the CSR in the emitted VHDL).
    pub name: String,
    /// Register width in bits.
    pub bits: u32,
    /// Read-only status register (telemetry) vs writable control register.
    pub read_only: bool,
}

/// The design's complete host-facing control interface: per-map host
/// ports plus the CSR file (telemetry counters, per-stage occupancy, and
/// the drain-and-swap reload handshake). `resource` charges its LUT/FF
/// cost and `vhdl` names every port and register.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlInventory {
    /// One host port per map.
    pub map_ports: Vec<HostMapPort>,
    /// The CSR file, in address order.
    pub csrs: Vec<CsrDef>,
}

/// Build the control-interface inventory of `design`.
pub fn control_inventory(design: &PipelineDesign) -> ControlInventory {
    let nstages = design.stages.len();
    let mut reach = MapReach::new(design.maps.len());
    for (s, stage) in design.stages.iter().enumerate() {
        for mu in stage.ops.iter().filter_map(|op| op.map_use) {
            reach.note(s, mu);
        }
    }
    let map_ports = design
        .maps
        .iter()
        .map(|m| HostMapPort {
            map: m.id,
            name: m.name.clone(),
            key_bits: m.key_size * 8,
            value_bits: m.value_size * 8,
            fence_stage: reach.fence.get(m.id as usize).copied().unwrap_or(0),
            pipeline_writes: reach.writes.get(m.id as usize).copied().unwrap_or(false),
        })
        .collect();
    let ro = |name: &str| CsrDef { name: name.to_string(), bits: 32, read_only: true };
    let mut csrs = vec![
        ro("csr_cycles_lo"),
        ro("csr_cycles_hi"),
        ro("csr_pkts_injected"),
        ro("csr_pkts_completed"),
        ro("csr_rx_dropped"),
        ro("csr_flushes"),
        ro("csr_flush_replays"),
        ro("csr_fault_replays"),
        ro("csr_wd_resets"),
        ro("csr_host_ops"),
        ro("csr_host_op_flushes"),
        CsrDef { name: "csr_reload_ctrl".to_string(), bits: 32, read_only: false },
        ro("csr_reload_status"),
    ];
    for s in 0..nstages {
        csrs.push(ro(&format!("csr_stage{s}_occupancy")));
    }
    for m in &design.maps {
        csrs.push(ro(&format!("csr_map{}_lookups", m.id)));
        csrs.push(ro(&format!("csr_map{}_hits", m.id)));
    }
    ControlInventory { map_ports, csrs }
}

/// Where the pipeline touches each map, by map id: one past the last stage
/// that reads, writes or atomically modifies it (its host-port fence) and
/// whether any stage writes it. Both [`control_inventory`] and
/// [`LoweredPlan::try_lower`] fold their stage ops through [`MapReach::note`].
struct MapReach {
    fence: Vec<usize>,
    writes: Vec<bool>,
}

impl MapReach {
    fn new(nmaps: usize) -> MapReach {
        MapReach { fence: vec![0; nmaps], writes: vec![false; nmaps] }
    }

    /// Record that stage `s` uses a map as `mu`.
    fn note(&mut self, s: usize, mu: MapUse) {
        let m = mu.map() as usize;
        if let Some(f) = self.fence.get_mut(m) {
            *f = (*f).max(s + 1);
        }
        if let (Some(w), true) = (self.writes.get_mut(m), writes_map(mu)) {
            *w = true;
        }
    }
}

/// Whether a map use changes the map: update/delete, a value store or an
/// atomic. These are the uses a host write arbitrates against.
fn writes_map(mu: MapUse) -> bool {
    matches!(mu, MapUse::HelperWrite(_) | MapUse::StoreValue(_) | MapUse::Atomic(_))
}

/// Map `m`'s bit in a stage's map mask ([`LoweredStage::effect_maps`],
/// [`LoweredStage::read_maps`]). Ids from 63 up share bit 63, so a mask
/// test on a large id can stall conservatively but never miss.
#[inline]
pub fn map_bit(m: u32) -> u64 {
    1 << m.min(63)
}

/// The checkpoint schedule for partial flushes: `true` at every stage some
/// FEB lists as a protected read stage. A packet entering one of these
/// stages is snapshotted, so a flush can resume the hazard window from its
/// own elastic buffer instead of replaying the whole pipeline below the
/// write (App. A.2).
pub(crate) fn checkpoint_stages(design: &PipelineDesign) -> Vec<bool> {
    let mut ckpt = vec![false; design.stages.len()];
    for &r in design.hazards.febs.iter().flat_map(|f| &f.read_stages) {
        if let Some(c) = ckpt.get_mut(r) {
            *c = true;
        }
    }
    ckpt
}

// ---------------------------------------------------------------------------
// Lowered plan: the simulator's attach-time specialized form.
// ---------------------------------------------------------------------------

/// Why a design could not be lowered for the simulator.
///
/// The verifier rejects unknown helpers and undeclared maps at load time,
/// the labeling pass rejects a map helper whose map it cannot resolve, and
/// the compiler emits blocks in topological order and schedules only
/// write-after-read pairs into one stage, so a compiled design always
/// lowers; the simulator panics with this error on a design edited by hand
/// into one that does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A stage calls a helper the executor has no semantics for; rather
    /// than bake a guaranteed fault, the lowerer rejects the plan.
    UnsupportedHelper {
        /// Pipeline stage of the offending call.
        stage: usize,
        /// Original bytecode slot of the call.
        pc: usize,
        /// The unknown helper id.
        helper: u32,
    },
    /// A map-touching op references a map id absent from the design, so
    /// no key/value geometry can be baked for it.
    UnknownMap {
        /// Pipeline stage of the offending op.
        stage: usize,
        /// Original bytecode slot of the op.
        pc: usize,
        /// The unresolvable map id.
        map: u32,
    },
    /// A map helper call whose map the labeling did not resolve, so no
    /// key/value geometry or hazard schedule can be baked for it.
    UnresolvedMap {
        /// Pipeline stage of the offending call.
        stage: usize,
        /// Original bytecode slot of the call.
        pc: usize,
    },
    /// Op `op` of stage `stage` reads or overwrites what an earlier op of
    /// the same stage writes ([`crate::ddg::same_stage_dependence`]). A
    /// stage's ops run in place, in stage order, which equals the
    /// hardware's read-the-incoming-state semantics only without such a
    /// pair.
    SameStageDependence {
        /// The pipeline stage.
        stage: usize,
        /// Index of the dependent op within the stage.
        op: usize,
    },
    /// A block lists a predecessor that is not earlier than itself. The
    /// executor resolves enable signals in one forward walk over the
    /// blocks, which needs every predecessor first.
    PredecessorOrder {
        /// The block with the offending edge.
        block: usize,
        /// Its predecessor at the same or a later index.
        pred: usize,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnsupportedHelper { stage, pc, helper } => {
                write!(f, "stage {stage} pc {pc}: helper {helper} has no compiled specialization")
            }
            LowerError::UnknownMap { stage, pc, map } => {
                write!(f, "stage {stage} pc {pc}: map {map} is not declared by the design")
            }
            LowerError::UnresolvedMap { stage, pc } => {
                write!(f, "stage {stage} pc {pc}: map helper call with no resolved map")
            }
            LowerError::SameStageDependence { stage, op } => {
                write!(f, "stage {stage} op {op} depends on an earlier op of its own stage")
            }
            LowerError::PredecessorOrder { block, pred } => {
                write!(f, "block {block} has predecessor {pred} out of topological order")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// A pre-resolved register-or-immediate operand. Immediates are already
/// sign-extended to 64 bits, so the executor never widens at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrImm {
    /// Read register `r` at execution time.
    Reg(u8),
    /// Use this constant.
    Imm(u64),
}

/// One specialized micro-op of a [`LoweredPlan`] stage.
///
/// Fused ops are in 1:1 correspondence with the design's stage ops (same
/// order, same count): op `i` of lowered stage `s` specializes
/// `design.stages[s].ops[i]`, whose packet-bounds proof the executor
/// rechecks by that index. A memory op whose runtime address (or map
/// handle) misses its label runs the unspecialized arm of the same kind:
/// [`FusedOp::LdAny`], [`FusedOp::StAny`], [`FusedOp::AtomicAny`], or a
/// map helper resolving its map at run time.
///
/// All plan-derived constants — immediates (pre-sign-extended), map handle
/// values, key/value geometry, WAR delays and FEB read stages — are baked
/// into the variant, so the hot path does no plan lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// `dst = alu(op, dst, src)`.
    AluRR {
        /// ALU operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination (and first-operand) register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `dst = alu(op, dst, imm)`.
    AluRI {
        /// ALU operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination (and first-operand) register.
        dst: u8,
        /// Pre-sign-extended immediate.
        imm: u64,
    },
    /// Three-operand `dst = alu(op, a, b)` with a register `b`.
    Alu3RR {
        /// ALU operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: u8,
        /// First source register.
        a: u8,
        /// Second source register.
        b: u8,
    },
    /// Three-operand `dst = alu(op, a, imm)`.
    Alu3RI {
        /// ALU operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: u8,
        /// First source register.
        a: u8,
        /// Pre-sign-extended immediate.
        imm: u64,
    },
    /// `dst = imm` — covers `mov dst, imm` (result pre-computed for the
    /// width) and `ld_imm64` (map handles already resolved to their
    /// `MAP_HANDLE_BASE + id` address).
    MovImm {
        /// Destination register.
        dst: u8,
        /// Final 64-bit register value.
        imm: u64,
    },
    /// Byte-swap `dst`.
    Endian {
        /// Destination register.
        dst: u8,
        /// Swap width in bits (16/32/64).
        bits: i32,
        /// True for `be`, false for `le` conversion.
        to_be: bool,
    },
    /// Unconditional branch: record `taken = true` for the block.
    JmpAlways,
    /// Conditional branch on two registers.
    JmpRR {
        /// Comparison operator.
        op: JmpOp,
        /// Comparison width.
        width: Width,
        /// Left-hand register.
        lhs: u8,
        /// Right-hand register.
        rhs: u8,
    },
    /// Conditional branch against an immediate.
    JmpRI {
        /// Comparison operator.
        op: JmpOp,
        /// Comparison width.
        width: Width,
        /// Left-hand register.
        lhs: u8,
        /// Pre-sign-extended immediate.
        imm: u64,
    },
    /// Program exit; the XDP action is in `r0`.
    Exit,
    /// Context load (label `Ctx`): `xdp_md` field reads resolve to packet
    /// geometry without touching memory.
    LdCtx {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
    },
    /// Stack load (label `Stack`).
    LdStk {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
    },
    /// Packet load (label `Packet`). `proven` skips the dynamic bounds
    /// compare the abstract interpreter already discharged.
    LdPkt {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
        /// Bounds proven at compile time.
        proven: bool,
    },
    /// Map-value load (label `Map`), geometry baked.
    LdMap {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
        /// Map id the label names.
        map: u32,
        /// Baked value stride of that map.
        stride: u32,
        /// Baked value size of that map.
        value_size: u32,
    },
    /// Stack store (label `Stack`).
    StStk {
        /// Access size.
        size: MemSize,
        /// Base address register.
        base: u8,
        /// Signed displacement.
        off: i16,
        /// Stored value.
        src: RegOrImm,
    },
    /// Packet store (label `Packet`).
    StPkt {
        /// Access size.
        size: MemSize,
        /// Base address register.
        base: u8,
        /// Signed displacement.
        off: i16,
        /// Stored value.
        src: RegOrImm,
        /// Bounds proven at compile time.
        proven: bool,
    },
    /// Map-value store (label `Map`), geometry and hazard schedule baked.
    StMap {
        /// Access size.
        size: MemSize,
        /// Base address register.
        base: u8,
        /// Signed displacement.
        off: i16,
        /// Stored value.
        src: RegOrImm,
        /// Map id the label names.
        map: u32,
        /// Baked value stride of that map.
        stride: u32,
        /// Baked value size of that map.
        value_size: u32,
        /// Baked WAR delay for (map, stage).
        delay: u32,
        /// Baked FEB protected-read stage for (map, stage).
        feb_read_stage: u32,
    },
    /// Atomic read-modify-write on a map value (label `Map`).
    AtomicMap {
        /// The atomic operation.
        op: AtomicOp,
        /// Access size.
        size: MemSize,
        /// Base address register.
        dst: u8,
        /// Operand register.
        src: u8,
        /// Signed displacement.
        off: i16,
        /// Map id the label names.
        map: u32,
        /// Baked value stride of that map.
        stride: u32,
        /// Baked value size of that map.
        value_size: u32,
    },
    /// `bpf_map_lookup_elem` with baked geometry.
    Lookup {
        /// Map id from the hazard analysis.
        map: u32,
        /// Baked key size.
        key_size: u32,
        /// Baked value stride.
        stride: u32,
    },
    /// `bpf_map_update_elem` with baked geometry and hazard schedule.
    MapUpdate {
        /// Map id from the hazard analysis.
        map: u32,
        /// Baked key size.
        key_size: u32,
        /// Baked value size.
        value_size: u32,
        /// Baked WAR delay for (map, stage).
        delay: u32,
        /// Baked FEB protected-read stage for (map, stage).
        feb_read_stage: u32,
    },
    /// `bpf_map_delete_elem` with baked geometry and hazard schedule.
    MapDelete {
        /// Map id from the hazard analysis.
        map: u32,
        /// Baked key size.
        key_size: u32,
        /// Baked WAR delay for (map, stage).
        delay: u32,
        /// Baked FEB protected-read stage for (map, stage).
        feb_read_stage: u32,
    },
    /// `bpf_ktime_get_ns`.
    Ktime,
    /// `bpf_get_prandom_u32`.
    Prandom,
    /// `bpf_get_smp_processor_id` (always 0 — one pipeline).
    SmpId,
    /// `bpf_redirect`.
    Redirect,
    /// `bpf_xdp_adjust_head`.
    AdjustHead,
    /// `bpf_xdp_adjust_tail`.
    AdjustTail,
    /// `bpf_csum_diff`.
    CsumDiff,
    /// A load with no memory label: the address region is decided at run
    /// time (context, packet, stack or map value).
    LdAny {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
    },
    /// A store with no stack/packet/map label (unlabelled, or to the
    /// context, which faults): the region is decided at run time.
    StAny {
        /// Access size.
        size: MemSize,
        /// Base address register.
        base: u8,
        /// Signed displacement.
        off: i16,
        /// Stored value.
        src: RegOrImm,
    },
    /// An atomic that is not on a map value (stack, packet, unlabelled):
    /// the region is decided at run time.
    AtomicAny {
        /// The atomic operation.
        op: AtomicOp,
        /// Access size.
        size: MemSize,
        /// Base address register.
        dst: u8,
        /// Operand register.
        src: u8,
        /// Signed displacement.
        off: i16,
    },
}

/// One stage of a [`LoweredPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredStage {
    /// Owning control block.
    pub block: u32,
    /// Baked strictest implicit length guard of the block (`i64::MIN`
    /// when the block carries none).
    pub guard_min_len: i64,
    /// Index range into the plan's fused-op array.
    ops: (u32, u32),
    /// A FEB-protected read stage: a packet entering it takes a
    /// checkpoint for partial flushes.
    pub checkpoint: bool,
    /// Some op looks a map up here. With a host control channel attached
    /// these stages are checkpoints too: a host write can invalidate any
    /// recorded read, and the flush re-enters at the stale read's stage.
    pub lookup: bool,
    /// Maps ([`map_bit`]) the stage writes or atomically modifies. The
    /// host-port arbiter stalls the stage while a queued host op on one
    /// of them must apply first.
    pub effect_maps: u64,
    /// Maps ([`map_bit`]) the stage looks up or loads values from. At the
    /// last stage the arbiter holds retirement while a queued host write
    /// could still invalidate such a read.
    pub read_maps: u64,
}

/// The hazard schedule of the map writes at one `(stage, map)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteSchedule {
    stage: u32,
    map: u32,
    /// WAR delay-buffer depth (0: the write commits at once).
    delay: u32,
    /// Earliest protected read stage of the write's FEB (0: none).
    feb_read_stage: u32,
}

/// The simulator's specialized execution plan.
///
/// Produced once at attach time by [`LoweredPlan::try_lower`]: every
/// [`StageOp`] is monomorphized into a [`FusedOp`] with its operands
/// resolved and its plan constants (immediates, map geometry, WAR delays,
/// FEB schedules, block guards) baked in. The executor runs a stage's ops
/// in place, in stage order; `try_lower` checks that no op of a stage
/// depends on an earlier one of the same stage except write-after-read,
/// so in-place execution equals the hardware's read-the-incoming-state
/// semantics.
///
/// The plan also keeps what the flush, fault and host-port machinery
/// read: the block predecessors in topological order, and the per-map and
/// per-write tables documented on their accessors.
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    stages: Vec<LoweredStage>,
    ops: Vec<FusedOp>,
    /// All block predecessors, flattened; `block_preds[b]` indexes
    /// `preds[a..z]`.
    preds: Vec<(u32, EdgeCond)>,
    block_preds: Vec<(u32, u32)>,
    /// Per map id: one past the last stage touching it.
    host_fence: Vec<usize>,
    /// Per map id: the latest FEB write stage, if the map has a FEB.
    feb_write_max: Vec<Option<usize>>,
    /// Sorted by `(stage, map)`; pairs absent here have neither a WAR
    /// delay nor a FEB.
    writes: Vec<WriteSchedule>,
}

fn sext(i: i32) -> u64 {
    i as i64 as u64
}

fn reg_or_imm(op: Operand) -> RegOrImm {
    match op {
        Operand::Reg(r) => RegOrImm::Reg(r),
        Operand::Imm(i) => RegOrImm::Imm(sext(i)),
    }
}

impl LoweredPlan {
    /// Lower `design` into the simulator's specialized plan.
    ///
    /// # Errors
    ///
    /// [`LowerError::UnsupportedHelper`] for helper calls the executor
    /// has no semantics for, [`LowerError::UnknownMap`] when a
    /// map-touching op names a map the design does not declare,
    /// [`LowerError::UnresolvedMap`] for a map helper call with no map,
    /// [`LowerError::SameStageDependence`] when an op of a stage depends
    /// on an earlier op of the same stage, [`LowerError::PredecessorOrder`]
    /// when the blocks are not in topological order. The simulator cannot
    /// execute a design that does not lower.
    pub fn try_lower(design: &PipelineDesign) -> Result<LoweredPlan, LowerError> {
        let mut preds = Vec::new();
        let mut block_preds = Vec::with_capacity(design.blocks.len());
        for (block, info) in design.blocks.iter().enumerate() {
            let a = preds.len() as u32;
            for &(pred, cond) in &info.preds {
                if pred >= block {
                    return Err(LowerError::PredecessorOrder { block, pred });
                }
                preds.push((pred as u32, cond));
            }
            block_preds.push((a, preds.len() as u32));
        }
        let mut guard_min_len = vec![i64::MIN; design.blocks.len()];
        for &(gb, min_len) in &design.guards {
            guard_min_len[gb] = guard_min_len[gb].max(min_len);
        }
        let checkpoint = checkpoint_stages(design);
        let writes = write_schedules(design);
        let mut reach = MapReach::new(design.maps.len());
        let mut stages = Vec::with_capacity(design.stages.len());
        let nops = design.stages.iter().map(|st| st.ops.len()).sum();
        let mut ops = Vec::with_capacity(nops);
        for (s, stage) in design.stages.iter().enumerate() {
            if let Some(op) = same_stage_dependence(&stage.ops) {
                return Err(LowerError::SameStageDependence { stage: s, op });
            }
            let mut st = LoweredStage {
                block: stage.block as u32,
                guard_min_len: guard_min_len.get(stage.block).copied().unwrap_or(i64::MIN),
                ops: (ops.len() as u32, 0),
                checkpoint: checkpoint[s],
                lookup: false,
                effect_maps: 0,
                read_maps: 0,
            };
            for op in &stage.ops {
                ops.push(lower_op(design, &writes, s, op)?);
                if let Some(mu) = op.map_use {
                    reach.note(s, mu);
                    st.lookup |= matches!(mu, MapUse::Lookup(_));
                    if writes_map(mu) {
                        st.effect_maps |= map_bit(mu.map());
                    } else {
                        st.read_maps |= map_bit(mu.map());
                    }
                }
            }
            st.ops.1 = ops.len() as u32;
            stages.push(st);
        }
        let mut feb_write_max = vec![None; design.maps.len()];
        for f in &design.hazards.febs {
            if let Some(w) = feb_write_max.get_mut(f.map as usize) {
                *w = Some(w.map_or(f.write_stage, |w: usize| w.max(f.write_stage)));
            }
        }
        Ok(LoweredPlan {
            stages,
            ops,
            preds,
            block_preds,
            host_fence: reach.fence,
            feb_write_max,
            writes,
        })
    }

    /// Number of pipeline stages (equals the design's).
    #[inline]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage `s`'s lowered descriptor.
    #[inline]
    pub fn stage(&self, s: usize) -> &LoweredStage {
        &self.stages[s]
    }

    /// The fused ops of stage `s`, 1:1 with the design's `stages[s].ops`.
    #[inline]
    pub fn stage_fused(&self, s: usize) -> &[FusedOp] {
        let (a, b) = self.stages[s].ops;
        &self.ops[a as usize..b as usize]
    }

    /// Block `b`'s predecessors with their edge conditions; every
    /// predecessor index is smaller than `b`.
    #[inline]
    pub fn preds_of(&self, b: usize) -> &[(u32, EdgeCond)] {
        let (a, z) = self.block_preds[b];
        &self.preds[a as usize..z as usize]
    }

    /// One past the last pipeline stage touching map `m` (its host-port
    /// fence), or 0 when the pipeline never touches it. A host op applies
    /// once every older packet has advanced at least this far.
    #[inline]
    pub fn host_fence_stage(&self, m: u32) -> usize {
        self.host_fence.get(m as usize).copied().unwrap_or(0)
    }

    /// The latest FEB write stage of map `m`, or `None` when it has no
    /// FEB. A packet past it can no longer be rolled back by that map.
    #[inline]
    pub fn feb_write_max(&self, m: u32) -> Option<usize> {
        self.feb_write_max.get(m as usize).copied().flatten()
    }

    /// The hazard schedule of a write to map `m` at stage `s`: its WAR
    /// delay and the protected read stage of its FEB (both 0 when absent).
    /// Lowering bakes it into the fused write ops; a write whose map is
    /// resolved at run time (a guard miss or an unlabelled store) asks
    /// here.
    pub fn write_schedule(&self, s: usize, m: u32) -> (u64, usize) {
        let (delay, feb_read_stage) = schedule_of(&self.writes, s, m);
        (u64::from(delay), feb_read_stage as usize)
    }
}

/// Every `(stage, map)` pair some WAR buffer or FEB names, with its
/// schedule, sorted for [`schedule_of`].
fn write_schedules(design: &PipelineDesign) -> Vec<WriteSchedule> {
    let h = &design.hazards;
    let mut at: Vec<(usize, u32)> = h.war_buffers.iter().map(|w| (w.write_stage, w.map)).collect();
    at.extend(h.febs.iter().map(|f| (f.write_stage, f.map)));
    at.sort_unstable();
    at.dedup();
    at.into_iter()
        .map(|(stage, map)| WriteSchedule {
            stage: stage as u32,
            map,
            delay: h
                .war_buffers
                .iter()
                .find(|w| w.map == map && w.write_stage == stage)
                .map_or(0, |w| w.delay as u32),
            feb_read_stage: h
                .febs
                .iter()
                .filter(|f| f.map == map && f.write_stage == stage)
                .map(|f| f.read_stage)
                .min()
                .unwrap_or(0) as u32,
        })
        .collect()
}

/// `(delay, feb_read_stage)` of a write to `m` at stage `s`.
fn schedule_of(writes: &[WriteSchedule], s: usize, m: u32) -> (u32, u32) {
    writes
        .binary_search_by_key(&(s, m), |w| (w.stage as usize, w.map))
        .map_or((0, 0), |i| (writes[i].delay, writes[i].feb_read_stage))
}

/// Baked geometry of one map.
struct MapGeom {
    key_size: u32,
    value_size: u32,
    stride: u32,
}

fn map_geom(design: &PipelineDesign, s: usize, pc: usize, map: u32) -> Result<MapGeom, LowerError> {
    design
        .maps
        .iter()
        .find(|d| d.id == map)
        .map(|d| MapGeom {
            key_size: d.key_size,
            value_size: d.value_size,
            stride: d.value_stride(),
        })
        .ok_or(LowerError::UnknownMap { stage: s, pc, map })
}

#[allow(clippy::too_many_lines)]
fn lower_op(
    design: &PipelineDesign,
    writes: &[WriteSchedule],
    s: usize,
    op: &StageOp,
) -> Result<FusedOp, LowerError> {
    Ok(match op.insn {
        HwInsn::Alu3 { op: aop, width, dst, a, b } => match b {
            Operand::Reg(r) => FusedOp::Alu3RR { op: aop, width, dst, a, b: r },
            Operand::Imm(i) => FusedOp::Alu3RI { op: aop, width, dst, a, imm: sext(i) },
        },
        HwInsn::Simple(insn) => match insn {
            Instruction::Alu { op: aop, width, dst, src } => match (aop, src) {
                (AluOp::Mov, Operand::Imm(i)) => {
                    // Pre-compute the width-adjusted result.
                    let v = match width {
                        Width::W64 => sext(i),
                        Width::W32 => u64::from(i as u32),
                    };
                    FusedOp::MovImm { dst, imm: v }
                }
                (_, Operand::Reg(r)) => FusedOp::AluRR { op: aop, width, dst, src: r },
                (_, Operand::Imm(i)) => FusedOp::AluRI { op: aop, width, dst, imm: sext(i) },
            },
            Instruction::Endian { dst, bits, to_be } => FusedOp::Endian { dst, bits, to_be },
            Instruction::LoadImm64 { dst, imm, map } => {
                let v = match map {
                    Some(id) => MAP_HANDLE_BASE + u64::from(id),
                    None => imm,
                };
                FusedOp::MovImm { dst, imm: v }
            }
            Instruction::Load { size, dst, src, off } => match op.label {
                MemLabel::Ctx(_) => FusedOp::LdCtx { size, dst, src, off },
                MemLabel::Stack(_) => FusedOp::LdStk { size, dst, src, off },
                MemLabel::Packet(_) => {
                    FusedOp::LdPkt { size, dst, src, off, proven: op.proof.is_some() }
                }
                MemLabel::Map(m) => {
                    let g = map_geom(design, s, op.pc, m)?;
                    FusedOp::LdMap {
                        size,
                        dst,
                        src,
                        off,
                        map: m,
                        stride: g.stride,
                        value_size: g.value_size,
                    }
                }
                MemLabel::None => FusedOp::LdAny { size, dst, src, off },
            },
            Instruction::Store { size, dst, off, src } => {
                let v = reg_or_imm(src);
                match op.label {
                    MemLabel::Stack(_) => FusedOp::StStk { size, base: dst, off, src: v },
                    MemLabel::Packet(_) => {
                        FusedOp::StPkt { size, base: dst, off, src: v, proven: op.proof.is_some() }
                    }
                    MemLabel::Map(m) => {
                        let g = map_geom(design, s, op.pc, m)?;
                        let (delay, feb_read_stage) = schedule_of(writes, s, m);
                        FusedOp::StMap {
                            size,
                            base: dst,
                            off,
                            src: v,
                            map: m,
                            stride: g.stride,
                            value_size: g.value_size,
                            delay,
                            feb_read_stage,
                        }
                    }
                    MemLabel::Ctx(_) | MemLabel::None => {
                        FusedOp::StAny { size, base: dst, off, src: v }
                    }
                }
            }
            Instruction::Atomic { op: aop, size, dst, off, src } => match op.label {
                MemLabel::Map(m) => {
                    let g = map_geom(design, s, op.pc, m)?;
                    FusedOp::AtomicMap {
                        op: aop,
                        size,
                        dst,
                        src,
                        off,
                        map: m,
                        stride: g.stride,
                        value_size: g.value_size,
                    }
                }
                _ => FusedOp::AtomicAny { op: aop, size, dst, src, off },
            },
            Instruction::Jump { cond, .. } => match cond {
                None => FusedOp::JmpAlways,
                Some(c) => match c.rhs {
                    Operand::Reg(r) => {
                        FusedOp::JmpRR { op: c.op, width: c.width, lhs: c.lhs, rhs: r }
                    }
                    Operand::Imm(i) => {
                        FusedOp::JmpRI { op: c.op, width: c.width, lhs: c.lhs, imm: sext(i) }
                    }
                },
            },
            Instruction::Call { helper } => match helper {
                BPF_MAP_LOOKUP_ELEM | BPF_MAP_UPDATE_ELEM | BPF_MAP_DELETE_ELEM => {
                    let unresolved = LowerError::UnresolvedMap { stage: s, pc: op.pc };
                    let m = op.map_use.ok_or(unresolved)?.map();
                    let g = map_geom(design, s, op.pc, m)?;
                    let (delay, feb_read_stage) = schedule_of(writes, s, m);
                    match helper {
                        BPF_MAP_LOOKUP_ELEM => {
                            FusedOp::Lookup { map: m, key_size: g.key_size, stride: g.stride }
                        }
                        BPF_MAP_UPDATE_ELEM => FusedOp::MapUpdate {
                            map: m,
                            key_size: g.key_size,
                            value_size: g.value_size,
                            delay,
                            feb_read_stage,
                        },
                        _ => FusedOp::MapDelete {
                            map: m,
                            key_size: g.key_size,
                            delay,
                            feb_read_stage,
                        },
                    }
                }
                BPF_KTIME_GET_NS => FusedOp::Ktime,
                BPF_GET_PRANDOM_U32 => FusedOp::Prandom,
                BPF_GET_SMP_PROCESSOR_ID => FusedOp::SmpId,
                BPF_REDIRECT => FusedOp::Redirect,
                BPF_XDP_ADJUST_HEAD => FusedOp::AdjustHead,
                BPF_XDP_ADJUST_TAIL => FusedOp::AdjustTail,
                BPF_CSUM_DIFF => FusedOp::CsumDiff,
                _ => return Err(LowerError::UnsupportedHelper { stage: s, pc: op.pc, helper }),
            },
            Instruction::Exit => FusedOp::Exit,
        },
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn branchy_design() -> PipelineDesign {
        let mut a = Asm::new();
        let els = a.new_label();
        let join = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 0);
        a.jmp_imm(JmpOp::Jeq, 2, 0, els);
        a.mov64_imm(3, 1);
        a.jmp(join);
        a.bind(els);
        a.mov64_imm(3, 2);
        a.bind(join);
        a.mov64_reg(0, 3);
        a.exit();
        Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap()
    }

    #[test]
    fn plan_mirrors_design() {
        let design = branchy_design();
        let plan = LoweredPlan::try_lower(&design).unwrap();
        assert_eq!(plan.stage_count(), design.stages.len());
        for (b, info) in design.blocks.iter().enumerate() {
            let got: Vec<(usize, EdgeCond)> =
                plan.preds_of(b).iter().map(|&(p, c)| (p as usize, c)).collect();
            assert_eq!(got, info.preds);
        }
    }

    #[test]
    fn a_back_edge_is_a_typed_error() {
        let mut design = branchy_design();
        let last = design.blocks.len() - 1;
        assert!(last >= 1, "branchy design has several blocks");
        design.blocks[1].preds.push((last, EdgeCond::Always));
        let err = LoweredPlan::try_lower(&design).expect_err("a back-edge does not lower");
        assert_eq!(err, LowerError::PredecessorOrder { block: 1, pred: last });
        assert!(err.to_string().contains("topological order"), "display: {err}");
    }

    #[test]
    fn checkpoint_schedule_marks_feb_read_stages() {
        use crate::hazard::Feb;
        let mut design = branchy_design();
        assert!(design.stages.len() >= 3, "branchy design has enough stages");
        design.hazards.febs.push(Feb {
            map: 0,
            read_stage: 1,
            read_stages: vec![1, 2],
            write_stage: design.stages.len() - 1,
            window: design.stages.len() - 2,
            flush_depth: design.stages.len() + 3,
            war_hold: 0,
        });
        let plan = LoweredPlan::try_lower(&design).unwrap();
        let marked: Vec<bool> = (0..3).map(|s| plan.stage(s).checkpoint).collect();
        assert_eq!(marked, [false, true, true]);
        assert_eq!(checkpoint_stages(&design)[..3], marked);
        assert_eq!(plan.write_schedule(design.stages.len() - 1, 0), (0, 1));
        assert_eq!(plan.write_schedule(0, 0), (0, 0));
    }

    #[test]
    fn control_inventory_names_map_ports_and_csrs() {
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(1);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.bind(miss);
        a.mov64_imm(0, 2);
        a.exit();
        let prog =
            Program::new("ctl", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 8)]);
        let design = Compiler::new().compile(&prog).unwrap();
        let plan = LoweredPlan::try_lower(&design).unwrap();
        let inv = control_inventory(&design);
        assert_eq!(inv.map_ports.len(), 1);
        let port = &inv.map_ports[0];
        assert_eq!(port.name, "m");
        assert_eq!(port.key_bits, 32);
        assert_eq!(port.value_bits, 64);
        assert!(port.pipeline_writes, "atomic add counts as a pipeline write");
        assert!(port.fence_stage > 0, "map is accessed by the pipeline");
        assert!(port.fence_stage <= design.stages.len());
        assert_eq!(plan.host_fence_stage(0), port.fence_stage);
        // Effect mask: exactly the stages carrying the atomic modify map 0.
        let effect_stages: Vec<usize> =
            (0..plan.stage_count()).filter(|&s| plan.stage(s).effect_maps & 1 != 0).collect();
        assert!(!effect_stages.is_empty());
        assert!(effect_stages.iter().all(|&s| s < port.fence_stage));
        // CSR file carries the fixed telemetry block plus per-stage and
        // per-map registers.
        assert!(inv.csrs.iter().any(|c| c.name == "csr_flushes" && c.read_only));
        assert!(inv.csrs.iter().any(|c| c.name == "csr_reload_ctrl" && !c.read_only));
        assert!(inv.csrs.iter().any(|c| c.name == "csr_stage0_occupancy"));
        assert!(inv.csrs.iter().any(|c| c.name == "csr_map0_hits"));
        assert_eq!(inv.csrs.len(), 13 + design.stages.len() + 2 * design.maps.len());
    }

    #[test]
    fn lowering_is_one_to_one_with_the_design_ops() {
        let design = branchy_design();
        let lowered = LoweredPlan::try_lower(&design).expect("branchy design lowers");
        assert_eq!(lowered.stage_count(), design.stages.len());
        for (s, stage) in design.stages.iter().enumerate() {
            assert_eq!(
                lowered.stage_fused(s).len(),
                stage.ops.len(),
                "stage {s}: fused ops must be 1:1 with stage ops"
            );
            assert_eq!(lowered.stage(s).block as usize, stage.block);
        }
    }

    #[test]
    fn lowering_bakes_strictest_guard_per_block() {
        let mut design = branchy_design();
        design.guards = vec![(0, 14), (0, 34), (1, 20)];
        let lowered = LoweredPlan::try_lower(&design).unwrap();
        for s in 0..lowered.stage_count() {
            let expected = match lowered.stage(s).block {
                0 => 34,
                1 => 20,
                _ => i64::MIN,
            };
            assert_eq!(lowered.stage(s).guard_min_len, expected);
        }
    }

    #[test]
    fn mov32_imm_result_is_precomputed_zero_extended() {
        // Splice the movs into a compiled design: the optimizer would
        // otherwise constant-fold them away before lowering sees them.
        let mut design = branchy_design();
        design.stages[0].ops[0].insn = HwInsn::Simple(Instruction::Alu {
            op: AluOp::Mov,
            width: Width::W32,
            dst: 2,
            src: Operand::Imm(-1),
        });
        design.stages[1].ops[0].insn = HwInsn::Simple(Instruction::Alu {
            op: AluOp::Mov,
            width: Width::W64,
            dst: 3,
            src: Operand::Imm(-1),
        });
        let lowered = LoweredPlan::try_lower(&design).unwrap();
        assert_eq!(
            lowered.stage_fused(0)[0],
            FusedOp::MovImm { dst: 2, imm: 0xffff_ffff },
            "mov32 -1 must bake the zero-extended 32-bit result"
        );
        assert_eq!(
            lowered.stage_fused(1)[0],
            FusedOp::MovImm { dst: 3, imm: u64::MAX },
            "mov64 -1 must bake the sign-extended result"
        );
    }

    #[test]
    fn unsupported_helper_is_a_typed_error() {
        use ehdl_ebpf::helpers::BPF_FIB_LOOKUP;
        // The verifier rejects unknown helpers at load time, so a plan
        // carrying one can only come from a future compiler feature —
        // model that by splicing the call into a compiled design.
        let mut design = branchy_design();
        let op = &mut design.stages[0].ops[0];
        op.insn = HwInsn::Simple(Instruction::Call { helper: BPF_FIB_LOOKUP });
        let err = LoweredPlan::try_lower(&design).expect_err("fib_lookup has no specialization");
        match err {
            LowerError::UnsupportedHelper { stage, helper, .. } => {
                assert_eq!((stage, helper), (0, BPF_FIB_LOOKUP));
            }
            other => panic!("expected UnsupportedHelper, got {other:?}"),
        }
        // The error renders something a human can act on.
        assert!(err.to_string().contains("helper"), "display: {err}");
    }

    #[test]
    fn map_geometry_and_hazard_schedule_are_baked() {
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::AluOp;
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(1);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.bind(miss);
        a.mov64_imm(0, 2);
        a.exit();
        let prog =
            Program::new("g", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 8)]);
        let design = Compiler::new().compile(&prog).unwrap();
        let lowered = LoweredPlan::try_lower(&design).unwrap();
        let all: Vec<FusedOp> =
            (0..lowered.stage_count()).flat_map(|s| lowered.stage_fused(s).to_vec()).collect();
        let lookup = all.iter().find(|f| matches!(f, FusedOp::Lookup { .. }));
        assert!(lookup.is_some(), "lookup call must specialize");
        if let Some(FusedOp::Lookup { map, key_size, stride }) = lookup {
            assert_eq!((*map, *key_size, *stride), (0, 4, 8));
        }
        assert!(
            all.iter().any(|f| matches!(f, FusedOp::AtomicMap { map: 0, value_size: 8, .. })),
            "map-labeled atomic must specialize with baked geometry"
        );
    }

    /// A register consumer spliced into its producer's stage.
    #[test]
    fn a_same_stage_dependence_is_a_typed_error() {
        let mut design = branchy_design();
        // Stage 0 loads `r7 = data`; stage 1 reads `r7`.
        assert!(design.stages[1]
            .ops
            .iter()
            .any(|op| matches!(op.insn, HwInsn::Simple(Instruction::Load { src: 7, .. }))));
        let consumer = design.stages[1].ops.remove(0);
        design.stages[0].ops.push(consumer);
        let err = LoweredPlan::try_lower(&design).expect_err("a RAW pair cannot share a stage");
        assert_eq!(err, LowerError::SameStageDependence { stage: 0, op: 1 });
        assert!(err.to_string().contains("stage 0 op 1"), "display: {err}");
        // The reader first and the writer second is a WAR pair: it lowers.
        design.stages[0].ops.swap(0, 1);
        assert!(LoweredPlan::try_lower(&design).is_ok());
    }

    #[test]
    fn a_map_helper_without_a_map_is_a_typed_error() {
        use ehdl_ebpf::maps::{MapDef, MapKind};
        let mut a = Asm::new();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_DELETE_ELEM);
        a.mov64_imm(0, 2);
        a.exit();
        let prog =
            Program::new("del", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 8)]);
        let mut design = Compiler::new().compile(&prog).unwrap();
        let (s, op) = design
            .stages
            .iter_mut()
            .enumerate()
            .find_map(|(s, st)| st.ops.iter_mut().find(|op| op.map_use.is_some()).map(|op| (s, op)))
            .unwrap();
        op.map_use = None;
        let pc = op.pc;
        let err = LoweredPlan::try_lower(&design).expect_err("no map, no geometry");
        assert_eq!(err, LowerError::UnresolvedMap { stage: s, pc });
    }

    #[test]
    fn packet_helpers_and_unlabelled_accesses_specialize() {
        let mut design = branchy_design();
        let calls = [BPF_XDP_ADJUST_HEAD, BPF_XDP_ADJUST_TAIL, BPF_CSUM_DIFF];
        for (s, helper) in calls.into_iter().enumerate() {
            design.stages[s].ops[0].insn = HwInsn::Simple(Instruction::Call { helper });
            design.stages[s].ops[0].label = MemLabel::None;
        }
        let lowered = LoweredPlan::try_lower(&design).unwrap();
        let first: Vec<FusedOp> = (0..3).map(|s| lowered.stage_fused(s)[0]).collect();
        assert_eq!(first, [FusedOp::AdjustHead, FusedOp::AdjustTail, FusedOp::CsumDiff]);
        // The first load loses its `Ctx` label: it runs the region-dispatching arm.
        let mut design = branchy_design();
        design.stages[0].ops[0].label = MemLabel::None;
        let lowered = LoweredPlan::try_lower(&design).unwrap();
        assert!(matches!(lowered.stage_fused(0)[0], FusedOp::LdAny { dst: 7, src: 1, .. }));
    }
}
