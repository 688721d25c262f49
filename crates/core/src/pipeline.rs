//! Pipeline assembly: turn block schedules into the final linear hardware
//! design (§3.4–§3.5).
//!
//! Blocks are linearized in topological (reverse-post) order — always
//! possible because unrolling removed every backward edge — and each
//! schedule row becomes a [`Stage`]. Control flow is enforced by
//! *predication*: every packet traverses all stages; a stage performs its
//! operations only when its block's enable signal is set, otherwise it
//! just forwards the state (§3.5). Helper blocks with multi-cycle latency
//! get pass-through stages inserted after their call stage.

use crate::cfg::Terminator;
use crate::framing::FramingInfo;
use crate::fusion::LoweredProgram;
use crate::hazard::HazardPlan;
use crate::ir::LabeledInsn;
use crate::prune::PruneInfo;
use crate::schedule::{BlockSchedule, IlpStats};
use ehdl_ebpf::helpers::helper_info;
use ehdl_ebpf::insn::Instruction;
use ehdl_ebpf::maps::MapDef;
use std::fmt::Write as _;

/// Why a stage exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A scheduled row of program instructions.
    Normal,
    /// Inserted by packet framing to wait for a late frame (§4.2).
    FrameWait,
    /// Pass-through stage covering a helper block's internal latency.
    HelperLatency,
}

/// The kind's name, as `{:?}` prints it.
impl ehdl_ebpf::put::Piece for StageKind {
    fn put(self, o: &mut String) {
        o.push_str(match self {
            StageKind::Normal => "Normal",
            StageKind::FrameWait => "FrameWait",
            StageKind::HelperLatency => "HelperLatency",
        });
    }
}

/// One pipeline stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The control block this stage belongs to (indexes [`PipelineDesign::blocks`]).
    pub block: usize,
    /// Parallel operations performed when the block is enabled.
    pub ops: Vec<StageOp>,
    /// Stage category.
    pub kind: StageKind,
}

/// One operation instance within a stage (a template hardware primitive,
/// §3.4).
pub type StageOp = LabeledInsn;

/// How an incoming edge contributes to a block's enable signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCond {
    /// Predecessor always flows here (fall-through / goto).
    Always,
    /// Enabled when the predecessor's branch was taken.
    IfTaken,
    /// Enabled when the predecessor's branch was not taken.
    IfNotTaken,
}

/// Per-block control information of the assembled design.
#[derive(Debug, Clone)]
pub struct BlockInfo {
    /// Incoming edges: `(pred_block, condition)`.
    pub preds: Vec<(usize, EdgeCond)>,
    /// True if the block ends the program (`exit`).
    pub is_exit: bool,
}

/// Whole-design statistics (Figure 9c / Table 5 inputs).
#[derive(Debug, Clone, Copy)]
pub struct DesignStats {
    /// Logical instructions of the input bytecode.
    pub source_insns: usize,
    /// Hardware instructions after fusion/DCE/elision.
    pub hw_insns: usize,
    /// ILP statistics from the scheduler.
    pub ilp: IlpStats,
    /// Packet accesses the abstract interpreter saw in the source.
    pub packet_accesses: usize,
    /// Of those, how many it proved in-bounds (compiled unguarded).
    pub proven_accesses: usize,
    /// Conditional branches cut because their outcome is static.
    pub decided_branches: usize,
}

/// Hardening level compiled into a design. Long-running FPGA NIC
/// deployments see BRAM/register upsets; protection primitives trade a
/// small LUT/FF/BRAM overhead (charged by [`crate::resource`]) for
/// detection and recovery of soft errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protection {
    /// No protection — the paper's baseline designs.
    #[default]
    None,
    /// Parity on in-flight state (stage registers, stack slices,
    /// predication bits, delay buffers). Detection only: a parity miss is
    /// uncorrectable locally and the packet recovers by checkpoint replay.
    Parity,
    /// Parity on in-flight state plus SECDED ECC on map BRAM words
    /// (correct-on-read and a background scrub sweep) and a pipeline
    /// watchdog that drains and reinitializes a hung pipeline while
    /// preserving map contents.
    EccWatchdog,
}

impl Protection {
    /// Whether in-flight state carries parity bits.
    pub fn parity(self) -> bool {
        !matches!(self, Protection::None)
    }

    /// Whether map storage carries SECDED ECC (correct + scrub).
    pub fn ecc(self) -> bool {
        matches!(self, Protection::EccWatchdog)
    }

    /// Whether the design instantiates the no-retire watchdog.
    pub fn watchdog(self) -> bool {
        matches!(self, Protection::EccWatchdog)
    }

    /// Short name used in summaries, VHDL headers and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Parity => "parity",
            Protection::EccWatchdog => "ecc+watchdog",
        }
    }
}

/// The assembled hardware design.
#[derive(Debug, Clone)]
pub struct PipelineDesign {
    /// Program name.
    pub name: String,
    /// Pipeline stages in flow order.
    pub stages: Vec<Stage>,
    /// Control blocks (predication structure).
    pub blocks: Vec<BlockInfo>,
    /// Map definitions instantiated as `eHDLmap` blocks.
    pub maps: Vec<MapDef>,
    /// Data-consistency machinery (§4.1).
    pub hazards: HazardPlan,
    /// Packet framing configuration (§4.2).
    pub framing: FramingInfo,
    /// State pruning results (§4.3).
    pub prune: PruneInfo,
    /// Implicit length guards from elided bounds checks (§4.4): a packet
    /// shorter than `min_len` reaching an enabled `block` is dropped.
    pub guards: Vec<(usize, i64)>,
    /// Hardening level compiled into the design.
    pub protect: Protection,
    /// Bits needed per 8-byte stack slot (`fp-512` first), proven by the
    /// abstract interpreter; `0` marks a constant slot rematerializable
    /// from a one-bit valid flag, `64` an unknown one. Empty when the
    /// analysis is disabled. Resource accounting only — the simulator
    /// carries full slots.
    pub stack_narrow: Vec<u8>,
    /// Verified sharding plan: per-map placement/merge verdicts proven by
    /// [`shardcheck`](crate::shardcheck). Unanalyzed when the value
    /// analysis is disabled.
    pub shard: crate::shardcheck::ShardPlan,
    /// Statistics.
    pub stats: DesignStats,
}

impl PipelineDesign {
    /// Number of pipeline stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage indices that contain an `exit`.
    pub fn exit_stages(&self) -> Vec<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.ops.iter().any(|o| matches!(o.insn, crate::ir::HwInsn::Simple(Instruction::Exit)))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// A Figure-8 style textual rendering of the pipeline.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pipeline `{}`: {} stages, {} blocks, {} maps, ILP max {} avg {:.2}",
            self.name,
            self.stages.len(),
            self.blocks.len(),
            self.maps.len(),
            self.stats.ilp.max,
            self.stats.ilp.avg,
        );
        for (i, s) in self.stages.iter().enumerate() {
            let live = self.prune.live_regs.get(i).map(|m| m.count_ones() as usize).unwrap_or(0);
            let stack = self.prune.live_stack_bytes.get(i).copied().unwrap_or(0);
            let kind = match s.kind {
                StageKind::Normal => "",
                StageKind::FrameWait => " [frame-wait]",
                StageKind::HelperLatency => " [helper]",
            };
            let ops: Vec<String> =
                s.ops.iter().map(|o| o.insn.primitive_name().to_string()).collect();
            let _ = writeln!(
                out,
                "  stage {i:3} blk {:3} regs {live:2} stack {stack:3}B{kind}: {}",
                s.block,
                ops.join(" | ")
            );
        }
        for (b, info) in crate::predicate::gated(&self.blocks) {
            let _ = write!(out, "  enable blk {b}: ");
            crate::predicate::write_terms(&mut out, info);
            out.push('\n');
        }
        for &(block, min_len) in &self.guards {
            let _ = writeln!(out, "  implicit bounds guard: block {block} needs >= {min_len} B");
        }
        for feb in &self.hazards.febs {
            let _ = writeln!(
                out,
                "  FEB map {}: read stage {}, write stage {} (L={}, K={})",
                feb.map, feb.read_stage, feb.write_stage, feb.window, feb.flush_depth
            );
        }
        for wb in &self.hazards.war_buffers {
            let _ = writeln!(
                out,
                "  WAR buffer map {}: write stage {} delayed {} stages",
                wb.map, wb.write_stage, wb.delay
            );
        }
        for ab in &self.hazards.atomic_stages {
            let _ = writeln!(out, "  atomic block map {} at stage {}", ab.map, ab.stage);
        }
        if self.protect != Protection::None {
            let _ = writeln!(
                out,
                "  protection: {} (parity={}, ecc={}, watchdog={})",
                self.protect.name(),
                self.protect.parity(),
                self.protect.ecc(),
                self.protect.watchdog()
            );
        }
        out
    }
}

/// Result of [`assemble`]: stages plus the effective control structure.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// Pipeline stages (before framing insertion).
    pub stages: Vec<Stage>,
    /// Per-block control info (indices = original CFG block ids).
    pub blocks: Vec<BlockInfo>,
    /// Implicit length guards from elided bounds checks: `(block,
    /// min_len)` — a packet shorter than `min_len` reaching an enabled
    /// `block` is dropped by the frame interface (§4.4).
    pub guards: Vec<(usize, i64)>,
    /// Total hardware instructions placed.
    pub hw_insns: usize,
}

/// Linearize the block schedules into pipeline stages, applying
/// bounds-check elision to the control structure and expanding multi-cycle
/// helper blocks. Each schedule row moves into its stage.
pub fn assemble(p: &LoweredProgram, mut schedules: Vec<BlockSchedule>) -> Assembled {
    let nb = p.blocks.len();

    // Effective terminator per block: an elided bounds check turns the
    // conditional into an unconditional edge to the in-bounds side, and
    // leaves behind an implicit length guard: the hardware drops shorter
    // packets at the frame interface instead of branching.
    let mut eff_term: Vec<Terminator> = p.terms.clone();
    let mut guards: Vec<(usize, i64)> = Vec::new();
    for (b, insns) in p.blocks.iter().enumerate() {
        if let Some(last) = insns.last() {
            if let Some(bc) = last.elided {
                if let Terminator::Cond { taken, fall, .. } = p.terms[b] {
                    let survivor = if bc.oob_on_taken { fall } else { taken };
                    eff_term[b] = Terminator::Jump { target: survivor };
                    if !bc.checked_len.is_top() {
                        guards.push((b, bc.checked_len.hi));
                    }
                }
            }
        }
    }

    // Reachability over the effective graph.
    let mut reachable = vec![false; nb];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if reachable[b] {
            continue;
        }
        reachable[b] = true;
        match eff_term[b] {
            Terminator::Exit => {}
            Terminator::Jump { target: next } | Terminator::FallThrough { next } => {
                stack.push(next)
            }
            Terminator::Cond { taken, fall, .. } => stack.extend([taken, fall]),
        }
    }

    // Topological order of the (acyclic) effective graph: since unrolling
    // guarantees all edges point to later blocks, ascending id order is a
    // valid topological order of the reachable subgraph.
    let order: Vec<usize> = (0..nb).filter(|&b| reachable[b]).collect();

    // Control info.
    let mut blocks: Vec<BlockInfo> =
        (0..nb).map(|_| BlockInfo { preds: vec![], is_exit: false }).collect();
    for &b in &order {
        match eff_term[b] {
            Terminator::Exit => blocks[b].is_exit = true,
            Terminator::Jump { target } => blocks[target].preds.push((b, EdgeCond::Always)),
            Terminator::FallThrough { next } => blocks[next].preds.push((b, EdgeCond::Always)),
            Terminator::Cond { taken, fall, .. } => {
                blocks[taken].preds.push((b, EdgeCond::IfTaken));
                if fall != taken {
                    blocks[fall].preds.push((b, EdgeCond::IfNotTaken));
                }
            }
        }
    }

    // Stage emission.
    let mut stages = Vec::with_capacity(order.iter().map(|&b| schedules[b].rows.len()).sum());
    let mut hw_insns = 0;
    for &b in &order {
        for row in std::mem::take(&mut schedules[b].rows) {
            hw_insns += row.len();
            // Helper latency expansion.
            let extra = row
                .iter()
                .filter_map(|op| match op.insn {
                    crate::ir::HwInsn::Simple(Instruction::Call { helper }) => {
                        helper_info(helper).map(|h| h.hw_stages.saturating_sub(1))
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            stages.push(Stage { block: b, ops: row, kind: StageKind::Normal });
            for _ in 0..extra {
                stages.push(Stage { block: b, ops: vec![], kind: StageKind::HelperLatency });
            }
        }
    }

    Assembled { stages, blocks, guards, hw_insns }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::compile::CompilerOptions;
    use crate::ddg;
    use crate::fusion::lower;
    use crate::label::label;
    use crate::schedule::schedule;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn assemble_prog(p: &Program) -> Assembled {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let (lab, _) = label(p, &decoded).unwrap();
        let lowered = lower(&decoded, &lab, cfg, &CompilerOptions::default());
        let deps = ddg::build(&lowered);
        let s = schedule(&lowered, &deps, true);
        assemble(&lowered, s)
    }

    #[test]
    fn elided_check_removes_drop_block() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(ehdl_ebpf::opcode::AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 0, 7, 12);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let asm = assemble_prog(&Program::from_insns(a.into_insns()));
        // The drop block's stages must not appear.
        let exit_stages: Vec<_> = asm
            .stages
            .iter()
            .filter(|s| {
                s.ops.iter().any(|o| matches!(o.insn, crate::ir::HwInsn::Simple(Instruction::Exit)))
            })
            .collect();
        assert_eq!(exit_stages.len(), 1, "only the surviving exit remains");
        // And no branch op either.
        assert!(!asm.stages.iter().any(|s| {
            s.ops
                .iter()
                .any(|o| matches!(o.insn, crate::ir::HwInsn::Simple(Instruction::Jump { .. })))
        }));
    }

    #[test]
    fn helper_latency_expands_stages() {
        let mut a = Asm::new();
        a.mov64_reg(6, 1);
        a.mov64_imm(2, -4);
        a.call(ehdl_ebpf::helpers::BPF_XDP_ADJUST_HEAD); // hw_stages = 2
        a.mov64_imm(0, 2);
        a.exit();
        let asm = assemble_prog(&Program::from_insns(a.into_insns()));
        assert!(asm.stages.iter().any(|s| s.kind == StageKind::HelperLatency));
    }

    #[test]
    fn diamond_blocks_get_edge_conds() {
        let mut a = Asm::new();
        let els = a.new_label();
        let join = a.new_label();
        a.load(MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, els);
        a.mov64_imm(0, 2);
        a.jmp(join);
        a.bind(els);
        a.mov64_imm(0, 1);
        a.bind(join);
        a.exit();
        let asm = assemble_prog(&Program::from_insns(a.into_insns()));
        // Block 1 (then) is enabled when branch not taken; block 2 (else)
        // when taken.
        assert_eq!(asm.blocks[1].preds, vec![(0, EdgeCond::IfNotTaken)]);
        assert_eq!(asm.blocks[2].preds, vec![(0, EdgeCond::IfTaken)]);
        assert_eq!(asm.blocks[3].preds.len(), 2);
        assert!(asm.blocks[3].is_exit);
    }
}

impl PipelineDesign {
    /// Graphviz rendering of the pipeline: one node per stage (labelled
    /// with its primitives and live state), clustered by control block,
    /// with map blocks and their read/write ports as external nodes.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(o, "digraph \"{}\" {{", self.name);
        let _ = writeln!(o, "  rankdir=TB; node [shape=record, fontsize=10];");
        let mut by_block: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (i, s) in self.stages.iter().enumerate() {
            by_block.entry(s.block).or_default().push(i);
        }
        for (b, stages) in &by_block {
            let _ = writeln!(o, "  subgraph cluster_blk{b} {{ label=\"block {b}\";");
            for &i in stages {
                let s = &self.stages[i];
                let ops: Vec<String> =
                    s.ops.iter().map(|op| op.insn.primitive_name().to_string()).collect();
                let regs = self.prune.live_regs.get(i).map_or(0, |m| m.count_ones());
                let label = if ops.is_empty() {
                    match s.kind {
                        StageKind::FrameWait => "frame wait".to_string(),
                        StageKind::HelperLatency => "helper latency".to_string(),
                        StageKind::Normal => "pass".to_string(),
                    }
                } else {
                    ops.join(" \\| ")
                };
                let _ = writeln!(o, "    st{i} [label=\"{{stage {i}|{label}|{regs} regs}}\"];");
            }
            let _ = writeln!(o, "  }}");
        }
        for i in 1..self.stages.len() {
            let _ = writeln!(o, "  st{} -> st{};", i - 1, i);
        }
        for m in &self.maps {
            let _ = writeln!(
                o,
                "  map{} [shape=cylinder, label=\"{} ({}x{}B)\"];",
                m.id, m.name, m.max_entries, m.value_size
            );
        }
        for (i, s) in self.stages.iter().enumerate() {
            for op in &s.ops {
                if let Some(mu) = op.map_use {
                    let style = match mu {
                        crate::ir::MapUse::Lookup(_) | crate::ir::MapUse::LoadValue(_) => "dashed",
                        _ => "solid",
                    };
                    let _ = writeln!(o, "  st{i} -> map{} [style={style}, color=blue];", mu.map());
                }
            }
        }
        for feb in &self.hazards.febs {
            let _ = writeln!(
                o,
                "  feb_{0}_{1} [shape=diamond, color=red, label=\"FEB m{0} L={2}\"];",
                feb.map, feb.write_stage, feb.window
            );
            let _ = writeln!(
                o,
                "  st{} -> feb_{}_{} [color=red];",
                feb.write_stage, feb.map, feb.write_stage
            );
        }
        let _ = writeln!(o, "}}");
        o
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod dot_tests {
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    #[test]
    fn dot_renders_stages_and_edges() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.mov64_imm(1, 1);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let dot = d.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("st0"));
        assert!(dot.contains("st0 -> st1"));
        assert!(dot.ends_with("}\n"));
    }
}
