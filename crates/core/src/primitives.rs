//! Template hardware primitives (§3.4).
//!
//! "We perform this step mapping each instruction to a set of hardware
//! primitives that implement the individual transformations." This module
//! is the catalog: every hardware instruction resolves to a [`Primitive`]
//! with a datapath description and a resource cost, which the resource
//! model and the VHDL emitter share.

use crate::ir::HwInsn;
use ehdl_ebpf::insn::Instruction;
use ehdl_ebpf::opcode::AluOp;

/// The template hardware primitives of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Register-to-register ALU (Figure 3), narrow ops.
    Alu,
    /// Wide ALU (multiply/divide/modulo) — costs real logic.
    AluWide,
    /// Byte-swap network.
    Bswap,
    /// 64-bit constant source.
    Const64,
    /// Load lane from a state array (packet frame / stack / map value) into
    /// a register (Figure 4).
    Load,
    /// Store lane from a register into a state array.
    Store,
    /// Load lane whose packet offset the abstract interpreter proved
    /// in-bounds: no bounds comparator, no fault mux.
    LoadUnguarded,
    /// Store lane proven in-bounds, without the guard logic.
    StoreUnguarded,
    /// Atomic read-modify-write port of an `eHDLmap` block (§4.1.2).
    AtomicPort,
    /// Branch comparison unit feeding the predication network (§3.5).
    Branch,
    /// A helper-function hardware block (Figure 5).
    Helper,
    /// Exit/verdict mux.
    Exit,
    /// Parity generator/checker on a stage boundary's carried state
    /// (protection primitive; never produced by [`Primitive::of`]).
    ParityGuard,
    /// SECDED ECC encode/decode wrapper on an `eHDLmap` port.
    EccPort,
    /// Background scrub engine sweeping a protected map's BRAM.
    Scrub,
    /// Pipeline watchdog: retire timer + drain/reinit sequencer.
    Watchdog,
}

impl Primitive {
    /// Which primitive implements a stage op, taking its packet-bounds
    /// proof into account: proven accesses map to the unguarded lanes.
    pub fn of_op(op: &crate::ir::LabeledInsn) -> Primitive {
        match Primitive::of(&op.insn) {
            Primitive::Load if op.proof.is_some() => Primitive::LoadUnguarded,
            Primitive::Store if op.proof.is_some() => Primitive::StoreUnguarded,
            p => p,
        }
    }

    /// Which primitive implements a hardware instruction.
    pub fn of(insn: &HwInsn) -> Primitive {
        match insn {
            HwInsn::Alu3 { op, .. } => Primitive::of_alu(*op),
            HwInsn::Simple(i) => match i {
                Instruction::Alu { op, .. } => Primitive::of_alu(*op),
                Instruction::Endian { .. } => Primitive::Bswap,
                Instruction::LoadImm64 { .. } => Primitive::Const64,
                Instruction::Load { .. } => Primitive::Load,
                Instruction::Store { .. } => Primitive::Store,
                Instruction::Atomic { .. } => Primitive::AtomicPort,
                Instruction::Jump { .. } => Primitive::Branch,
                Instruction::Call { .. } => Primitive::Helper,
                Instruction::Exit => Primitive::Exit,
            },
        }
    }

    fn of_alu(op: AluOp) -> Primitive {
        match op {
            AluOp::Mul | AluOp::Div | AluOp::Mod => Primitive::AluWide,
            _ => Primitive::Alu,
        }
    }

    /// LUT cost of one instance (the resource model's per-primitive term).
    pub fn luts(self) -> u64 {
        use crate::resource::cost;
        match self {
            Primitive::Alu => cost::ALU_LUTS,
            Primitive::AluWide => cost::ALU_WIDE_LUTS,
            Primitive::Bswap => cost::BSWAP_LUTS,
            Primitive::Const64 => 8,
            Primitive::Load | Primitive::Store => cost::LOADSTORE_LUTS,
            Primitive::LoadUnguarded | Primitive::StoreUnguarded => cost::LOADSTORE_UNGUARDED_LUTS,
            Primitive::AtomicPort => cost::ATOMIC_LUTS,
            Primitive::Branch => cost::BRANCH_LUTS,
            Primitive::Helper => cost::HELPER_LUTS,
            Primitive::Exit => 8,
            Primitive::ParityGuard => cost::PARITY_STAGE_LUTS,
            Primitive::EccPort => cost::ECC_PORT_LUTS,
            Primitive::Scrub => cost::SCRUB_LUTS,
            Primitive::Watchdog => cost::WATCHDOG_LUTS,
        }
    }

    /// Flip-flop cost of one instance (most primitives are combinational
    /// between stage registers; helper blocks buffer state).
    pub fn ffs(self) -> u64 {
        use crate::resource::cost;
        match self {
            Primitive::Helper => cost::HELPER_FFS,
            Primitive::EccPort => cost::ECC_PORT_FFS,
            Primitive::Scrub => cost::SCRUB_FFS,
            Primitive::Watchdog => cost::WATCHDOG_FFS,
            _ => 0,
        }
    }

    /// Short name used in summaries and VHDL comments.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::Alu => "alu",
            Primitive::AluWide => "alu-wide",
            Primitive::Bswap => "bswap",
            Primitive::Const64 => "const64",
            Primitive::Load => "load",
            Primitive::Store => "store",
            Primitive::LoadUnguarded => "load-unguarded",
            Primitive::StoreUnguarded => "store-unguarded",
            Primitive::AtomicPort => "atomic",
            Primitive::Branch => "branch",
            Primitive::Helper => "helper",
            Primitive::Exit => "exit",
            Primitive::ParityGuard => "parity-guard",
            Primitive::EccPort => "ecc-port",
            Primitive::Scrub => "scrub",
            Primitive::Watchdog => "watchdog",
        }
    }
}

/// Protection primitive instances a design's hardening level implies:
/// a parity guard per stage boundary, an ECC port and a scrubber per
/// protected map, and one watchdog. Empty at [`Protection::None`].
///
/// [`Protection::None`]: crate::pipeline::Protection::None
pub fn protection_inventory(design: &crate::PipelineDesign) -> Vec<(Primitive, usize)> {
    let mut v = Vec::new();
    let p = design.protect;
    if p.parity() && !design.stages.is_empty() {
        v.push((Primitive::ParityGuard, design.stages.len()));
    }
    if p.ecc() && !design.maps.is_empty() {
        v.push((Primitive::EccPort, design.maps.len()));
        v.push((Primitive::Scrub, design.maps.len()));
    }
    if p.watchdog() {
        v.push((Primitive::Watchdog, 1));
    }
    v
}

/// Inventory of primitive instances in a design: `(primitive, count)`
/// pairs, sorted by count descending — the "only the features strictly
/// required by the input program" picture of §1.
pub fn inventory(design: &crate::PipelineDesign) -> Vec<(Primitive, usize)> {
    let mut counts: std::collections::BTreeMap<&'static str, (Primitive, usize)> =
        Default::default();
    for stage in &design.stages {
        for op in &stage.ops {
            let p = Primitive::of_op(op);
            counts.entry(p.name()).or_insert((p, 0)).1 += 1;
        }
    }
    let mut v: Vec<(Primitive, usize)> = counts.into_values().collect();
    v.sort_by_key(|e| std::cmp::Reverse(e.1));
    v
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::MemSize;
    use ehdl_ebpf::Program;

    #[test]
    fn classification_covers_instruction_kinds() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.mov64_imm(2, 3);
        a.alu64_imm(AluOp::Mul, 2, 5);
        a.to_be(2, 16);
        a.store_reg(MemSize::B, 7, 0, 2);
        a.mov64_imm(0, 2);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let inv = inventory(&d);
        let names: Vec<&str> = inv.iter().map(|(p, _)| p.name()).collect();
        assert!(names.contains(&"load"));
        assert!(names.contains(&"store"));
        assert!(names.contains(&"bswap"));
        assert!(names.contains(&"alu-wide"));
        assert!(names.contains(&"exit"));
    }

    #[test]
    fn wide_alu_costs_more() {
        assert!(Primitive::AluWide.luts() > 5 * Primitive::Alu.luts());
        assert!(Primitive::Helper.ffs() > 0);
        assert_eq!(Primitive::Alu.ffs(), 0);
    }

    #[test]
    fn protection_inventory_follows_protect_level() {
        use crate::compile::CompilerOptions;
        use crate::pipeline::Protection;
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let prog = Program::from_insns(a.into_insns());
        let base = Compiler::new().compile(&prog).unwrap();
        assert!(protection_inventory(&base).is_empty());
        let opts = CompilerOptions { protect: Protection::EccWatchdog, ..Default::default() };
        let hard = Compiler::with_options(opts).compile(&prog).unwrap();
        let inv = protection_inventory(&hard);
        assert!(inv.iter().any(|(p, n)| *p == Primitive::ParityGuard && *n == hard.stages.len()));
        assert!(inv.iter().any(|(p, n)| *p == Primitive::Watchdog && *n == 1));
        // No maps in this program, so no ECC ports.
        assert!(!inv.iter().any(|(p, _)| *p == Primitive::EccPort));
        assert!(Primitive::EccPort.luts() > 0 && Primitive::Watchdog.ffs() > 0);
    }

    #[test]
    fn inventory_counts_are_total_ops() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.mov64_imm(1, 1);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let total: usize = inventory(&d).iter().map(|(_, n)| n).sum();
        assert_eq!(total, d.stats.hw_insns);
    }
}
