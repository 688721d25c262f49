//! Data-dependency graph construction (§3.1, §3.3).
//!
//! Two instructions can execute in the same pipeline stage only if they
//! belong to the same control block and have no data dependency. The DDG
//! records, per block, every ordered pair `(i, j)` with `i < j` where `j`
//! must wait for `i` — a read-after-write, write-after-read or
//! write-after-write conflict on any state element (registers, byte-precise
//! stack/packet ranges, map memories, helper-internal state, or the packet
//! geometry moved by `bpf_xdp_adjust_head`).

use crate::fusion::{helper_reads, LoweredProgram};
use crate::ir::{HwInsn, Interval, LabeledInsn, MemLabel, Resource};
use ehdl_ebpf::helpers::{helper_info, BPF_GET_PRANDOM_U32, BPF_KTIME_GET_NS};
use ehdl_ebpf::insn::{Instruction, Operand};
use ehdl_ebpf::opcode::AluOp;

/// Report every state element `insn` reads (`f(r, false)`) or writes
/// (`f(r, true)`): the one effect model under the DDG, the same-stage
/// check and state pruning, which all visit the effects in place.
pub fn visit_effects(insn: &LabeledInsn, mut f: impl FnMut(Resource, bool)) {
    let reg = Resource::Reg;
    let mem_resource = |label: MemLabel| -> Option<Resource> {
        match label {
            MemLabel::Stack(iv) => Some(Resource::Stack(iv)),
            MemLabel::Packet(iv) => Some(Resource::Packet(iv)),
            MemLabel::Map(m) => Some(Resource::MapMem(m)),
            MemLabel::Ctx(_) | MemLabel::None => None,
        }
    };

    match insn.insn {
        HwInsn::Alu3 { dst, a, b, .. } => {
            f(reg(a), false);
            if let Operand::Reg(r) = b {
                f(reg(r), false);
            }
            f(reg(dst), true);
        }
        HwInsn::Simple(i) => match i {
            Instruction::Alu { op, dst, src, .. } => {
                if op != AluOp::Mov {
                    f(reg(dst), false);
                }
                if let Operand::Reg(r) = src {
                    f(reg(r), false);
                }
                f(reg(dst), true);
            }
            Instruction::Endian { dst, .. } => {
                f(reg(dst), false);
                f(reg(dst), true);
            }
            Instruction::LoadImm64 { dst, .. } => f(reg(dst), true),
            Instruction::Load { dst, src, .. } => {
                f(reg(src), false);
                if let Some(m) = mem_resource(insn.label) {
                    f(m, false);
                }
                f(reg(dst), true);
            }
            Instruction::Store { dst, src, .. } => {
                f(reg(dst), false);
                if let Operand::Reg(r) = src {
                    f(reg(r), false);
                }
                if let Some(m) = mem_resource(insn.label) {
                    f(m, true);
                }
            }
            Instruction::Atomic { dst, src, op, .. } => {
                f(reg(dst), false);
                f(reg(src), false);
                if let Some(m) = mem_resource(insn.label) {
                    f(m, false);
                    f(m, true);
                }
                if op.fetches() {
                    match op {
                        ehdl_ebpf::opcode::AtomicOp::Cmpxchg => {
                            f(reg(0), false);
                            f(reg(0), true);
                        }
                        _ => f(reg(src), true),
                    }
                }
            }
            Instruction::Jump { cond, .. } => {
                if let Some(c) = cond {
                    f(reg(c.lhs), false);
                    if let Operand::Reg(r) = c.rhs {
                        f(reg(r), false);
                    }
                }
            }
            Instruction::Call { helper } => {
                let mask = helper_reads(helper);
                for r in 0..=5u8 {
                    if mask & (1 << r) != 0 {
                        f(reg(r), false);
                    }
                }
                for r in 0..=5u8 {
                    f(reg(r), true);
                }
                let info = helper_info(helper);
                match mem_resource(insn.label) {
                    // The bytes the block reads through its pointer
                    // arguments (map key and value, checksum buffers).
                    Some(m) => f(m, false),
                    // Pointers the labeling could not pin to one region:
                    // the block may read any stack or packet byte.
                    None if info.is_some_and(|h| h.reads_stack) => {
                        f(Resource::Stack(Interval::TOP), false);
                        f(Resource::Packet(Interval::TOP), false);
                    }
                    None => {}
                }
                if let Some(mu) = insn.map_use {
                    match mu {
                        crate::ir::MapUse::Lookup(m) => f(Resource::MapMem(m), false),
                        crate::ir::MapUse::HelperWrite(m) => {
                            f(Resource::MapMem(m), false);
                            f(Resource::MapMem(m), true);
                        }
                        _ => {}
                    }
                }
                if info.is_some_and(|h| h.writes_packet) {
                    f(Resource::PacketGeometry, true);
                    f(Resource::PacketGeometry, false);
                }
                if helper == BPF_GET_PRANDOM_U32 {
                    f(Resource::HelperState, false);
                    f(Resource::HelperState, true);
                }
                if helper == BPF_KTIME_GET_NS {
                    f(Resource::HelperState, false);
                }
            }
            Instruction::Exit => f(reg(0), false),
        },
    }

    // Packet accesses (a helper's packet-resident key included) depend
    // on the geometry: a prior adjust_head changes what any offset means.
    // Context reads of data/data_end depend on it too.
    if matches!(insn.label, MemLabel::Packet(_) | MemLabel::Ctx(_)) {
        f(Resource::PacketGeometry, false);
    }
}

/// How strongly a dependency constrains stage placement.
///
/// A pipeline stage reads its *incoming* state copy and writes the next
/// stage's copy, so a write-after-read pair may share a stage (the reader
/// observes the old value — exactly how Figure 8 packs `r2 = pkt[12]` with
/// `r1 = pkt[13]` even though the second overwrites `r1`). Read-after-write
/// and write-after-write pairs need distinct stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// RAW/WAW: the dependent must be in a strictly later stage.
    Hard,
    /// WAR: the dependent may share the stage but not come earlier.
    Soft,
}

/// Dependency edges of one block: `bd[j]` lists the in-block indices `i`
/// that instruction `j` must follow, with their strength, in ascending
/// `i`. All of a block's edges share one buffer.
#[derive(Debug, Clone)]
pub struct BlockDeps {
    edges: Vec<(usize, DepKind)>,
    /// Instruction `j`'s edges end at `ends[j]` and start where `j - 1`'s
    /// end.
    ends: Vec<usize>,
}

impl std::ops::Index<usize> for BlockDeps {
    type Output = [(usize, DepKind)];

    fn index(&self, j: usize) -> &Self::Output {
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.edges[start..self.ends[j]]
    }
}

/// One instruction's effects as the pairwise test reads them: registers
/// as bit masks, the (rarer) memory and helper resources inline.
struct Access {
    reg_reads: u16,
    reg_writes: u16,
    reads: Resources,
    writes: Resources,
}

impl Access {
    fn of(insn: &LabeledInsn) -> Access {
        let mut acc = Access {
            reg_reads: 0,
            reg_writes: 0,
            reads: Resources::default(),
            writes: Resources::default(),
        };
        visit_effects(insn, |r, write| match (r, write) {
            (Resource::Reg(n), false) => acc.reg_reads |= 1 << n,
            (Resource::Reg(n), true) => acc.reg_writes |= 1 << n,
            (_, false) => acc.reads.push(r),
            (_, true) => acc.writes.push(r),
        });
        acc
    }
}

/// The non-register resources of one access side. No instruction reads
/// or writes more than four (a helper call: its key/value bytes or the
/// whole stack and packet, its map, the packet geometry). `kinds` has one
/// bit per kind of resource held, `reach` one per kind any of them can
/// conflict with, so most pairs are told apart without comparing items.
#[derive(Clone, Copy)]
struct Resources {
    items: [Resource; 4],
    len: u8,
    kinds: u8,
    reach: u8,
}

impl Default for Resources {
    fn default() -> Resources {
        Resources { items: [Resource::HelperState; 4], len: 0, kinds: 0, reach: 0 }
    }
}

impl Resources {
    fn push(&mut self, r: Resource) {
        const STACK: u8 = 1;
        const PACKET: u8 = 2;
        const MAP: u8 = 4;
        const HELPER: u8 = 8;
        const GEOMETRY: u8 = 16;
        let (kind, reach) = match r {
            Resource::Reg(_) => (0, 0),
            Resource::Stack(_) => (STACK, STACK),
            // Moving the packet head conflicts with any packet access.
            Resource::Packet(_) => (PACKET, PACKET | GEOMETRY),
            Resource::PacketGeometry => (GEOMETRY, PACKET | GEOMETRY),
            Resource::MapMem(_) => (MAP, MAP),
            Resource::HelperState => (HELPER, HELPER),
        };
        self.items[usize::from(self.len)] = r;
        self.len += 1;
        self.kinds |= kind;
        self.reach |= reach;
    }

    fn any_conflict(&self, other: &Resources) -> bool {
        if self.kinds & other.reach == 0 {
            return false;
        }
        let ys = &other.items[..usize::from(other.len)];
        self.items[..usize::from(self.len)].iter().any(|x| ys.iter().any(|y| x.conflicts(*y)))
    }
}

/// Build per-block dependency lists for the whole program. One buffer of
/// accesses and one of edges serve every block; each block's edges are
/// then copied out once, at their final length.
pub fn build(p: &LoweredProgram) -> Vec<BlockDeps> {
    let mut acc: Vec<Access> = Vec::with_capacity(p.blocks.iter().map(Vec::len).max().unwrap_or(0));
    let mut edges = Vec::new();
    p.blocks
        .iter()
        .map(|insns| {
            acc.clear();
            acc.extend(insns.iter().map(Access::of));
            edges.clear();
            let mut ends = Vec::with_capacity(acc.len());
            for (j, b) in acc.iter().enumerate() {
                for (i, a) in acc[..j].iter().enumerate() {
                    if let Some(kind) = depends(a, b) {
                        edges.push((i, kind));
                    }
                }
                ends.push(edges.len());
            }
            BlockDeps { edges: edges.clone(), ends }
        })
        .collect()
}

/// The strongest conflict of `b` on an earlier `a`: RAW or WAW is hard,
/// WAR (`b` writes what `a` reads) soft.
fn depends(a: &Access, b: &Access) -> Option<DepKind> {
    if a.reg_writes & (b.reg_reads | b.reg_writes) != 0
        || a.writes.any_conflict(&b.reads)
        || b.writes.any_conflict(&a.writes)
    {
        Some(DepKind::Hard)
    } else if b.reg_writes & a.reg_reads != 0 || b.writes.any_conflict(&a.reads) {
        Some(DepKind::Soft)
    } else {
        None
    }
}

/// Index of the first op of one pipeline stage, in stage order, with a
/// hard (RAW or WAW) dependence on an earlier op of the same stage.
///
/// A stage reads its incoming state copy and writes the next boundary, so
/// only WAR pairs may share it, reader first ([`DepKind`]). Executing the
/// ops in place, in stage order, gives exactly that two-phase result when
/// this returns `None`, which [`crate::schedule::schedule`] guarantees by
/// construction; the simulator's lowering checks it on every design.
pub fn same_stage_dependence(ops: &[LabeledInsn]) -> Option<usize> {
    (1..ops.len()).find(|&j| {
        let b = Access::of(&ops[j]);
        ops[..j].iter().any(|a| depends(&Access::of(a), &b) == Some(DepKind::Hard))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::compile::CompilerOptions;
    use crate::fusion::lower;
    use crate::label::label;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::MemSize;
    use ehdl_ebpf::Program;

    fn deps_of(p: &Program) -> (LoweredProgram, Vec<BlockDeps>) {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let (lab, _) = label(p, &decoded).unwrap();
        let lowered = lower(
            &decoded,
            &lab,
            cfg,
            &CompilerOptions {
                fusion: false,
                dce: false,
                elide_bounds_checks: false,
                ..Default::default()
            },
        );
        let deps = build(&lowered);
        (lowered, deps)
    }

    #[test]
    fn independent_loads_have_no_deps() {
        // The Figure 4 pair: two byte loads into different registers.
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 12);
        a.load(MemSize::B, 3, 7, 13);
        a.mov64_imm(0, 2);
        a.exit();
        let (_, deps) = deps_of(&Program::from_insns(a.into_insns()));
        let d = &deps[0];
        // loads at 1 and 2 both depend on 0 (r7), but not on each other.
        assert!(d[1].iter().any(|&(i, k)| i == 0 && k == DepKind::Hard));
        assert!(d[2].iter().any(|&(i, _)| i == 0));
        assert!(!d[2].iter().any(|&(i, k)| i == 1 && k == DepKind::Hard));
        // mov r0 is independent of the loads.
        assert!(d[3].is_empty());
    }

    #[test]
    fn raw_on_register_ordered() {
        let mut a = Asm::new();
        a.mov64_imm(1, 5);
        a.alu64_imm(AluOp::Add, 1, 1);
        a.mov64_reg(0, 1);
        a.exit();
        let (_, deps) = deps_of(&Program::from_insns(a.into_insns()));
        assert!(deps[0][1].iter().any(|&(i, k)| i == 0 && k == DepKind::Hard));
        assert!(deps[0][2].iter().any(|&(i, k)| i == 1 && k == DepKind::Hard));
    }

    #[test]
    fn disjoint_stack_slots_independent() {
        let mut a = Asm::new();
        a.store_imm(MemSize::W, 10, -8, 1);
        a.store_imm(MemSize::W, 10, -4, 2);
        a.load(MemSize::W, 3, 10, -8);
        a.mov64_imm(0, 2);
        a.exit();
        let (_, deps) = deps_of(&Program::from_insns(a.into_insns()));
        let d = &deps[0];
        assert!(d[1].is_empty(), "disjoint stores are parallel");
        assert!(
            d[2].iter().any(|&(i, k)| i == 0 && k == DepKind::Hard),
            "load depends on its store"
        );
        assert!(!d[2].iter().any(|&(i, _)| i == 1));
    }

    #[test]
    fn overlapping_packet_writes_ordered() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.store_imm(MemSize::W, 7, 0, 1);
        a.store_imm(MemSize::H, 7, 2, 2); // overlaps bytes 2..3
        a.mov64_imm(0, 2);
        a.exit();
        let (_, deps) = deps_of(&Program::from_insns(a.into_insns()));
        assert!(deps[0][2].iter().any(|&(i, k)| i == 1 && k == DepKind::Hard));
    }

    #[test]
    fn prandom_calls_are_serialized() {
        let mut a = Asm::new();
        a.call(BPF_GET_PRANDOM_U32);
        a.mov64_reg(6, 0);
        a.call(BPF_GET_PRANDOM_U32);
        a.mov64_reg(0, 6);
        a.exit();
        let (_, deps) = deps_of(&Program::from_insns(a.into_insns()));
        assert!(deps[0][2].iter().any(|&(i, k)| i == 0 && k == DepKind::Hard));
    }
}
