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
use crate::ir::{HwInsn, LabeledInsn, MemLabel, Resource};
use ehdl_ebpf::helpers::{helper_info, BPF_GET_PRANDOM_U32, BPF_KTIME_GET_NS};
use ehdl_ebpf::insn::{Instruction, Operand};
use ehdl_ebpf::opcode::AluOp;

/// Read/write resource sets of one instruction.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// State elements read.
    pub reads: Vec<Resource>,
    /// State elements written.
    pub writes: Vec<Resource>,
}

/// Compute the architectural effects of one labeled instruction.
pub fn effects(insn: &LabeledInsn) -> Effects {
    let mut e = Effects::default();
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
            e.reads.push(reg(a));
            if let Operand::Reg(r) = b {
                e.reads.push(reg(r));
            }
            e.writes.push(reg(dst));
        }
        HwInsn::Simple(i) => match i {
            Instruction::Alu { op, dst, src, .. } => {
                if op != AluOp::Mov {
                    e.reads.push(reg(dst));
                }
                if let Operand::Reg(r) = src {
                    e.reads.push(reg(r));
                }
                e.writes.push(reg(dst));
            }
            Instruction::Endian { dst, .. } => {
                e.reads.push(reg(dst));
                e.writes.push(reg(dst));
            }
            Instruction::LoadImm64 { dst, .. } => e.writes.push(reg(dst)),
            Instruction::Load { dst, src, .. } => {
                e.reads.push(reg(src));
                if let Some(m) = mem_resource(insn.label) {
                    e.reads.push(m);
                }
                e.writes.push(reg(dst));
            }
            Instruction::Store { dst, src, .. } => {
                e.reads.push(reg(dst));
                if let Operand::Reg(r) = src {
                    e.reads.push(reg(r));
                }
                if let Some(m) = mem_resource(insn.label) {
                    e.writes.push(m);
                }
            }
            Instruction::Atomic { dst, src, op, .. } => {
                e.reads.push(reg(dst));
                e.reads.push(reg(src));
                if let Some(m) = mem_resource(insn.label) {
                    e.reads.push(m);
                    e.writes.push(m);
                }
                if op.fetches() {
                    match op {
                        ehdl_ebpf::opcode::AtomicOp::Cmpxchg => {
                            e.reads.push(reg(0));
                            e.writes.push(reg(0));
                        }
                        _ => e.writes.push(reg(src)),
                    }
                }
            }
            Instruction::Jump { cond, .. } => {
                if let Some(c) = cond {
                    e.reads.push(reg(c.lhs));
                    if let Operand::Reg(r) = c.rhs {
                        e.reads.push(reg(r));
                    }
                }
            }
            Instruction::Call { helper } => {
                let mask = helper_reads(helper);
                for r in 0..=5u8 {
                    if mask & (1 << r) != 0 {
                        e.reads.push(reg(r));
                    }
                }
                for r in 0..=5u8 {
                    e.writes.push(reg(r));
                }
                if let Some(m) = mem_resource(insn.label) {
                    // Key/value bytes the block consumes (stack label).
                    e.reads.push(m);
                }
                if let Some(mu) = insn.map_use {
                    match mu {
                        crate::ir::MapUse::Lookup(m) => e.reads.push(Resource::MapMem(m)),
                        crate::ir::MapUse::HelperWrite(m) => {
                            e.reads.push(Resource::MapMem(m));
                            e.writes.push(Resource::MapMem(m));
                        }
                        _ => {}
                    }
                }
                if let Some(info) = helper_info(helper) {
                    if info.writes_packet {
                        e.writes.push(Resource::PacketGeometry);
                        e.reads.push(Resource::PacketGeometry);
                    }
                }
                if helper == BPF_GET_PRANDOM_U32 {
                    e.reads.push(Resource::HelperState);
                    e.writes.push(Resource::HelperState);
                }
                if helper == BPF_KTIME_GET_NS {
                    e.reads.push(Resource::HelperState);
                }
            }
            Instruction::Exit => e.reads.push(reg(0)),
        },
    }

    // Packet loads/stores also depend on the geometry (a prior
    // adjust_head changes what any offset means).
    if matches!(insn.label, MemLabel::Packet(_)) {
        e.reads.push(Resource::PacketGeometry);
    }
    // Context reads of data/data_end depend on geometry too.
    if matches!(insn.label, MemLabel::Ctx(_)) {
        e.reads.push(Resource::PacketGeometry);
    }
    e
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
/// as bit masks, the (rarer) memory and helper resources as lists.
struct Access {
    reg_reads: u16,
    reg_writes: u16,
    reads: Vec<Resource>,
    writes: Vec<Resource>,
}

impl Access {
    fn of(insn: &LabeledInsn) -> Access {
        let Effects { mut reads, mut writes } = effects(insn);
        Access {
            reg_reads: take_regs(&mut reads),
            reg_writes: take_regs(&mut writes),
            reads,
            writes,
        }
    }
}

/// Remove the registers from `res`, returned as a mask.
fn take_regs(res: &mut Vec<Resource>) -> u16 {
    let mut mask = 0u16;
    res.retain(|r| match *r {
        Resource::Reg(n) => {
            mask |= 1 << n;
            false
        }
        _ => true,
    });
    mask
}

/// Build per-block dependency lists for the whole program.
pub fn build(p: &LoweredProgram) -> Vec<BlockDeps> {
    p.blocks
        .iter()
        .map(|insns| {
            let acc: Vec<Access> = insns.iter().map(Access::of).collect();
            let mut edges = Vec::new();
            let ends = (0..acc.len())
                .map(|j| {
                    edges.extend(
                        (0..j).filter_map(|i| depends(&acc[i], &acc[j]).map(|kind| (i, kind))),
                    );
                    edges.len()
                })
                .collect();
            BlockDeps { edges, ends }
        })
        .collect()
}

/// The strongest conflict of `b` on an earlier `a`: RAW or WAW is hard,
/// WAR (`b` writes what `a` reads) soft.
fn depends(a: &Access, b: &Access) -> Option<DepKind> {
    let any =
        |xs: &[Resource], ys: &[Resource]| xs.iter().any(|x| ys.iter().any(|y| x.conflicts(*y)));
    if a.reg_writes & (b.reg_reads | b.reg_writes) != 0
        || any(&a.writes, &b.reads)
        || any(&b.writes, &a.writes)
    {
        Some(DepKind::Hard)
    } else if b.reg_writes & a.reg_reads != 0 || any(&b.writes, &a.reads) {
        Some(DepKind::Soft)
    } else {
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::fusion::{lower, FusionOptions};
    use crate::label::label;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::MemSize;
    use ehdl_ebpf::Program;

    fn deps_of(p: &Program) -> (LoweredProgram, Vec<BlockDeps>) {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let lab = label(p, &decoded, &cfg).unwrap();
        let lowered = lower(
            &decoded,
            &lab,
            &cfg,
            FusionOptions { fuse: false, dce: false, elide_bounds_checks: false },
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
