//! Instruction labeling (§3.1).
//!
//! Every memory instruction is labeled with the memory area it touches —
//! stack, packet, ctx, or a specific map — which later passes use for
//! hardware primitive selection, dependence analysis, hazard handling,
//! framing and pruning. The labels are a projection of the register file
//! the abstract interpreter ([`ehdl_ebpf::absint`]) holds in front of each
//! instruction it reaches: the address register's provenance and offset
//! interval give the area, `r1`'s map handle at a helper call gives the
//! map, and a compare of a packet pointer against `data_end` is a *bounds
//! check*, which the compiler may elide (§4.4: "instructions 8-9 are not
//! present, since ... this check is readily implemented in hardware when
//! accessing the packet frame").
//!
//! Instructions the interpreter never reaches, such as the dead side of a
//! branch it decided, keep [`MemLabel::None`]; the compiler cuts those
//! branches before scheduling.

use crate::error::CompileError;
use crate::ir::{Interval, MapUse, MemLabel};
use ehdl_ebpf::absint::{self, AbsVal, Analysis, Prov};
use ehdl_ebpf::helpers::{self, helper_info};
use ehdl_ebpf::insn::{Decoded, Instruction, JumpCond, Operand};
use ehdl_ebpf::opcode::JmpOp;
use ehdl_ebpf::Program;

/// Per-instruction labeling results, parallel to the decoded stream.
#[derive(Debug, Clone)]
pub struct Labeling {
    /// Memory-area label per instruction.
    pub labels: Vec<MemLabel>,
    /// Map interaction per instruction.
    pub map_uses: Vec<Option<MapUse>>,
    /// For branches recognized as packet bounds checks: whether the
    /// *taken* edge is the out-of-bounds edge.
    pub bounds_checks: Vec<Option<BoundsCheck>>,
}

pub use crate::ir::BoundsCheck;

/// Run the abstract interpretation once and label every instruction it
/// reaches; the [`Analysis`] comes back for the compiler's other uses.
///
/// # Errors
///
/// Returns [`CompileError::DynamicStackAccess`] for stack accesses not
/// provably inside the 512-byte frame, [`CompileError::UnclassifiedAccess`]
/// when an address register's provenance is not a memory area,
/// [`CompileError::UnsupportedHelper`] for helpers without hardware blocks
/// and [`CompileError::AnalysisBudget`] when the interpretation outgrows
/// its work budget.
pub fn label(program: &Program, decoded: &[Decoded]) -> Result<(Labeling, Analysis), CompileError> {
    let n = decoded.len();
    let mut labeling = Labeling {
        labels: vec![MemLabel::None; n],
        map_uses: vec![None; n],
        bounds_checks: vec![None; n],
    };
    let mut first_err = None;
    let analysis = absint::analyze_with(decoded, |i, regs| {
        if first_err.is_some() {
            return;
        }
        match classify(program, &decoded[i], regs) {
            Ok((label, map_use)) => {
                labeling.labels[i] = label;
                labeling.map_uses[i] = map_use;
            }
            Err(e) => first_err = Some(e),
        }
        labeling.bounds_checks[i] = bounds_check(regs, decoded[i].insn);
    })
    .map_err(|absint::BudgetExceeded| CompileError::AnalysisBudget)?;
    first_err.map_or(Ok((labeling, analysis)), Err)
}

/// The region offsets of bytes `[off, off + size)` past pointer `v`.
fn span(v: AbsVal, off: i64, size: i64) -> Interval {
    Interval { lo: v.iv.lo.saturating_add(off), hi: v.iv.hi.saturating_add(off + size - 1) }
}

/// The stack bytes `[off, off + size)` past `v`, when they provably lie
/// inside the frame `[-512, -1]`.
fn stack_span(v: AbsVal, off: i64, size: i64) -> Option<Interval> {
    let iv = span(v, off, size);
    (v.prov == Prov::StackPtr && iv.lo >= -512 && iv.hi <= -1).then_some(iv)
}

fn bounds_check(regs: &[AbsVal; 11], insn: Instruction) -> Option<BoundsCheck> {
    let Instruction::Jump { cond: Some(JumpCond { op, lhs, rhs: Operand::Reg(r), .. }), .. } = insn
    else {
        return None;
    };
    let (lhs, rhs) = (regs[lhs as usize], regs[r as usize]);
    let (checked, oob_on_taken) = match (lhs.prov, rhs.prov, op) {
        // data + n > data_end : taken edge is OOB.
        (Prov::PacketPtr, Prov::PacketEnd, JmpOp::Jgt | JmpOp::Jge) => (lhs, true),
        // data + n <= data_end : fall edge is OOB.
        (Prov::PacketPtr, Prov::PacketEnd, JmpOp::Jle | JmpOp::Jlt) => (lhs, false),
        // data_end < data + n and friends.
        (Prov::PacketEnd, Prov::PacketPtr, JmpOp::Jlt | JmpOp::Jle) => (rhs, true),
        (Prov::PacketEnd, Prov::PacketPtr, JmpOp::Jgt | JmpOp::Jge) => (rhs, false),
        _ => return None,
    };
    let checked_len = Interval { lo: checked.iv.lo, hi: checked.iv.hi };
    Some(BoundsCheck { oob_on_taken, checked_len })
}

/// The label and map use of one instruction, given the registers in front
/// of it.
fn classify(
    program: &Program,
    d: &Decoded,
    regs: &[AbsVal; 11],
) -> Result<(MemLabel, Option<MapUse>), CompileError> {
    let pc = d.pc;
    let (base, off, size, map_use): (u8, i16, usize, fn(u32) -> MapUse) = match d.insn {
        Instruction::Load { size, src, off, .. } => (src, off, size.bytes(), MapUse::LoadValue),
        Instruction::Store { size, dst, off, .. } => (dst, off, size.bytes(), MapUse::StoreValue),
        Instruction::Atomic { size, dst, off, .. } => (dst, off, size.bytes(), MapUse::Atomic),
        Instruction::Call { helper } => return classify_call(program, pc, helper, regs),
        _ => return Ok((MemLabel::None, None)),
    };
    let (v, off, size) = (regs[base as usize], i64::from(off), size as i64);
    match v.prov {
        Prov::StackPtr => stack_span(v, off, size)
            .map(|iv| (MemLabel::Stack(iv), None))
            .ok_or(CompileError::DynamicStackAccess { pc }),
        Prov::PacketPtr => Ok((MemLabel::Packet(span(v, off, size)), None)),
        Prov::Ctx => Ok((MemLabel::Ctx(span(v, off, size)), None)),
        Prov::MapValue(m) | Prov::NullOrMapValue(m) => Ok((MemLabel::Map(m), Some(map_use(m)))),
        _ => Err(CompileError::UnclassifiedAccess { pc }),
    }
}

fn classify_call(
    program: &Program,
    pc: usize,
    helper: u32,
    regs: &[AbsVal; 11],
) -> Result<(MemLabel, Option<MapUse>), CompileError> {
    let info = helper_info(helper).ok_or(CompileError::UnsupportedHelper { helper, pc })?;
    if !info.reads_map {
        return Ok((MemLabel::None, None));
    }
    let Prov::MapHandle(m) = regs[1].prov else {
        return Err(CompileError::UnclassifiedAccess { pc });
    };
    let def =
        program.maps.iter().find(|md| md.id == m).ok_or(CompileError::UnclassifiedAccess { pc })?;
    // Record the bytes the hardware block reads through the key (and, for
    // an update, the value) pointer when one region holds them all.
    // Otherwise the label stays `None` and the dependence analysis assumes
    // the block may read any stack or packet byte.
    let bytes = |r: usize, size: u32| {
        let (v, size) = (regs[r], i64::from(size));
        match v.prov {
            Prov::StackPtr => stack_span(v, 0, size).map_or(MemLabel::None, MemLabel::Stack),
            Prov::PacketPtr if !v.iv.is_top() => MemLabel::Packet(span(v, 0, size)),
            _ => MemLabel::None,
        }
    };
    let key = bytes(2, def.key_size);
    let label = if helper == helpers::BPF_MAP_UPDATE_ELEM {
        match (key, bytes(3, def.value_size)) {
            (MemLabel::Stack(a), MemLabel::Stack(b)) => MemLabel::Stack(a.join(b)),
            (MemLabel::Packet(a), MemLabel::Packet(b)) => MemLabel::Packet(a.join(b)),
            _ => MemLabel::None,
        }
    } else {
        key
    };
    let map_use = if info.writes_map { MapUse::HelperWrite(m) } else { MapUse::Lookup(m) };
    Ok((label, Some(map_use)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, MemSize};

    fn analyze(p: &Program) -> (Vec<Decoded>, Labeling) {
        let decoded = p.decode().unwrap();
        let (lab, _) = label(p, &decoded).unwrap();
        (decoded, lab)
    }

    #[test]
    fn stack_and_packet_labels() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0); // r7 = data
        a.mov64_imm(2, 7);
        a.store_reg(MemSize::W, 10, -8, 2); // stack store
        a.load(MemSize::B, 3, 7, 12); // packet load
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (_, lab) = analyze(&p);
        assert_eq!(lab.labels[0], MemLabel::Ctx(Interval::new(0, 3)));
        assert_eq!(lab.labels[2], MemLabel::Stack(Interval::new(-8, -5)));
        assert_eq!(lab.labels[3], MemLabel::Packet(Interval::new(12, 12)));
    }

    #[test]
    fn derived_stack_pointer_tracked() {
        // r9 = r10 + (-16); store via r9 (the "r9 = r10 + 10" case of §3.1).
        let mut a = Asm::new();
        a.mov64_reg(9, 10);
        a.alu64_imm(AluOp::Add, 9, -16);
        a.store_imm(MemSize::W, 9, 4, 7);
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (_, lab) = analyze(&p);
        assert_eq!(lab.labels[2], MemLabel::Stack(Interval::new(-12, -9)));
    }

    #[test]
    fn lookup_then_deref_labeled_as_map() {
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(helpers::BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.load(MemSize::Dw, 3, 0, 0); // deref map value
        a.store_reg(MemSize::Dw, 0, 0, 3);
        a.bind(miss);
        a.mov64_imm(0, 2);
        a.exit();
        let p =
            Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 4)]);
        let (decoded, lab) = analyze(&p);
        // Find the call, the load and the store.
        let call_idx =
            decoded.iter().position(|d| matches!(d.insn, Instruction::Call { .. })).unwrap();
        assert_eq!(lab.map_uses[call_idx], Some(MapUse::Lookup(0)));
        assert_eq!(lab.labels[call_idx], MemLabel::Stack(Interval::new(-4, -1)));
        let load_idx = call_idx + 2;
        assert_eq!(lab.map_uses[load_idx], Some(MapUse::LoadValue(0)));
        assert_eq!(lab.map_uses[load_idx + 1], Some(MapUse::StoreValue(0)));
    }

    #[test]
    fn bounds_check_detected() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (decoded, lab) = analyze(&p);
        let jidx = decoded.iter().position(|d| matches!(d.insn, Instruction::Jump { .. })).unwrap();
        let bc = lab.bounds_checks[jidx].unwrap();
        assert!(bc.oob_on_taken);
        assert_eq!(bc.checked_len, Interval::point(14));
    }

    #[test]
    fn dynamic_stack_access_rejected() {
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, 8); // some unknown scalar
        a.mov64_reg(3, 10);
        a.alu64_reg(AluOp::Add, 3, 2); // r10 + unknown
        a.load(MemSize::W, 4, 3, 0);
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let decoded = p.decode().unwrap();
        assert!(matches!(label(&p, &decoded), Err(CompileError::DynamicStackAccess { .. })));
    }

    #[test]
    fn variable_packet_offset_gets_interval() {
        // Two paths set different constant offsets; the join is an interval.
        let mut a = Asm::new();
        let vlan = a.new_label();
        let join = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.mov64_imm(2, 14);
        a.load(MemSize::B, 3, 7, 12);
        a.jmp_imm(JmpOp::Jeq, 3, 0x81, vlan);
        a.jmp(join);
        a.bind(vlan);
        a.mov64_imm(2, 18);
        a.bind(join);
        a.mov64_reg(4, 7);
        a.alu64_reg(AluOp::Add, 4, 2);
        a.load(MemSize::B, 5, 4, 9);
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (decoded, lab) = analyze(&p);
        let lidx = decoded.len() - 3;
        assert_eq!(lab.labels[lidx], MemLabel::Packet(Interval::new(23, 27)));
    }
}
