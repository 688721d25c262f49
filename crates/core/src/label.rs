//! Program analysis and instruction labeling (§3.1).
//!
//! An abstract interpretation over the CFG tracks what each register holds:
//! the stack pointer (`r10` and derived values), packet pointers (loaded
//! from `xdp_md`), map value pointers (`r0` after `bpf_map_lookup_elem`),
//! map handles, and scalars with constant-interval tracking. Every memory
//! instruction is then labeled with the memory area it touches — stack,
//! packet, or a specific map — which later passes use for hardware
//! primitive selection, dependence analysis, hazard handling, framing and
//! pruning.
//!
//! The analysis is path-refining across null checks (`if r0 == 0`), so a
//! checked lookup result is a plain `MapValuePtr` in the non-null branch.
//! Comparisons between packet pointers and `data_end` are recognized as
//! *bounds checks*, which the compiler may elide (§4.4: "instructions 8-9
//! are not present, since ... this check is readily implemented in hardware
//! when accessing the packet frame").

use crate::cfg::{Cfg, Terminator};
use crate::error::CompileError;
use crate::ir::{Interval, Kind, MapUse, MemLabel};
use ehdl_ebpf::helpers::{self, helper_info};
use ehdl_ebpf::insn::{Decoded, Instruction, JumpCond, Operand};
use ehdl_ebpf::opcode::{AluOp, JmpOp, Width};
use ehdl_ebpf::vm::xdp_md;
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
    /// Register kinds at entry of each instruction (for diagnostics/tests).
    pub kinds_at: Vec<[Kind; 11]>,
}

pub use crate::ir::BoundsCheck;

type Kinds = [Kind; 11];

fn entry_kinds() -> Kinds {
    let mut k = [Kind::Bottom; 11];
    k[1] = Kind::Ctx;
    k[10] = Kind::StackPtr(Interval::point(0));
    k
}

fn read_kind(k: &Kinds, r: u8) -> Kind {
    match k[r as usize] {
        Kind::Bottom => Kind::Scalar(Interval::TOP),
        other => other,
    }
}

/// Run the labeling analysis.
///
/// # Errors
///
/// Returns [`CompileError::DynamicStackAccess`] for stack accesses at
/// unknown offsets, [`CompileError::UnclassifiedAccess`] when an address
/// register's kind cannot be resolved to a memory area, and
/// [`CompileError::UnsupportedHelper`] for helpers without hardware blocks.
pub fn label(program: &Program, decoded: &[Decoded], cfg: &Cfg) -> Result<Labeling, CompileError> {
    // Fixpoint over block-entry states.
    let nb = cfg.blocks.len();
    let mut in_state: Vec<Option<Kinds>> = vec![None; nb];
    in_state[0] = Some(entry_kinds());
    let mut work: Vec<usize> = vec![0];

    while let Some(b) = work.pop() {
        let Some(mut k) = in_state[b] else { continue };
        let blk = &cfg.blocks[b];
        for d in &decoded[blk.start..blk.end] {
            transfer(program, d, &mut k)?;
        }
        // Propagate along edges with refinement.
        let edges: Vec<(usize, Kinds)> = match blk.term {
            Terminator::Exit => vec![],
            Terminator::Jump { target } => vec![(target, k)],
            Terminator::FallThrough { next } => vec![(next, k)],
            Terminator::Cond { cond, taken, fall } => {
                let mut kt = k;
                let mut kf = k;
                refine(&mut kt, &mut kf, cond);
                vec![(taken, kt), (fall, kf)]
            }
        };
        for (succ, ks) in edges {
            let joined = match in_state[succ] {
                None => ks,
                Some(old) => {
                    let mut j = old;
                    for r in 0..11 {
                        j[r] = j[r].join(ks[r]);
                    }
                    j
                }
            };
            if in_state[succ] != Some(joined) {
                in_state[succ] = Some(joined);
                work.push(succ);
            }
        }
    }

    // Final pass: compute labels with the fixed states.
    let n = decoded.len();
    let mut labels = vec![MemLabel::None; n];
    let mut map_uses = vec![None; n];
    let mut bounds_checks = vec![None; n];
    let mut kinds_at = vec![entry_kinds(); n];

    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(mut k) = in_state[b] else { continue };
        for (i, d) in decoded[blk.start..blk.end].iter().enumerate() {
            let idx = blk.start + i;
            kinds_at[idx] = k;
            let (lab, mu) = classify(program, d, &k)?;
            labels[idx] = lab;
            map_uses[idx] = mu;
            if let Instruction::Jump { cond: Some(c), .. } = d.insn {
                bounds_checks[idx] = detect_bounds_check(&k, c);
            }
            transfer(program, d, &mut k)?;
        }
    }

    Ok(Labeling { labels, map_uses, bounds_checks, kinds_at })
}

/// Abstract transfer of one instruction over the register kinds.
fn transfer(_program: &Program, d: &Decoded, k: &mut Kinds) -> Result<(), CompileError> {
    let pc = d.pc;
    match d.insn {
        Instruction::Alu { op, width, dst, src } => {
            let dk = read_kind(k, dst);
            let sk = match src {
                Operand::Reg(r) => read_kind(k, r),
                Operand::Imm(i) => Kind::Scalar(Interval::point(i64::from(i))),
            };
            k[dst as usize] = alu_kind(op, width, dk, sk);
        }
        Instruction::Endian { dst, .. } => {
            k[dst as usize] = Kind::Scalar(Interval::TOP);
        }
        Instruction::LoadImm64 { dst, imm, map } => {
            k[dst as usize] = match map {
                Some(m) => Kind::MapHandle(m),
                None => Kind::Scalar(Interval::point(imm as i64)),
            };
        }
        Instruction::Load { dst, src, off, .. } => {
            let base = read_kind(k, src);
            k[dst as usize] = match base {
                Kind::Ctx => match i64::from(off) {
                    xdp_md::DATA => Kind::PacketPtr(Interval::point(0)),
                    xdp_md::DATA_END => Kind::PacketEnd(Interval::point(0)),
                    _ => Kind::Scalar(Interval::TOP),
                },
                _ => Kind::Scalar(Interval::TOP),
            };
        }
        Instruction::Store { .. } => {}
        Instruction::Atomic { op, src, .. } => {
            if op.fetches() {
                match op {
                    ehdl_ebpf::opcode::AtomicOp::Cmpxchg => k[0] = Kind::Scalar(Interval::TOP),
                    _ => k[src as usize] = Kind::Scalar(Interval::TOP),
                }
            }
        }
        Instruction::Call { helper } => {
            let info = helper_info(helper).ok_or(CompileError::UnsupportedHelper { helper, pc })?;
            let r0 = match helper {
                helpers::BPF_MAP_LOOKUP_ELEM => match read_kind(k, 1) {
                    Kind::MapHandle(m) => Kind::NullOrMapValue(m),
                    _ => return Err(CompileError::UnclassifiedAccess { pc }),
                },
                _ => Kind::Scalar(Interval::TOP),
            };
            if info.writes_packet {
                // xdp_adjust_head invalidates every packet pointer.
                for r in k.iter_mut() {
                    if matches!(r, Kind::PacketPtr(_) | Kind::PacketEnd(_)) {
                        *r = Kind::Scalar(Interval::TOP);
                    }
                }
            }
            k[0] = r0;
            for kr in &mut k[1..=5] {
                *kr = Kind::Scalar(Interval::TOP);
            }
        }
        Instruction::Jump { .. } | Instruction::Exit => {}
    }
    Ok(())
}

fn alu_kind(op: AluOp, width: Width, dk: Kind, sk: Kind) -> Kind {
    use Kind::*;
    if width == Width::W32 {
        // 32-bit ops never produce valid pointers in our model.
        return match (op, dk, sk) {
            (AluOp::Mov, _, Scalar(i)) if !i.is_top() => Scalar(i),
            _ => Scalar(Interval::TOP),
        };
    }
    match op {
        AluOp::Mov => sk,
        AluOp::Add => match (dk, sk) {
            (PacketPtr(a), Scalar(b)) | (Scalar(b), PacketPtr(a)) => PacketPtr(a.add(b)),
            (PacketEnd(a), Scalar(b)) | (Scalar(b), PacketEnd(a)) => PacketEnd(a.add(b)),
            (StackPtr(a), Scalar(b)) | (Scalar(b), StackPtr(a)) => StackPtr(a.add(b)),
            (MapValuePtr(m, a), Scalar(b)) | (Scalar(b), MapValuePtr(m, a)) => {
                MapValuePtr(m, a.add(b))
            }
            (Scalar(a), Scalar(b)) => Scalar(a.add(b)),
            _ => Scalar(Interval::TOP),
        },
        AluOp::Sub => match (dk, sk) {
            (PacketPtr(a), Scalar(b)) => PacketPtr(a.add(neg(b))),
            (PacketEnd(a), Scalar(b)) => PacketEnd(a.add(neg(b))),
            (StackPtr(a), Scalar(b)) => StackPtr(a.add(neg(b))),
            (MapValuePtr(m, a), Scalar(b)) => MapValuePtr(m, a.add(neg(b))),
            (Scalar(a), Scalar(b)) => Scalar(a.add(neg(b))),
            _ => Scalar(Interval::TOP),
        },
        _ => match (dk, sk) {
            (Scalar(a), Scalar(b)) => match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Kind::Scalar(Interval::point(ehdl_ebpf::vm::alu_eval(
                    op,
                    Width::W64,
                    x as u64,
                    y as u64,
                ) as i64)),
                _ => Scalar(Interval::TOP),
            },
            _ => Scalar(Interval::TOP),
        },
    }
}

fn neg(i: Interval) -> Interval {
    Interval { lo: i.hi.saturating_neg(), hi: i.lo.saturating_neg() }
}

/// Refine register kinds along the taken/fall edges of a branch
/// (null-check refinement for lookup results).
fn refine(taken: &mut Kinds, fall: &mut Kinds, cond: JumpCond) {
    let Operand::Imm(0) = cond.rhs else { return };
    let r = cond.lhs as usize;
    let Kind::NullOrMapValue(m) = taken[r] else { return };
    match cond.op {
        JmpOp::Jeq => {
            taken[r] = Kind::Scalar(Interval::point(0));
            fall[r] = Kind::MapValuePtr(m, Interval::point(0));
        }
        JmpOp::Jne => {
            taken[r] = Kind::MapValuePtr(m, Interval::point(0));
            fall[r] = Kind::Scalar(Interval::point(0));
        }
        _ => {}
    }
}

fn detect_bounds_check(k: &Kinds, c: JumpCond) -> Option<BoundsCheck> {
    let lhs = read_kind(k, c.lhs);
    let rhs = match c.rhs {
        Operand::Reg(r) => read_kind(k, r),
        Operand::Imm(_) => return None,
    };
    match (lhs, rhs, c.op) {
        // data + n > data_end : taken edge is OOB.
        (Kind::PacketPtr(n), Kind::PacketEnd(_), JmpOp::Jgt | JmpOp::Jge) => {
            Some(BoundsCheck { oob_on_taken: true, checked_len: n })
        }
        // data + n <= data_end : fall edge is OOB.
        (Kind::PacketPtr(n), Kind::PacketEnd(_), JmpOp::Jle | JmpOp::Jlt) => {
            Some(BoundsCheck { oob_on_taken: false, checked_len: n })
        }
        // data_end < data + n and friends.
        (Kind::PacketEnd(_), Kind::PacketPtr(n), JmpOp::Jlt | JmpOp::Jle) => {
            Some(BoundsCheck { oob_on_taken: true, checked_len: n })
        }
        (Kind::PacketEnd(_), Kind::PacketPtr(n), JmpOp::Jgt | JmpOp::Jge) => {
            Some(BoundsCheck { oob_on_taken: false, checked_len: n })
        }
        _ => None,
    }
}

/// Compute the label and map use of one instruction given entry kinds.
fn classify(
    program: &Program,
    d: &Decoded,
    k: &Kinds,
) -> Result<(MemLabel, Option<MapUse>), CompileError> {
    let pc = d.pc;
    let access =
        |base: Kind, off: i16, size: usize| -> Result<(MemLabel, Option<MapUse>), CompileError> {
            let off = i64::from(off);
            let span = |iv: Interval| Interval {
                lo: iv.lo.saturating_add(off),
                hi: iv.hi.saturating_add(off + size as i64 - 1),
            };
            match base {
                Kind::StackPtr(iv) => {
                    if iv.is_top() {
                        return Err(CompileError::DynamicStackAccess { pc });
                    }
                    Ok((MemLabel::Stack(span(iv)), None))
                }
                Kind::PacketPtr(iv) => Ok((MemLabel::Packet(span(iv)), None)),
                Kind::Ctx => Ok((MemLabel::Ctx(Interval::new(off, off + size as i64 - 1)), None)),
                Kind::MapValuePtr(m, _) | Kind::NullOrMapValue(m) => Ok((MemLabel::Map(m), None)),
                _ => Err(CompileError::UnclassifiedAccess { pc }),
            }
        };

    match d.insn {
        Instruction::Load { size, src, off, .. } => {
            let (lab, _) = access(read_kind(k, src), off, size.bytes())?;
            let mu = match lab {
                MemLabel::Map(m) => Some(MapUse::LoadValue(m)),
                _ => None,
            };
            Ok((lab, mu))
        }
        Instruction::Store { size, dst, off, .. } => {
            let (lab, _) = access(read_kind(k, dst), off, size.bytes())?;
            let mu = match lab {
                MemLabel::Map(m) => Some(MapUse::StoreValue(m)),
                _ => None,
            };
            Ok((lab, mu))
        }
        Instruction::Atomic { size, dst, off, .. } => {
            let (lab, _) = access(read_kind(k, dst), off, size.bytes())?;
            let mu = match lab {
                MemLabel::Map(m) => Some(MapUse::Atomic(m)),
                _ => None,
            };
            Ok((lab, mu))
        }
        Instruction::Call { helper } => {
            let info = helper_info(helper).ok_or(CompileError::UnsupportedHelper { helper, pc })?;
            if !info.reads_map {
                return Ok((MemLabel::None, None));
            }
            let m = match read_kind(k, 1) {
                Kind::MapHandle(m) => m,
                _ => return Err(CompileError::UnclassifiedAccess { pc }),
            };
            let def = program
                .maps
                .iter()
                .find(|md| md.id == m)
                .ok_or(CompileError::UnclassifiedAccess { pc })?;
            // Record the bytes the hardware block reads through the key
            // (and, for an update, the value) pointer when one region holds
            // them all. Otherwise the label stays `None` and the dependence
            // analysis assumes the block may read any stack or packet byte.
            let bytes = |r: u8, size: u32| {
                let span = |iv: Interval| Interval { lo: iv.lo, hi: iv.hi + i64::from(size) - 1 };
                match read_kind(k, r) {
                    Kind::StackPtr(iv) if !iv.is_top() => MemLabel::Stack(span(iv)),
                    Kind::PacketPtr(iv) if !iv.is_top() => MemLabel::Packet(span(iv)),
                    _ => MemLabel::None,
                }
            };
            let key = bytes(2, def.key_size);
            let lab = if helper == helpers::BPF_MAP_UPDATE_ELEM {
                match (key, bytes(3, def.value_size)) {
                    (MemLabel::Stack(a), MemLabel::Stack(b)) => MemLabel::Stack(a.join(b)),
                    (MemLabel::Packet(a), MemLabel::Packet(b)) => MemLabel::Packet(a.join(b)),
                    _ => MemLabel::None,
                }
            } else {
                key
            };
            let mu = if info.writes_map {
                Some(MapUse::HelperWrite(m))
            } else {
                Some(MapUse::Lookup(m))
            };
            Ok((lab, mu))
        }
        _ => Ok((MemLabel::None, None)),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::MemSize;

    fn analyze(p: &Program) -> (Vec<Decoded>, Cfg, Labeling) {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let lab = label(p, &decoded, &cfg).unwrap();
        (decoded, cfg, lab)
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
        let (_, _, lab) = analyze(&p);
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
        let (_, _, lab) = analyze(&p);
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
        let (decoded, _, lab) = analyze(&p);
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
        let (decoded, _, lab) = analyze(&p);
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
        let cfg = Cfg::build(&decoded);
        assert!(matches!(label(&p, &decoded, &cfg), Err(CompileError::DynamicStackAccess { .. })));
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
        let (decoded, _, lab) = analyze(&p);
        let lidx = decoded.len() - 3;
        assert_eq!(lab.labels[lidx], MemLabel::Packet(Interval::new(23, 27)));
    }
}
