//! A static checker enforcing the eBPF constraints eHDL relies on (§2.2):
//! time-bounded (no unbounded loops), memory-bounded (512-byte stack, no
//! dynamic allocation), well-formed register and map usage.
//!
//! This is deliberately a *subset* of the kernel verifier — it checks the
//! structural properties the hardware compiler depends on, not full
//! value-range tracking (the reference VM and the generated hardware both
//! enforce packet bounds dynamically).

use crate::helpers::helper_info;
use crate::insn::{index_of, Decoded, Instruction, Operand};
use crate::program::Program;
use std::fmt;

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Empty program.
    Empty,
    /// Bytecode failed to decode.
    Decode(crate::insn::DecodeError),
    /// Register number out of range, or write to read-only `r10`.
    BadRegister {
        /// Instruction slot.
        pc: usize,
        /// Offending register.
        reg: u8,
    },
    /// Jump lands outside the program or inside a `ld_imm64` pair.
    BadJumpTarget {
        /// Instruction slot of the jump.
        pc: usize,
        /// Target slot.
        target: usize,
    },
    /// Stack access outside `[-512, 0)` relative to `r10`.
    StackOutOfBounds {
        /// Instruction slot.
        pc: usize,
        /// Offending frame offset.
        off: i32,
    },
    /// Reference to an undeclared map.
    UnknownMap {
        /// Instruction slot.
        pc: usize,
        /// Referenced map id.
        map: u32,
    },
    /// Call to a helper this implementation does not know.
    UnknownHelper {
        /// Instruction slot.
        pc: usize,
        /// Helper id.
        helper: u32,
    },
    /// A path can run off the end of the program.
    FallsThrough {
        /// Last slot on the offending path.
        pc: usize,
    },
    /// Unreachable instructions (dead code is rejected like the kernel does).
    Unreachable {
        /// First unreachable slot.
        pc: usize,
    },
    /// A backward edge was found that is not part of a bounded loop the
    /// compiler can unroll.
    UnboundedLoop {
        /// Slot of the back-edge jump.
        pc: usize,
    },
    /// A register is read before any path initializes it (the kernel
    /// verifier's `R{n} !read_ok` error). Helper calls clobber `r1`–`r5`.
    UninitializedRead {
        /// Slot of the offending read.
        pc: usize,
        /// The register.
        reg: u8,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::Decode(e) => write!(f, "decode error: {e}"),
            VerifyError::BadRegister { pc, reg } => write!(f, "invalid register r{reg} at {pc}"),
            VerifyError::BadJumpTarget { pc, target } => {
                write!(f, "jump at {pc} targets invalid slot {target}")
            }
            VerifyError::StackOutOfBounds { pc, off } => {
                write!(f, "stack access at fp{off:+} out of bounds (pc {pc})")
            }
            VerifyError::UnknownMap { pc, map } => write!(f, "unknown map {map} at {pc}"),
            VerifyError::UnknownHelper { pc, helper } => {
                write!(f, "unknown helper {helper} at {pc}")
            }
            VerifyError::FallsThrough { pc } => {
                write!(f, "control can fall off the end after {pc}")
            }
            VerifyError::Unreachable { pc } => write!(f, "unreachable instruction at {pc}"),
            VerifyError::UnboundedLoop { pc } => {
                write!(f, "backward jump at {pc} is not a bounded loop")
            }
            VerifyError::UninitializedRead { pc, reg } => {
                write!(f, "r{reg} is read at {pc} before initialization on some path")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<crate::insn::DecodeError> for VerifyError {
    fn from(e: crate::insn::DecodeError) -> VerifyError {
        VerifyError::Decode(e)
    }
}

/// Verification summary for an accepted program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedProgram {
    /// Decoded instructions.
    pub decoded: Vec<Decoded>,
    /// Slots of back-edge jumps (bounded loops the compiler must unroll).
    pub back_edges: Vec<usize>,
    /// Deepest stack byte touched (positive count of bytes below `r10`).
    pub stack_depth: u32,
    /// Ids of maps the program references.
    pub used_maps: Vec<u32>,
    /// Helper ids the program calls.
    pub used_helpers: Vec<u32>,
}

/// Verify `program`.
///
/// Backward jumps are *reported*, not rejected: the caller (the eHDL
/// compiler) decides whether it can unroll them; the plain [`verify`] entry
/// point used before interpretation rejects them only when
/// `allow_bounded_loops` is false.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_with(
    program: &Program,
    allow_bounded_loops: bool,
) -> Result<VerifiedProgram, VerifyError> {
    let decoded = program.decode()?;
    if decoded.is_empty() {
        return Err(VerifyError::Empty);
    }
    let n_slots = program.insns.len();

    let mut back_edges = Vec::new();
    let mut stack_depth = 0u32;
    let mut used_maps = Vec::new();
    let mut used_helpers = Vec::new();

    for d in &decoded {
        let pc = d.pc;
        match d.insn {
            Instruction::Alu { dst, src, .. } => {
                check_writable(pc, dst)?;
                if let Operand::Reg(r) = src {
                    check_readable(pc, r)?;
                }
            }
            Instruction::Endian { dst, .. } => check_writable(pc, dst)?,
            Instruction::LoadImm64 { dst, map, .. } => {
                check_writable(pc, dst)?;
                if let Some(id) = map {
                    if program.maps.iter().all(|m| m.id != id) {
                        return Err(VerifyError::UnknownMap { pc, map: id });
                    }
                    if !used_maps.contains(&id) {
                        used_maps.push(id);
                    }
                }
            }
            Instruction::Load { dst, src, off, .. } => {
                check_writable(pc, dst)?;
                check_readable(pc, src)?;
                if src == 10 {
                    stack_depth = stack_depth.max(stack_off_depth(pc, off, d)?);
                }
            }
            Instruction::Store { dst, off, src, .. } => {
                check_readable(pc, dst)?;
                if let Operand::Reg(r) = src {
                    check_readable(pc, r)?;
                }
                if dst == 10 {
                    stack_depth = stack_depth.max(stack_off_depth(pc, off, d)?);
                }
            }
            Instruction::Atomic { dst, src, off, .. } => {
                check_readable(pc, dst)?;
                check_readable(pc, src)?;
                if dst == 10 {
                    stack_depth = stack_depth.max(stack_off_depth(pc, off, d)?);
                }
            }
            Instruction::Jump { cond, target } => {
                if index_of(&decoded, target).is_none() || target >= n_slots {
                    return Err(VerifyError::BadJumpTarget { pc, target });
                }
                if let Some(c) = cond {
                    check_readable(pc, c.lhs)?;
                    if let Operand::Reg(r) = c.rhs {
                        check_readable(pc, r)?;
                    }
                }
                if target <= pc {
                    if !allow_bounded_loops {
                        return Err(VerifyError::UnboundedLoop { pc });
                    }
                    back_edges.push(pc);
                }
            }
            Instruction::Call { helper } => {
                if helper_info(helper).is_none() {
                    return Err(VerifyError::UnknownHelper { pc, helper });
                }
                if !used_helpers.contains(&helper) {
                    used_helpers.push(helper);
                }
            }
            Instruction::Exit => {}
        }
    }

    // Reachability + fall-through analysis over decoded indices.
    let mut reachable = vec![false; decoded.len()];
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        if reachable[i] {
            continue;
        }
        reachable[i] = true;
        let d = &decoded[i];
        match d.insn {
            Instruction::Exit => {}
            Instruction::Jump { cond, target } => {
                let ti = index_of(&decoded, target)
                    .ok_or(VerifyError::BadJumpTarget { pc: d.pc, target })?;
                work.push(ti);
                if cond.is_some() {
                    if i + 1 >= decoded.len() {
                        return Err(VerifyError::FallsThrough { pc: d.pc });
                    }
                    work.push(i + 1);
                }
            }
            _ => {
                if i + 1 >= decoded.len() {
                    return Err(VerifyError::FallsThrough { pc: d.pc });
                }
                work.push(i + 1);
            }
        }
    }
    if let Some(i) = reachable.iter().position(|r| !r) {
        return Err(VerifyError::Unreachable { pc: decoded[i].pc });
    }

    used_maps.sort_unstable();
    used_helpers.sort_unstable();
    Ok(VerifiedProgram { decoded, back_edges, stack_depth, used_maps, used_helpers })
}

/// Verify with bounded loops allowed (the eHDL front-end entry point).
///
/// # Errors
///
/// See [`verify_with`].
pub fn verify(program: &Program) -> Result<VerifiedProgram, VerifyError> {
    verify_with(program, true)
}

/// Kernel-style definite-initialization analysis: every register read must
/// be preceded, on *all* paths, by a write. `r1` (the context) and `r10`
/// (the frame pointer) start initialized; helper calls set `r0` and leave
/// `r1`–`r5` clobbered (scratch). Loops are handled by fixpoint iteration.
///
/// This is stricter than [`verify`] (which only checks structure); it is a
/// separate entry point because synthetic test programs legitimately read
/// clobbered scratch registers that a C compiler would never emit.
///
/// # Errors
///
/// [`VerifyError::UninitializedRead`] on the first offending read, plus
/// anything [`verify`] reports.
pub fn check_initialized(program: &Program) -> Result<(), VerifyError> {
    let v = verify(program)?;
    let decoded = &v.decoded;

    // Per decoded-instruction entry masks, fixpoint with intersection at
    // joins. Bit r set = register r definitely initialized.
    const ENTRY: u16 = (1 << 1) | (1 << 10);
    let n = decoded.len();
    let mut in_mask: Vec<Option<u16>> = vec![None; n];
    in_mask[0] = Some(ENTRY);
    let mut work = vec![0usize];
    let mut budget = n * 64 + 64;
    while let Some(i) = work.pop() {
        budget = budget.saturating_sub(1);
        if budget == 0 {
            break; // fixpoint bound; masks only shrink, so this is safe
        }
        let Some(mask) = in_mask[i] else { continue };
        let d = &decoded[i];
        let pc = d.pc;
        let mut m = mask;

        let require = |m: u16, reg: u8| -> Result<(), VerifyError> {
            if reg <= 10 && m & (1 << reg) == 0 {
                Err(VerifyError::UninitializedRead { pc, reg })
            } else {
                Ok(())
            }
        };

        let mut succs: Vec<usize> = Vec::new();
        match d.insn {
            Instruction::Alu { op, dst, src, .. } => {
                if op != crate::opcode::AluOp::Mov {
                    require(m, dst)?;
                }
                if let Operand::Reg(r) = src {
                    require(m, r)?;
                }
                m |= 1 << dst;
                succs.push(i + 1);
            }
            Instruction::Endian { dst, .. } => {
                require(m, dst)?;
                succs.push(i + 1);
            }
            Instruction::LoadImm64 { dst, .. } => {
                m |= 1 << dst;
                succs.push(i + 1);
            }
            Instruction::Load { dst, src, .. } => {
                require(m, src)?;
                m |= 1 << dst;
                succs.push(i + 1);
            }
            Instruction::Store { dst, src, .. } => {
                require(m, dst)?;
                if let Operand::Reg(r) = src {
                    require(m, r)?;
                }
                succs.push(i + 1);
            }
            Instruction::Atomic { dst, src, op, .. } => {
                require(m, dst)?;
                require(m, src)?;
                if matches!(op, crate::opcode::AtomicOp::Cmpxchg) {
                    require(m, 0)?;
                    m |= 1;
                }
                succs.push(i + 1);
            }
            Instruction::Jump { cond, target } => {
                if let Some(c) = cond {
                    require(m, c.lhs)?;
                    if let Operand::Reg(r) = c.rhs {
                        require(m, r)?;
                    }
                    succs.push(i + 1);
                }
                succs.push(index_of(decoded, target).expect("verified jump target"));
            }
            Instruction::Call { .. } => {
                // Arguments are the helper's business (it may take 0-5);
                // conservatively require only r1 for map helpers is too
                // specific — the structural verifier already checked the
                // helper id. After the call r0 is set, r1-r5 are scratch.
                m |= 1; // r0
                m &= !0b11_1110; // clear r1-r5
                succs.push(i + 1);
            }
            Instruction::Exit => {
                require(m, 0)?;
            }
        }

        for s in succs {
            if s >= n {
                continue;
            }
            let joined = match in_mask[s] {
                None => m,
                Some(old) => old & m,
            };
            if in_mask[s] != Some(joined) {
                in_mask[s] = Some(joined);
                work.push(s);
            }
        }
    }
    Ok(())
}

fn check_writable(pc: usize, reg: u8) -> Result<(), VerifyError> {
    if reg >= 10 {
        return Err(VerifyError::BadRegister { pc, reg });
    }
    Ok(())
}

fn check_readable(pc: usize, reg: u8) -> Result<(), VerifyError> {
    if reg > 10 {
        return Err(VerifyError::BadRegister { pc, reg });
    }
    Ok(())
}

fn stack_off_depth(pc: usize, off: i16, d: &Decoded) -> Result<u32, VerifyError> {
    let size = match d.insn {
        Instruction::Load { size, .. }
        | Instruction::Store { size, .. }
        | Instruction::Atomic { size, .. } => size.bytes() as i32,
        _ => 0,
    };
    let off = i32::from(off);
    if !(-512..0).contains(&off) || off + size > 0 {
        return Err(VerifyError::StackOutOfBounds { pc, off });
    }
    Ok((-off) as u32)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::{MapDef, MapKind};
    use crate::opcode::{AluOp, JmpOp, MemSize};

    fn prog(a: Asm) -> Program {
        Program::from_insns(a.into_insns())
    }

    #[test]
    fn accepts_simple_program() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let v = verify(&prog(a)).unwrap();
        assert!(v.back_edges.is_empty());
        assert_eq!(v.stack_depth, 0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(verify(&Program::from_insns(vec![])), Err(VerifyError::Empty));
    }

    #[test]
    fn rejects_write_to_r10() {
        let mut a = Asm::new();
        a.mov64_imm(10, 0);
        a.exit();
        assert_eq!(verify(&prog(a)), Err(VerifyError::BadRegister { pc: 0, reg: 10 }));
    }

    #[test]
    fn rejects_fall_through() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        assert_eq!(verify(&prog(a)), Err(VerifyError::FallsThrough { pc: 0 }));
    }

    #[test]
    fn rejects_unreachable_code() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        a.mov64_imm(0, 1); // dead
        a.exit();
        assert_eq!(verify(&prog(a)), Err(VerifyError::Unreachable { pc: 2 }));
    }

    #[test]
    fn rejects_stack_oob() {
        let mut a = Asm::new();
        a.store_imm(MemSize::Dw, 10, -510, 0); // crosses below -512? -510+8 > 0? no: -510..-502, ok but -516 bad
        a.mov64_imm(0, 2);
        a.exit();
        assert!(verify(&prog(a)).is_ok());

        let mut a = Asm::new();
        a.store_imm(MemSize::Dw, 10, -4, 0); // [-4, +4) crosses fp
        a.mov64_imm(0, 2);
        a.exit();
        assert_eq!(verify(&prog(a)), Err(VerifyError::StackOutOfBounds { pc: 0, off: -4 }));
    }

    #[test]
    fn reports_stack_depth() {
        let mut a = Asm::new();
        a.store_imm(MemSize::W, 10, -48, 7);
        a.load(MemSize::W, 0, 10, -8);
        a.exit();
        let v = verify(&prog(a)).unwrap();
        assert_eq!(v.stack_depth, 48);
    }

    #[test]
    fn rejects_unknown_map_and_helper() {
        let mut a = Asm::new();
        a.ld_map_fd(1, 3);
        a.mov64_imm(0, 2);
        a.exit();
        assert_eq!(verify(&prog(a)), Err(VerifyError::UnknownMap { pc: 0, map: 3 }));

        let mut a = Asm::new();
        a.call(250);
        a.exit();
        assert_eq!(verify(&prog(a)), Err(VerifyError::UnknownHelper { pc: 0, helper: 250 }));
    }

    #[test]
    fn accepts_known_map() {
        let mut a = Asm::new();
        a.ld_map_fd(1, 0);
        a.mov64_imm(0, 2);
        a.exit();
        let p =
            Program::new("m", a.into_insns(), vec![MapDef::new(0, "x", MapKind::Array, 4, 8, 1)]);
        let v = verify(&p).unwrap();
        assert_eq!(v.used_maps, vec![0]);
    }

    #[test]
    fn init_check_accepts_straightline() {
        let mut a = Asm::new();
        a.mov64_imm(2, 5);
        a.alu64_imm(AluOp::Add, 2, 1);
        a.mov64_reg(0, 2);
        a.exit();
        check_initialized(&prog(a)).unwrap();
    }

    #[test]
    fn init_check_rejects_uninitialized_read() {
        let mut a = Asm::new();
        a.mov64_reg(0, 3); // r3 never written
        a.exit();
        assert_eq!(
            check_initialized(&prog(a)),
            Err(VerifyError::UninitializedRead { pc: 0, reg: 3 })
        );
    }

    #[test]
    fn init_check_requires_all_paths() {
        // r3 set only on one branch arm; reading it after the join fails.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.load(MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, skip);
        a.mov64_imm(3, 1);
        a.bind(skip);
        a.mov64_reg(0, 3);
        a.exit();
        assert!(matches!(
            check_initialized(&prog(a)),
            Err(VerifyError::UninitializedRead { reg: 3, .. })
        ));
    }

    #[test]
    fn init_check_models_call_clobbers() {
        // Reading r2 after a helper call is a kernel verifier error.
        let mut a = Asm::new();
        a.mov64_imm(2, 1);
        a.call(ehdl_ebpf_helpers_ktime());
        a.mov64_reg(0, 2);
        a.exit();
        assert!(matches!(
            check_initialized(&prog(a)),
            Err(VerifyError::UninitializedRead { reg: 2, .. })
        ));
        // Callee-saved registers survive.
        let mut a = Asm::new();
        a.mov64_imm(6, 1);
        a.call(ehdl_ebpf_helpers_ktime());
        a.mov64_reg(0, 6);
        a.exit();
        check_initialized(&prog(a)).unwrap();
    }

    fn ehdl_ebpf_helpers_ktime() -> u32 {
        crate::helpers::BPF_KTIME_GET_NS
    }

    #[test]
    fn back_edges_reported_or_rejected() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 4);
        a.bind(top);
        a.alu64_imm(AluOp::Sub, 1, 1);
        a.jmp_imm(JmpOp::Jne, 1, 0, top);
        a.mov64_imm(0, 2);
        a.exit();
        let p = prog(a);
        let v = verify(&p).unwrap();
        assert_eq!(v.back_edges, vec![2]);
        assert_eq!(verify_with(&p, false), Err(VerifyError::UnboundedLoop { pc: 2 }));
    }
}
