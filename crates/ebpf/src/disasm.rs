//! Kernel-style eBPF disassembler.
//!
//! Produces the textual form used throughout the paper (Listing 2), e.g.
//! `r2 = *(u8 *)(r1 + 12)` or `if r1 == 34525 goto +4`.

use crate::insn::{Decoded, Instruction, Operand};
use crate::opcode::{AluOp, AtomicOp, Width};
use crate::program::Program;
use crate::put;
use crate::put::Piece;
use std::fmt::Write as _;

/// Render one decoded instruction.
pub fn format_insn(d: &Decoded) -> String {
    let mut s = String::new();
    write_insn(&mut s, d);
    s
}

/// Append one decoded instruction to `o`, as [`format_insn`] renders it.
pub fn write_insn(o: &mut String, d: &Decoded) {
    match d.insn {
        Instruction::Alu { op, width, dst, src } => {
            let w = match width {
                Width::W64 => 'r',
                Width::W32 => 'w',
            };
            match (op, src) {
                (AluOp::Mov, Operand::Reg(r)) => put!(o, w, dst, " = ", w, r),
                (AluOp::Mov, Operand::Imm(i)) => put!(o, w, dst, " = ", i),
                (AluOp::Neg, _) => put!(o, w, dst, " = -", w, dst),
                (_, Operand::Reg(r)) => put!(o, w, dst, ' ', op.symbol(), ' ', w, r),
                (_, Operand::Imm(i)) => put!(o, w, dst, ' ', op.symbol(), ' ', i),
            }
        }
        Instruction::Endian { dst, bits, to_be } => {
            let dir = if to_be { " = be" } else { " = le" };
            put!(o, 'r', dst, dir, bits, " r", dst);
        }
        Instruction::LoadImm64 { dst, imm, map } => match map {
            Some(id) => put!(o, 'r', dst, " = map[", id, "] ll"),
            None => put!(o, 'r', dst, " = ", imm, " ll"),
        },
        Instruction::Load { size, dst, src, off } => {
            put!(o, 'r', dst, " = *(", size.c_type(), " *)(r", src, ' ', Signed(off.into()), ')');
        }
        Instruction::Store { size, dst, off, src } => {
            put!(o, "*(", size.c_type(), " *)(r", dst, ' ', Signed(off.into()), ") = ", src);
        }
        Instruction::Atomic { op, size, dst, off, src } => {
            let opname = match op {
                AtomicOp::Add { .. } => "+=",
                AtomicOp::Or { .. } => "|=",
                AtomicOp::And { .. } => "&=",
                AtomicOp::Xor { .. } => "^=",
                AtomicOp::Xchg => "xchg",
                AtomicOp::Cmpxchg => "cmpxchg",
            };
            let (ty, off) = (size.c_type(), Signed(off.into()));
            match op {
                AtomicOp::Xchg | AtomicOp::Cmpxchg => {
                    put!(o, "lock ", opname, " *(", ty, " *)(r", dst, ' ', off, "), r", src);
                }
                _ => put!(o, "lock *(", ty, " *)(r", dst, ' ', off, ") ", opname, " r", src),
            }
        }
        Instruction::Jump { cond, target } => {
            let rel = Signed(target as i64 - d.pc as i64 - 1);
            match cond {
                None => put!(o, "goto ", rel),
                Some(c) => {
                    let l = if c.width == Width::W64 { "if r" } else { "if w" };
                    put!(o, l, c.lhs, ' ', c.op.symbol(), ' ', c.rhs, " goto ", rel);
                }
            }
        }
        Instruction::Call { helper } => put!(o, "call ", helper),
        Instruction::Exit => o.push_str("exit"),
    }
}

/// A signed offset with its sign always shown, as `{:+}` prints it.
struct Signed(i64);

impl Piece for Signed {
    fn put(self, o: &mut String) {
        if self.0 >= 0 {
            o.push('+');
        }
        self.0.put(o);
    }
}

/// Render a whole program, one numbered line per instruction, in the style
/// of the paper's Listing 2.
///
/// ```
/// use ehdl_ebpf::asm::Asm;
/// use ehdl_ebpf::disasm::disassemble;
/// use ehdl_ebpf::Program;
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 2);
/// a.exit();
/// let text = disassemble(&Program::from_insns(a.into_insns()));
/// assert_eq!(text.lines().count(), 2);
/// assert!(text.contains("r0 = 2"));
/// ```
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    match program.decode() {
        Ok(decoded) => {
            for d in &decoded {
                let _ = writeln!(out, "{:4}: {}", d.pc, format_insn(d));
            }
        }
        Err(e) => {
            let _ = writeln!(out, "<decode error: {e}>");
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::opcode::{JmpOp, MemSize};

    #[test]
    fn listing2_style_output() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.load(MemSize::W, 2, 1, 4);
        a.load(MemSize::B, 2, 1, 12);
        a.alu64_imm(AluOp::Lsh, 1, 8);
        a.alu64_reg(AluOp::Or, 1, 2);
        a.jmp_imm(JmpOp::Jeq, 1, 34525, l);
        a.ld_map_fd(1, 0);
        a.call(1);
        a.bind(l);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let text = disassemble(&p);
        assert!(text.contains("r2 = *(u32 *)(r1 +4)"));
        assert!(text.contains("r1 <<= 8"));
        assert!(text.contains("r1 |= r2"));
        assert!(text.contains("if r1 == 34525 goto +3"));
        assert!(text.contains("r1 = map[0] ll"));
        assert!(text.contains("call 1"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn atomic_add_renders_lock() {
        let mut a = Asm::new();
        a.atomic_add64(1, 0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        assert!(disassemble(&p).contains("lock *(u64 *)(r1 +0) += r2"));
    }

    #[test]
    fn store_imm_renders() {
        let mut a = Asm::new();
        a.store_imm(MemSize::W, 10, -4, 3);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        assert!(disassemble(&p).contains("*(u32 *)(r10 -4) = 3"));
    }
}
