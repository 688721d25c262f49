//! Raw instruction words and their decoded form.
//!
//! An eBPF instruction is 8 bytes: opcode, registers, a signed 16-bit offset
//! and a signed 32-bit immediate. A `ld_imm64` occupies two consecutive
//! slots; [`Instruction::LoadImm64`] represents the fused pair.

use crate::opcode::{AluOp, AtomicOp, Class, JmpOp, MemSize, Mode, Width, PSEUDO_MAP_FD};
use std::fmt;

/// A raw 8-byte eBPF instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Insn {
    /// Operation code byte.
    pub opcode: u8,
    /// Destination register (0–10).
    pub dst: u8,
    /// Source register (0–10) or pseudo-source.
    pub src: u8,
    /// Signed offset, used by memory accesses and branches.
    pub off: i16,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Insn {
    /// Encode into the 8-byte little-endian kernel wire format.
    pub fn to_bytes(self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0] = self.opcode;
        b[1] = (self.src << 4) | (self.dst & 0x0f);
        b[2..4].copy_from_slice(&self.off.to_le_bytes());
        b[4..8].copy_from_slice(&self.imm.to_le_bytes());
        b
    }

    /// Decode from the 8-byte little-endian kernel wire format.
    pub fn from_bytes(b: [u8; 8]) -> Insn {
        Insn {
            opcode: b[0],
            dst: b[1] & 0x0f,
            src: b[1] >> 4,
            off: i16::from_le_bytes([b[2], b[3]]),
            imm: i32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        }
    }

    /// Instruction class of this word.
    pub fn class(self) -> Class {
        Class::of(self.opcode)
    }

    /// True if this word is the first half of a two-slot `ld_imm64`.
    pub fn is_ld_imm64(self) -> bool {
        self.opcode == 0x18
    }
}

/// The second operand of an ALU or conditional-jump instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(u8),
    /// An immediate source.
    Imm(i32),
}

impl crate::put::Piece for Operand {
    #[inline]
    fn put(self, o: &mut String) {
        match self {
            Operand::Reg(r) => crate::put!(o, 'r', r),
            Operand::Imm(i) => crate::put!(o, i),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::put::fmt(*self, f)
    }
}

/// A fully decoded eBPF instruction.
///
/// `pc` values in jump targets are *absolute* slot indices into the original
/// instruction stream (a `ld_imm64` consumes two slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// ALU operation `dst = dst op src` (or `dst = op2` for `Mov`).
    Alu {
        /// Operation.
        op: AluOp,
        /// 32- or 64-bit semantics.
        width: Width,
        /// Destination register.
        dst: u8,
        /// Second operand.
        src: Operand,
    },
    /// Byte-swap `dst = bswap{16,32,64}(dst)`; `to_be` selects `be` vs `le`.
    Endian {
        /// Destination register.
        dst: u8,
        /// Swap width in bits (16/32/64).
        bits: i32,
        /// True for `be`, false for `le` conversion.
        to_be: bool,
    },
    /// Two-slot 64-bit immediate load.
    LoadImm64 {
        /// Destination register.
        dst: u8,
        /// Full immediate value.
        imm: u64,
        /// If `Some(map_id)`, the immediate is a pseudo map reference.
        map: Option<u32>,
    },
    /// Memory load `dst = *(size*)(src + off)`.
    Load {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base address register.
        src: u8,
        /// Signed displacement.
        off: i16,
    },
    /// Memory store `*(size*)(dst + off) = src`.
    Store {
        /// Access size.
        size: MemSize,
        /// Base address register.
        dst: u8,
        /// Signed displacement.
        off: i16,
        /// Stored value (register or immediate).
        src: Operand,
    },
    /// Atomic read-modify-write on `*(size*)(dst + off)`.
    Atomic {
        /// The atomic operation.
        op: AtomicOp,
        /// Access size (W or DW only).
        size: MemSize,
        /// Base address register.
        dst: u8,
        /// Signed displacement.
        off: i16,
        /// Operand register (receives old value if fetching).
        src: u8,
    },
    /// Conditional or unconditional branch.
    Jump {
        /// `None` for unconditional `goto`.
        cond: Option<JumpCond>,
        /// Absolute target slot index.
        target: usize,
    },
    /// Helper function call.
    Call {
        /// Helper identifier.
        helper: u32,
    },
    /// Program exit; the XDP action is in `r0`.
    Exit,
}

/// The comparison of a conditional jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JumpCond {
    /// Comparison operator.
    pub op: JmpOp,
    /// Comparison width.
    pub width: Width,
    /// Left-hand register.
    pub lhs: u8,
    /// Right-hand operand.
    pub rhs: Operand,
}

/// Error produced when decoding an invalid instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Opcode byte does not correspond to a valid instruction.
    BadOpcode {
        /// Slot index.
        pc: usize,
        /// The offending opcode byte.
        opcode: u8,
    },
    /// A `ld_imm64` first slot without its second slot.
    TruncatedLdImm64 {
        /// Slot index of the first half.
        pc: usize,
    },
    /// Invalid atomic immediate.
    BadAtomic {
        /// Slot index.
        pc: usize,
        /// The offending immediate.
        imm: i32,
    },
    /// Jump target outside the program.
    BadJumpTarget {
        /// Slot index of the jump.
        pc: usize,
        /// Computed absolute target.
        target: i64,
    },
    /// A register field names a register beyond `r10`.
    BadRegister {
        /// Slot index.
        pc: usize,
        /// The offending register number.
        reg: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { pc, opcode } => {
                write!(f, "invalid opcode {opcode:#04x} at instruction {pc}")
            }
            DecodeError::TruncatedLdImm64 { pc } => {
                write!(f, "truncated ld_imm64 at instruction {pc}")
            }
            DecodeError::BadAtomic { pc, imm } => {
                write!(f, "invalid atomic immediate {imm:#x} at instruction {pc}")
            }
            DecodeError::BadJumpTarget { pc, target } => {
                write!(f, "jump at instruction {pc} targets out-of-range slot {target}")
            }
            DecodeError::BadRegister { pc, reg } => {
                write!(f, "instruction {pc} names register r{reg} (beyond r10)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded instruction along with the slot range it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// First slot index in the raw stream.
    pub pc: usize,
    /// Number of raw slots consumed (1, or 2 for `ld_imm64`).
    pub slots: usize,
    /// The decoded instruction.
    pub insn: Instruction,
}

/// The index of the instruction that starts at `slot` in a decoded stream
/// (`None` for a slot inside a wide instruction or past the end). A
/// decode is sorted by `pc`, so this is a binary search.
pub fn index_of(decoded: &[Decoded], slot: usize) -> Option<usize> {
    decoded.binary_search_by_key(&slot, |d| d.pc).ok()
}

/// Decode a raw slot stream into instructions.
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed opcodes, truncated `ld_imm64`
/// pairs, invalid atomic immediates, or out-of-range branch targets.
pub fn decode(insns: &[Insn]) -> Result<Vec<Decoded>, DecodeError> {
    let mut out = Vec::with_capacity(insns.len());
    let n = insns.len();
    let mut pc = 0usize;
    while pc < n {
        let raw = insns[pc];
        // Register fields are 4 bits on the wire, but the machine has
        // only r0–r10; reject the rest here so no consumer (VM,
        // compiler) ever indexes a register file out of bounds.
        let bad = u8::max(raw.dst, raw.src);
        if bad > 10 {
            return Err(DecodeError::BadRegister { pc, reg: bad });
        }
        let mut slots = 1usize;
        let insn = match raw.class() {
            Class::Alu32 | Class::Alu64 => {
                let width = if raw.class() == Class::Alu64 { Width::W64 } else { Width::W32 };
                let op = AluOp::from_bits(raw.opcode)
                    .ok_or(DecodeError::BadOpcode { pc, opcode: raw.opcode })?;
                if op == AluOp::End {
                    Instruction::Endian {
                        dst: raw.dst,
                        bits: raw.imm,
                        // BPF_TO_BE is the 0x08 source bit.
                        to_be: raw.opcode & 0x08 != 0,
                    }
                } else {
                    let src = if raw.opcode & 0x08 != 0 {
                        Operand::Reg(raw.src)
                    } else {
                        Operand::Imm(raw.imm)
                    };
                    Instruction::Alu { op, width, dst: raw.dst, src }
                }
            }
            Class::Ld => {
                if !raw.is_ld_imm64() {
                    return Err(DecodeError::BadOpcode { pc, opcode: raw.opcode });
                }
                let hi = *insns.get(pc + 1).ok_or(DecodeError::TruncatedLdImm64 { pc })?;
                slots = 2;
                let imm = (raw.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                let map = (raw.src == PSEUDO_MAP_FD).then_some(raw.imm as u32);
                Instruction::LoadImm64 { dst: raw.dst, imm, map }
            }
            Class::Ldx => {
                if Mode::from_bits(raw.opcode) != Some(Mode::Mem) {
                    return Err(DecodeError::BadOpcode { pc, opcode: raw.opcode });
                }
                Instruction::Load {
                    size: MemSize::from_bits(raw.opcode),
                    dst: raw.dst,
                    src: raw.src,
                    off: raw.off,
                }
            }
            Class::St | Class::Stx => {
                let mode = Mode::from_bits(raw.opcode)
                    .ok_or(DecodeError::BadOpcode { pc, opcode: raw.opcode })?;
                let size = MemSize::from_bits(raw.opcode);
                match (raw.class(), mode) {
                    (Class::St, Mode::Mem) => Instruction::Store {
                        size,
                        dst: raw.dst,
                        off: raw.off,
                        src: Operand::Imm(raw.imm),
                    },
                    (Class::Stx, Mode::Mem) => Instruction::Store {
                        size,
                        dst: raw.dst,
                        off: raw.off,
                        src: Operand::Reg(raw.src),
                    },
                    (Class::Stx, Mode::Atomic) => {
                        let op = AtomicOp::from_imm(raw.imm)
                            .ok_or(DecodeError::BadAtomic { pc, imm: raw.imm })?;
                        Instruction::Atomic { op, size, dst: raw.dst, off: raw.off, src: raw.src }
                    }
                    _ => return Err(DecodeError::BadOpcode { pc, opcode: raw.opcode }),
                }
            }
            Class::Jmp | Class::Jmp32 => {
                let op = JmpOp::from_bits(raw.opcode)
                    .ok_or(DecodeError::BadOpcode { pc, opcode: raw.opcode })?;
                let width = if raw.class() == Class::Jmp { Width::W64 } else { Width::W32 };
                match op {
                    JmpOp::Call => Instruction::Call { helper: raw.imm as u32 },
                    JmpOp::Exit => Instruction::Exit,
                    JmpOp::Ja => {
                        let target = pc as i64 + 1 + raw.off as i64;
                        if target < 0 || target as usize > n {
                            return Err(DecodeError::BadJumpTarget { pc, target });
                        }
                        Instruction::Jump { cond: None, target: target as usize }
                    }
                    _ => {
                        let target = pc as i64 + 1 + raw.off as i64;
                        if target < 0 || target as usize > n {
                            return Err(DecodeError::BadJumpTarget { pc, target });
                        }
                        let rhs = if raw.opcode & 0x08 != 0 {
                            Operand::Reg(raw.src)
                        } else {
                            Operand::Imm(raw.imm)
                        };
                        Instruction::Jump {
                            cond: Some(JumpCond { op, width, lhs: raw.dst, rhs }),
                            target: target as usize,
                        }
                    }
                }
            }
        };
        out.push(Decoded { pc, slots, insn });
        pc += slots;
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn bytes_roundtrip() {
        let i = Insn { opcode: 0x61, dst: 2, src: 1, off: 4, imm: -7 };
        assert_eq!(Insn::from_bytes(i.to_bytes()), i);
    }

    #[test]
    fn decode_listing2_fragment() {
        // r2 = *(u32 *)(r1 + 4); r1 = *(u32 *)(r1 + 0); r3 = 0
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, 4);
        a.load(MemSize::W, 1, 1, 0);
        a.mov64_imm(3, 0);
        a.exit();
        let d = decode(&a.into_insns()).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].insn, Instruction::Load { size: MemSize::W, dst: 2, src: 1, off: 4 });
        assert_eq!(d[3].insn, Instruction::Exit);
    }

    #[test]
    fn decode_ld_imm64() {
        let mut a = Asm::new();
        a.ld_imm64(1, 0xdead_beef_cafe_f00d);
        a.exit();
        let insns = a.into_insns();
        assert_eq!(insns.len(), 3);
        let d = decode(&insns).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[0].insn,
            Instruction::LoadImm64 { dst: 1, imm: 0xdead_beef_cafe_f00d, map: None }
        );
        assert_eq!(d[0].slots, 2);
    }

    #[test]
    fn truncated_ld_imm64_rejected() {
        let insns = vec![Insn { opcode: 0x18, dst: 1, src: 0, off: 0, imm: 5 }];
        assert_eq!(decode(&insns), Err(DecodeError::TruncatedLdImm64 { pc: 0 }));
    }

    #[test]
    fn bad_jump_target_rejected() {
        let insns = vec![Insn { opcode: 0x05, dst: 0, src: 0, off: 100, imm: 0 }];
        assert!(matches!(decode(&insns), Err(DecodeError::BadJumpTarget { pc: 0, .. })));
    }

    #[test]
    fn map_fd_pseudo_decoded() {
        let mut a = Asm::new();
        a.ld_map_fd(1, 3);
        a.exit();
        let d = decode(&a.into_insns()).unwrap();
        assert_eq!(d[0].insn, Instruction::LoadImm64 { dst: 1, imm: 3, map: Some(3) });
    }
}

/// Encode a decoded instruction back into raw slots (the inverse of
/// [`decode`]; `ld_imm64` re-expands to two slots). `next_pc` is the slot
/// index just past this instruction, used to turn absolute jump targets
/// back into relative displacements.
///
/// # Errors
///
/// Returns [`EncodeError`] if a jump displacement overflows 16 bits.
pub fn encode(insn: &Instruction, next_pc: usize) -> Result<Vec<Insn>, EncodeError> {
    use crate::opcode::{Class, Mode, PSEUDO_MAP_FD};
    let one = |i: Insn| Ok(vec![i]);
    match *insn {
        Instruction::Alu { op, width, dst, src } => {
            let class = match width {
                Width::W64 => Class::Alu64,
                Width::W32 => Class::Alu32,
            };
            match src {
                Operand::Reg(r) => one(Insn {
                    opcode: op.bits() | 0x08 | class.bits(),
                    dst,
                    src: r,
                    off: 0,
                    imm: 0,
                }),
                Operand::Imm(imm) => {
                    one(Insn { opcode: op.bits() | class.bits(), dst, src: 0, off: 0, imm })
                }
            }
        }
        Instruction::Endian { dst, bits, to_be } => one(Insn {
            opcode: AluOp::End.bits() | if to_be { 0x08 } else { 0 } | Class::Alu32.bits(),
            dst,
            src: 0,
            off: 0,
            imm: bits,
        }),
        Instruction::LoadImm64 { dst, imm, map } => Ok(vec![
            Insn {
                opcode: 0x18,
                dst,
                src: if map.is_some() { PSEUDO_MAP_FD } else { 0 },
                off: 0,
                imm: imm as u32 as i32,
            },
            Insn {
                imm: if map.is_some() { 0 } else { (imm >> 32) as u32 as i32 },
                ..Default::default()
            },
        ]),
        Instruction::Load { size, dst, src, off } => one(Insn {
            opcode: size.bits() | Mode::Mem.bits() | Class::Ldx.bits(),
            dst,
            src,
            off,
            imm: 0,
        }),
        Instruction::Store { size, dst, off, src } => match src {
            Operand::Reg(r) => one(Insn {
                opcode: size.bits() | Mode::Mem.bits() | Class::Stx.bits(),
                dst,
                src: r,
                off,
                imm: 0,
            }),
            Operand::Imm(imm) => one(Insn {
                opcode: size.bits() | Mode::Mem.bits() | Class::St.bits(),
                dst,
                src: 0,
                off,
                imm,
            }),
        },
        Instruction::Atomic { op, size, dst, off, src } => one(Insn {
            opcode: size.bits() | Mode::Atomic.bits() | Class::Stx.bits(),
            dst,
            src,
            off,
            imm: op.imm(),
        }),
        Instruction::Jump { cond, target } => {
            let disp = target as i64 - next_pc as i64;
            let off = i16::try_from(disp).map_err(|_| EncodeError::Displacement { disp })?;
            match cond {
                None => one(Insn {
                    opcode: JmpOp::Ja.bits() | Class::Jmp.bits(),
                    dst: 0,
                    src: 0,
                    off,
                    imm: 0,
                }),
                Some(c) => {
                    let class = match c.width {
                        Width::W64 => Class::Jmp,
                        Width::W32 => Class::Jmp32,
                    };
                    match c.rhs {
                        Operand::Reg(r) => one(Insn {
                            opcode: c.op.bits() | 0x08 | class.bits(),
                            dst: c.lhs,
                            src: r,
                            off,
                            imm: 0,
                        }),
                        Operand::Imm(imm) => one(Insn {
                            opcode: c.op.bits() | class.bits(),
                            dst: c.lhs,
                            src: 0,
                            off,
                            imm,
                        }),
                    }
                }
            }
        }
        Instruction::Call { helper } => one(Insn {
            opcode: JmpOp::Call.bits() | Class::Jmp.bits(),
            dst: 0,
            src: 0,
            off: 0,
            imm: helper as i32,
        }),
        Instruction::Exit => one(Insn {
            opcode: JmpOp::Exit.bits() | Class::Jmp.bits(),
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        }),
    }
}

/// Error produced by [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// Jump displacement does not fit in the 16-bit offset field.
    Displacement {
        /// The out-of-range displacement.
        disp: i64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Displacement { disp } => {
                write!(f, "jump displacement {disp} overflows 16 bits")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Re-encode a whole decoded stream (round-trip helper).
///
/// # Errors
///
/// Propagates [`EncodeError`] from any instruction.
pub fn encode_all(decoded: &[Decoded]) -> Result<Vec<Insn>, EncodeError> {
    let mut out = Vec::new();
    for d in decoded {
        out.extend(encode(&d.insn, d.pc + d.slots)?);
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod encode_tests {
    use super::*;
    use crate::asm::Asm;
    use crate::opcode::{AtomicOp, JmpOp, MemSize};

    #[test]
    fn encode_is_the_inverse_of_decode() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.mov64_imm(1, -5);
        a.ld_imm64(2, 0xdead_beef_0000_0001);
        a.ld_map_fd(3, 0);
        a.load(MemSize::H, 4, 1, 12);
        a.store_imm(MemSize::W, 10, -8, 7);
        a.store_reg(MemSize::B, 10, -1, 4);
        a.atomic(AtomicOp::Xchg, MemSize::Dw, 1, 0, 2);
        a.to_le(4, 32);
        a.jmp_imm(JmpOp::Jsgt, 1, 3, l);
        a.alu32_reg(crate::opcode::AluOp::Xor, 4, 4);
        a.bind(l);
        a.call(5);
        a.exit();
        let insns = a.into_insns();
        // Build a program shell so map id 0 resolves (decode does not need
        // the map table, only the pseudo flag).
        let decoded = decode(&insns).unwrap();
        let reencoded = encode_all(&decoded).unwrap();
        assert_eq!(insns, reencoded);
    }

    #[test]
    fn displacement_overflow_reported() {
        let insn = Instruction::Jump { cond: None, target: 100_000 };
        assert!(matches!(encode(&insn, 0), Err(EncodeError::Displacement { disp: 100_000 })));
    }
}
