//! Instruction fusion and transformation (§3.2), plus dead-code
//! elimination.
//!
//! Because eHDL deploys hardware for an instruction *only when the program
//! uses it*, extending the ISA is free: the classic `mov dst, a; alu dst, b`
//! pair becomes a single three-operand ALU stage, and constants feeding an
//! adjacent ALU are folded into immediates. A liveness-driven DCE pass then
//! deletes pure instructions whose results are never used (the reduction
//! visible in Figure 9c, where both eHDL and hXDP shrink programs by up to
//! ~50%).

use crate::cfg::{Cfg, Terminator};
use crate::compile::CompilerOptions;
use crate::ir::{HwInsn, LabeledInsn, MemLabel};
use crate::label::Labeling;
use ehdl_ebpf::insn::{Decoded, Instruction, Operand};
use ehdl_ebpf::opcode::{AluOp, Width};

/// The program after lowering: labeled hardware instructions grouped by
/// basic block (block ids match the input [`Cfg`]).
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// Per-block instruction lists (terminator included, when it is an
    /// explicit instruction).
    pub blocks: Vec<Vec<LabeledInsn>>,
    /// Block terminators, copied from the CFG.
    pub terms: Vec<Terminator>,
    /// The CFG the blocks correspond to.
    pub cfg: Cfg,
}

/// Lower a labeled program into per-block hardware instructions, applying
/// fusion (`opts.fusion`: three-operand ALU ops and constant forwarding),
/// bounds-check elision marking (`opts.elide_bounds_checks`: branches
/// recognized as packet bounds checks whose failing target is a plain drop
/// block, §4.4) and DCE (`opts.dce`). The CFG moves into the result.
pub fn lower(
    decoded: &[Decoded],
    labeling: &Labeling,
    cfg: Cfg,
    opts: &CompilerOptions,
) -> LoweredProgram {
    let mut blocks: Vec<Vec<LabeledInsn>> = Vec::with_capacity(cfg.blocks.len());
    let mut terms = Vec::with_capacity(cfg.blocks.len());

    for blk in &cfg.blocks {
        let mut insns: Vec<LabeledInsn> = Vec::with_capacity(blk.end - blk.start);
        for idx in blk.start..blk.end {
            let d = &decoded[idx];
            let elided = if opts.elide_bounds_checks
                && bounds_check_elidable(decoded, &cfg, idx, labeling)
            {
                labeling.bounds_checks[idx]
            } else {
                None
            };
            insns.push(LabeledInsn {
                pc: d.pc,
                insn: HwInsn::Simple(d.insn),
                label: labeling.labels[idx],
                map_use: labeling.map_uses[idx],
                elided,
                proof: None,
            });
        }
        terms.push(blk.term);
        blocks.push(insns);
    }

    if opts.fusion {
        for b in &mut blocks {
            fuse_block(b);
        }
    }
    let mut lowered = LoweredProgram { blocks, terms, cfg };
    if opts.dce {
        eliminate_dead_code(&mut lowered);
    }
    lowered
}

/// A bounds check may be elided when the out-of-bounds edge leads to a
/// block that only sets `r0 = XDP_DROP` and exits: the generated hardware
/// enforces the bound at each packet access and drops violating packets,
/// so the explicit branch is redundant (§4.4).
fn bounds_check_elidable(decoded: &[Decoded], cfg: &Cfg, idx: usize, labeling: &Labeling) -> bool {
    let Some(bc) = labeling.bounds_checks[idx] else { return false };
    let b = cfg.block_of[idx];
    let Terminator::Cond { taken, fall, .. } = cfg.blocks[b].term else { return false };
    let oob_block = if bc.oob_on_taken { taken } else { fall };
    let blk = &cfg.blocks[oob_block];
    if blk.term != Terminator::Exit {
        return false;
    }
    let body = &decoded[blk.start..blk.end];
    // Expect exactly `r0 = 1; exit`.
    let mut sets_drop = false;
    for d in body {
        match d.insn {
            Instruction::Alu {
                op: AluOp::Mov,
                width: Width::W64,
                dst: 0,
                src: Operand::Imm(1),
            } => sets_drop = true,
            Instruction::Exit => {}
            _ => return false,
        }
    }
    sets_drop
}

fn fuse_block(insns: &mut Vec<LabeledInsn>) {
    // Constant forwarding: a `mov reg, K` makes `reg` a known constant
    // until the register is written again; ALU sources reading it fold the
    // immediate in (the mov then usually dies in DCE).
    let mut consts: [Option<i32>; 11] = [None; 11];
    for insn in insns.iter_mut() {
        // Fold a constant source first (the read happens before the write).
        if let HwInsn::Simple(Instruction::Alu { op, width, dst, src: Operand::Reg(r) }) = insn.insn
        {
            if let Some(k) = consts[r as usize] {
                if dst != r && op != AluOp::Mov {
                    insn.insn =
                        HwInsn::Simple(Instruction::Alu { op, width, dst, src: Operand::Imm(k) });
                }
            }
        }
        // Update the constant map from this instruction's writes.
        let (_, writes, _) = reg_effects(insn);
        for (r, c) in consts.iter_mut().enumerate() {
            if writes & (1 << r) != 0 {
                *c = None;
            }
        }
        if let HwInsn::Simple(Instruction::Alu {
            op: AluOp::Mov,
            width: Width::W64,
            dst,
            src: Operand::Imm(k),
        }) = insn.insn
        {
            consts[dst as usize] = Some(k);
        }
    }

    // Three-operand fusion: mov dst, a ; alu dst, b  →  dst = a op b.
    let mut out: Vec<LabeledInsn> = Vec::with_capacity(insns.len());
    let mut it = insns.iter().peekable();
    while let Some(&cur) = it.next() {
        if let HwInsn::Simple(Instruction::Alu {
            op: AluOp::Mov,
            width: Width::W64,
            dst,
            src: Operand::Reg(a),
        }) = cur.insn
        {
            if let Some(next) = it.peek().copied().copied() {
                if let HwInsn::Simple(Instruction::Alu { op, width: Width::W64, dst: d2, src }) =
                    next.insn
                {
                    let src_ok = match src {
                        Operand::Reg(r) => r != dst,
                        Operand::Imm(_) => true,
                    };
                    if d2 == dst && op != AluOp::Mov && op != AluOp::Neg && a != dst && src_ok {
                        out.push(LabeledInsn {
                            pc: cur.pc,
                            insn: HwInsn::Alu3 { op, width: Width::W64, dst, a, b: src },
                            label: MemLabel::None,
                            map_use: None,
                            elided: None,
                            proof: None,
                        });
                        it.next();
                        continue;
                    }
                }
            }
        }
        out.push(cur);
    }
    *insns = out;
}

/// Global liveness-driven removal of pure instructions whose destination
/// register is dead. Loads are kept (they can fault and drop the packet);
/// stores, calls, atomics and branches always stay.
fn eliminate_dead_code(p: &mut LoweredProgram) {
    let nb = p.blocks.len();
    let (mut live_in, mut live_out) = (vec![0u16; nb], vec![0u16; nb]);
    let mut keep = Vec::new();
    loop {
        // live-in/out per block, to fixpoint.
        live_in.fill(0);
        live_out.fill(0);
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                let mut out = 0u16;
                for &s in &p.cfg.blocks[b].succs {
                    out |= live_in[s];
                }
                let mut live = out;
                for insn in p.blocks[b].iter().rev() {
                    let (reads, writes, _pure) = reg_effects(insn);
                    live &= !writes;
                    live |= reads;
                }
                if out != live_out[b] || live != live_in[b] {
                    live_out[b] = out;
                    live_in[b] = live;
                    changed = true;
                }
            }
        }

        // Sweep.
        let mut removed = false;
        for (block, &out) in p.blocks.iter_mut().zip(&live_out) {
            let mut live = out;
            keep.clear();
            keep.resize(block.len(), true);
            for (i, insn) in block.iter().enumerate().rev() {
                let (reads, writes, pure) = reg_effects(insn);
                if pure && writes != 0 && (writes & live) == 0 {
                    keep[i] = false;
                    removed = true;
                    continue;
                }
                live &= !writes;
                live |= reads;
            }
            let mut i = 0;
            block.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
        if !removed {
            break;
        }
    }
}

/// Register read/write masks plus purity (no side effects, cannot fault).
pub fn reg_effects(insn: &LabeledInsn) -> (u16, u16, bool) {
    let bit = |r: u8| 1u16 << r;
    match insn.insn {
        HwInsn::Alu3 { dst, a, b, .. } => {
            let mut reads = bit(a);
            if let Operand::Reg(r) = b {
                reads |= bit(r);
            }
            (reads, bit(dst), true)
        }
        HwInsn::Simple(i) => match i {
            Instruction::Alu { op, dst, src, .. } => {
                let mut reads = if op == AluOp::Mov { 0 } else { bit(dst) };
                if let Operand::Reg(r) = src {
                    reads |= bit(r);
                }
                (reads, bit(dst), true)
            }
            Instruction::Endian { dst, .. } => (bit(dst), bit(dst), true),
            Instruction::LoadImm64 { dst, .. } => (0, bit(dst), true),
            Instruction::Load { dst, src, .. } => (bit(src), bit(dst), false),
            Instruction::Store { dst, src, .. } => {
                let mut reads = bit(dst);
                if let Operand::Reg(r) = src {
                    reads |= bit(r);
                }
                (reads, 0, false)
            }
            Instruction::Atomic { dst, src, op, .. } => {
                let writes = if op.fetches() {
                    match op {
                        ehdl_ebpf::opcode::AtomicOp::Cmpxchg => bit(0),
                        _ => bit(src),
                    }
                } else {
                    0
                };
                (bit(dst) | bit(src) | bit(0), writes, false)
            }
            Instruction::Jump { cond, .. } => {
                let mut reads = 0;
                if let Some(c) = cond {
                    reads |= bit(c.lhs);
                    if let Operand::Reg(r) = c.rhs {
                        reads |= bit(r);
                    }
                }
                (reads, 0, false)
            }
            Instruction::Call { helper } => {
                let reads = helper_reads(helper);
                // r0-r5 clobbered.
                (reads, 0b11_1111, false)
            }
            Instruction::Exit => (bit(0), 0, false),
        },
    }
}

/// Registers a helper call consumes, per the eBPF calling convention.
pub fn helper_reads(helper: u32) -> u16 {
    use ehdl_ebpf::helpers::*;
    let n_args: u16 = match helper {
        BPF_MAP_LOOKUP_ELEM | BPF_MAP_DELETE_ELEM => 2,
        BPF_MAP_UPDATE_ELEM => 4,
        BPF_KTIME_GET_NS | BPF_GET_PRANDOM_U32 | BPF_GET_SMP_PROCESSOR_ID => 0,
        BPF_CSUM_DIFF => 5,
        BPF_REDIRECT | BPF_XDP_ADJUST_HEAD | BPF_XDP_ADJUST_TAIL => 2,
        _ => 5,
    };
    let mut mask = 0u16;
    for r in 1..=n_args {
        mask |= 1 << r;
    }
    mask
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::label::label;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::JmpOp;
    use ehdl_ebpf::Program;

    fn lower_prog(p: &Program, opts: CompilerOptions) -> LoweredProgram {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let (lab, _) = label(p, &decoded).unwrap();
        lower(&decoded, &lab, cfg, &opts)
    }

    fn total_insns(l: &LoweredProgram) -> usize {
        l.blocks.iter().map(|b| b.len()).sum()
    }

    #[test]
    fn mov_alu_fuses_to_alu3() {
        let mut a = Asm::new();
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4); // r2 = r10 - 4 (Figure 3's example)
        a.mov64_reg(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions { dce: false, ..Default::default() });
        let has_alu3 = l.blocks[0]
            .iter()
            .any(|i| matches!(i.insn, HwInsn::Alu3 { op: AluOp::Add, dst: 2, a: 10, .. }));
        assert!(has_alu3);
        assert_eq!(total_insns(&l), 3);
    }

    #[test]
    fn const_forwarding_folds_imm() {
        let mut a = Asm::new();
        a.mov64_imm(3, 5);
        a.mov64_imm(2, 100);
        a.alu64_reg(AluOp::Add, 2, 3); // becomes r2 += 5
        a.mov64_reg(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions::default());
        let folded = l.blocks[0].iter().any(|i| {
            matches!(
                i.insn,
                HwInsn::Simple(Instruction::Alu {
                    op: AluOp::Add,
                    dst: 2,
                    src: Operand::Imm(5),
                    ..
                })
            ) || matches!(i.insn, HwInsn::Alu3 { op: AluOp::Add, dst: 2, b: Operand::Imm(5), .. })
        });
        assert!(folded);
        // The mov r3 is dead after folding and DCE removes it.
        assert!(!l.blocks[0]
            .iter()
            .any(|i| matches!(i.insn, HwInsn::Simple(Instruction::Alu { dst: 3, .. }))));
    }

    #[test]
    fn dce_removes_dead_alu_keeps_loads() {
        let mut a = Asm::new();
        a.mov64_imm(3, 99); // dead
        a.load(ehdl_ebpf::opcode::MemSize::W, 4, 1, 8); // dead but can fault
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions::default());
        assert!(!l.blocks[0]
            .iter()
            .any(|i| matches!(i.insn, HwInsn::Simple(Instruction::Alu { dst: 3, .. }))));
        assert!(l.blocks[0]
            .iter()
            .any(|i| matches!(i.insn, HwInsn::Simple(Instruction::Load { .. }))));
    }

    #[test]
    fn bounds_check_marked_elidable() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(ehdl_ebpf::opcode::MemSize::W, 7, 1, 0);
        a.load(ehdl_ebpf::opcode::MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions::default());
        let marked = l.blocks.iter().flatten().any(|i| i.elided.is_some());
        assert!(marked);

        // With a PASS fail-target the check must not be elidable.
        let mut a = Asm::new();
        let pass = a.new_label();
        a.load(ehdl_ebpf::opcode::MemSize::W, 7, 1, 0);
        a.load(ehdl_ebpf::opcode::MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, pass);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(pass);
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions::default());
        assert!(!l.blocks.iter().flatten().any(|i| i.elided.is_some()));
    }

    #[test]
    fn dce_respects_cross_block_liveness() {
        let mut a = Asm::new();
        let other = a.new_label();
        a.mov64_imm(3, 7); // live only in the `other` block
        a.load(ehdl_ebpf::opcode::MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, other);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(other);
        a.mov64_reg(0, 3);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let l = lower_prog(&p, CompilerOptions::default());
        assert!(l.blocks[0]
            .iter()
            .any(|i| matches!(i.insn, HwInsn::Simple(Instruction::Alu { dst: 3, .. }))));
    }
}
