//! Bounded-loop unrolling (§2.2, §3.5).
//!
//! eBPF only admits loops whose trip count is bounded at compile time; eHDL
//! replaces every backward branch by fully unrolling such loops "so that
//! they can be unrolled in a hardware pipeline", leaving a strictly
//! forward-feeding program.
//!
//! The unroller recognizes bottom-tested counted loops (the shape clang
//! emits for `for`/`while` loops with constant bounds): a single back edge
//! whose latch condition tests an induction register that is initialized to
//! a constant before the loop and stepped by exactly one constant-immediate
//! ALU instruction inside the body. The trip count is obtained by direct
//! simulation of the induction recurrence; the body is then replicated that
//! many times with all branch displacements recomputed.

use crate::cfg::{Cfg, Terminator};
use crate::error::CompileError;
use ehdl_ebpf::insn::{index_of, Decoded, Instruction, Operand};
use ehdl_ebpf::opcode::{AluOp, JmpOp, Width};
use ehdl_ebpf::vm::cond_eval;
use ehdl_ebpf::{Insn, Program};

/// A strictly forward program with the decode and CFG it was checked on.
#[derive(Debug, Clone)]
pub struct Unrolled {
    /// The rewritten program.
    pub program: Program,
    /// Its decode.
    pub decoded: Vec<Decoded>,
    /// Its CFG, which has no back edge.
    pub cfg: Cfg,
}

/// Remove all backward branches from `program` by unrolling bounded loops.
/// `decoded` and `cfg` are the program's decode and CFG; each unrolled
/// loop is decoded and built once, and the last of those comes back with
/// the program. Nested loops are unrolled innermost-first.
///
/// # Errors
///
/// [`CompileError::UnsupportedLoop`] when a back edge does not match the
/// recognized counted-loop shape, and [`CompileError::UnrollBudget`] when
/// the trip count exceeds `max_unroll`.
pub fn unroll(
    program: &Program,
    mut decoded: Vec<Decoded>,
    mut cfg: Cfg,
    max_unroll: usize,
) -> Result<Unrolled, CompileError> {
    let mut insns = program.insns.clone();
    // Each unroll step removes one back edge; bound iterations defensively.
    for round in 0..64 {
        if round > 0 {
            decoded = ehdl_ebpf::insn::decode(&insns)?;
            cfg = Cfg::build(&decoded);
        }
        let back = cfg.back_edges();
        if back.is_empty() {
            let program = Program { insns, maps: program.maps.clone(), name: program.name.clone() };
            return Ok(Unrolled { program, decoded, cfg });
        }
        // Pick an innermost loop: a back edge whose body contains no other
        // back edge strictly inside it.
        let (latch, header) = *back
            .iter()
            .find(|&&(l, h)| {
                !back
                    .iter()
                    .any(|&(l2, h2)| (l2, h2) != (l, h) && h2 >= h && l2 <= l && (h2 > h || l2 < l))
            })
            .expect("non-empty back edge list has an innermost element");
        insns = unroll_one(&insns, &decoded, &cfg, header, latch, max_unroll)?;
    }
    Err(CompileError::UnsupportedLoop { pc: 0, reason: "too many nested loops" })
}

fn unroll_one(
    insns: &[Insn],
    decoded: &[Decoded],
    cfg: &Cfg,
    header: usize,
    latch: usize,
    max_unroll: usize,
) -> Result<Vec<Insn>, CompileError> {
    let latch_blk = &cfg.blocks[latch];
    let latch_last = &decoded[latch_blk.end - 1];
    let latch_pc = latch_last.pc;

    // The latch must be a conditional reg-imm branch back to the header.
    let cond = match latch_blk.term {
        Terminator::Cond { cond, taken, .. } if taken == header => cond,
        _ => {
            return Err(CompileError::UnsupportedLoop {
                pc: latch_pc,
                reason: "latch is not a conditional branch to the loop header",
            })
        }
    };
    let (ind_reg, bound) = match (cond.lhs, cond.rhs) {
        (r, Operand::Imm(i)) => (r, i),
        _ => {
            return Err(CompileError::UnsupportedLoop {
                pc: latch_pc,
                reason: "latch condition must compare the induction register with an immediate",
            })
        }
    };
    if cond.op == JmpOp::Jset {
        return Err(CompileError::UnsupportedLoop {
            pc: latch_pc,
            reason: "jset latches unsupported",
        });
    }

    // Body blocks must be the contiguous range header..=latch with no
    // entries from outside (other than into the header).
    let body_blocks: Vec<usize> = (header..=latch).collect();
    for &b in &body_blocks {
        if b != header {
            for &p in &cfg.blocks[b].preds {
                if !(header..=latch).contains(&p) {
                    return Err(CompileError::UnsupportedLoop {
                        pc: latch_pc,
                        reason: "loop body has side entries",
                    });
                }
            }
        }
    }

    // Slot extent of the body.
    let body_start = decoded[cfg.blocks[header].start].pc;
    let body_end = {
        let d = &decoded[latch_blk.end - 1];
        d.pc + d.slots
    };
    let body_len = body_end - body_start;

    // Exactly one induction step inside the body; nothing else writes it.
    let mut step: Option<(AluOp, i32)> = None;
    for d in decoded {
        if d.pc < body_start || d.pc >= body_end {
            continue;
        }
        match d.insn {
            Instruction::Alu { op, width: Width::W64, dst, src: Operand::Imm(i) }
                if dst == ind_reg && matches!(op, AluOp::Add | AluOp::Sub) =>
            {
                if step.is_some() {
                    return Err(CompileError::UnsupportedLoop {
                        pc: latch_pc,
                        reason: "multiple induction steps",
                    });
                }
                step = Some((op, i));
            }
            _ if writes_reg(&d.insn, ind_reg) => {
                return Err(CompileError::UnsupportedLoop {
                    pc: latch_pc,
                    reason: "loop body clobbers the induction register",
                });
            }
            _ => {}
        }
    }
    let (step_op, step_imm) = step.ok_or(CompileError::UnsupportedLoop {
        pc: latch_pc,
        reason: "no constant induction step found",
    })?;

    // Initial value: the last write to the induction register before the
    // loop must be `mov reg, imm`.
    let mut init: Option<i64> = None;
    for d in decoded {
        if d.pc >= body_start {
            break;
        }
        if let Instruction::Alu { op: AluOp::Mov, width: Width::W64, dst, src: Operand::Imm(i) } =
            d.insn
        {
            if dst == ind_reg {
                init = Some(i64::from(i));
                continue;
            }
        }
        if writes_reg(&d.insn, ind_reg) {
            init = None; // overwritten by something we cannot model
        }
    }
    let init = init.ok_or(CompileError::UnsupportedLoop {
        pc: latch_pc,
        reason: "induction register is not initialized to a constant",
    })?;

    // Simulate the recurrence to get the exact trip count.
    let mut x = init as u64;
    let mut trips = 0usize;
    loop {
        trips += 1;
        if trips > max_unroll {
            return Err(CompileError::UnrollBudget { pc: latch_pc, trips, max: max_unroll });
        }
        x = match step_op {
            AluOp::Add => x.wrapping_add(step_imm as i64 as u64),
            AluOp::Sub => x.wrapping_sub(step_imm as i64 as u64),
            _ => unreachable!("step restricted to add/sub"),
        };
        if !cond_eval(cond.op, cond.width, x, bound as i64 as u64) {
            break;
        }
    }

    // Rewrite the slot stream.
    let after_old = body_end;
    let growth = (trips - 1) * body_len;
    let map_outside = |slot: usize| -> usize {
        if slot < body_start {
            slot
        } else if slot >= after_old {
            slot + growth
        } else {
            debug_assert_eq!(slot, body_start, "verified: only the header is entered from outside");
            slot
        }
    };
    let after_new = after_old + growth;

    let mut out: Vec<Insn> = Vec::with_capacity(insns.len() + growth);

    // Prefix (with jump fixups).
    let mut slot = 0;
    while slot < body_start {
        let d = decoded_at(decoded, slot);
        out.push(fixup_jump(insns[slot], slot, slot, d, &map_outside)?);
        for extra in 1..d.slots {
            out.push(insns[slot + extra]);
        }
        slot += d.slots;
    }

    // Body copies.
    for copy in 0..trips {
        let base_new = body_start + copy * body_len;
        let mut s = body_start;
        while s < body_end {
            let d = decoded_at(decoded, s);
            let new_slot = base_new + (s - body_start);
            if s == latch_pc {
                // Replace the back edge with a negated forward exit branch.
                let mut insn = insns[s];
                let neg = cond.op.negate();
                insn.opcode = (insn.opcode & 0x0f) | neg.bits();
                let disp = after_new as i64 - new_slot as i64 - 1;
                insn.off = i16::try_from(disp).map_err(|_| CompileError::UnsupportedLoop {
                    pc: latch_pc,
                    reason: "unrolled branch displacement overflows 16 bits",
                })?;
                out.push(insn);
            } else {
                let target_map = |t: usize| -> usize {
                    if (body_start..body_end).contains(&t) {
                        base_new + (t - body_start)
                    } else {
                        map_outside(t)
                    }
                };
                out.push(fixup_jump(insns[s], s, new_slot, d, &target_map)?);
                for extra in 1..d.slots {
                    out.push(insns[s + extra]);
                }
            }
            s += d.slots;
        }
    }

    // Suffix.
    let mut s = after_old;
    while s < insns.len() {
        let d = decoded_at(decoded, s);
        let new_slot = map_outside(s);
        out.push(fixup_jump(insns[s], s, new_slot, d, &map_outside)?);
        for extra in 1..d.slots {
            out.push(insns[s + extra]);
        }
        s += d.slots;
    }

    Ok(out)
}

fn decoded_at(decoded: &[Decoded], slot: usize) -> &Decoded {
    &decoded[index_of(decoded, slot).expect("slot is an instruction boundary")]
}

fn fixup_jump(
    mut insn: Insn,
    old_slot: usize,
    new_slot: usize,
    d: &Decoded,
    target_map: &dyn Fn(usize) -> usize,
) -> Result<Insn, CompileError> {
    if let Instruction::Jump { target, .. } = d.insn {
        let new_target = target_map(target);
        let disp = new_target as i64 - new_slot as i64 - 1;
        insn.off = i16::try_from(disp).map_err(|_| CompileError::UnsupportedLoop {
            pc: old_slot,
            reason: "branch displacement overflows 16 bits after unrolling",
        })?;
    }
    Ok(insn)
}

fn writes_reg(insn: &Instruction, reg: u8) -> bool {
    match *insn {
        Instruction::Alu { dst, .. }
        | Instruction::Endian { dst, .. }
        | Instruction::LoadImm64 { dst, .. } => dst == reg,
        Instruction::Load { dst, .. } => dst == reg,
        Instruction::Atomic { op, src, .. } => op.fetches() && src == reg,
        Instruction::Call { .. } => reg <= 5, // r0-r5 clobbered by calls
        _ => false,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::vm::Vm;

    /// `unroll` from the program alone, as the compiler calls it.
    fn unrolled(p: &Program, max_unroll: usize) -> Result<Program, CompileError> {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        unroll(p, decoded, cfg, max_unroll).map(|u| u.program)
    }

    /// r1 counts 0..n, r2 accumulates r1; returns r2 in r0.
    fn counted_loop(n: i32) -> Program {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 0);
        a.mov64_imm(2, 0);
        a.bind(top);
        a.alu64_reg(AluOp::Add, 2, 1);
        a.alu64_imm(AluOp::Add, 1, 1);
        a.jmp_imm(JmpOp::Jlt, 1, n, top);
        a.mov64_reg(0, 2);
        a.exit();
        Program::from_insns(a.into_insns())
    }

    #[test]
    fn loop_free_program_unchanged() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let q = unrolled(&p, 64).unwrap();
        assert_eq!(p.insns, q.insns);
    }

    #[test]
    fn counted_loop_unrolls_and_preserves_semantics() {
        for n in [1, 2, 5, 10] {
            let p = counted_loop(n);
            let decoded = p.decode().unwrap();
            let u = unroll(&p, decoded.clone(), Cfg::build(&decoded), 64).unwrap();
            let q = u.program;
            // The decode and CFG that come back are the unrolled
            // program's, and no back edges remain.
            assert_eq!(u.decoded, q.decode().unwrap(), "n={n}");
            assert_eq!(u.cfg.blocks, Cfg::build(&u.decoded).blocks, "n={n}");
            assert!(u.cfg.back_edges().is_empty(), "n={n}");
            // Differential check against the original.
            let r_orig = Vm::new(&p).run(&mut vec![0; 64], 0).unwrap();
            let r_unrolled = Vm::new(&q).run(&mut vec![0; 64], 0).unwrap();
            assert_eq!(r_orig.r0, r_unrolled.r0, "n={n}");
            assert_eq!(r_orig.r0, (0..n as u64).sum::<u64>());
        }
    }

    #[test]
    fn countdown_loop_unrolls() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 6);
        a.mov64_imm(2, 0);
        a.bind(top);
        a.alu64_imm(AluOp::Add, 2, 3);
        a.alu64_imm(AluOp::Sub, 1, 1);
        a.jmp_imm(JmpOp::Jne, 1, 0, top);
        a.mov64_reg(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let q = unrolled(&p, 64).unwrap();
        assert!(Cfg::build(&q.decode().unwrap()).back_edges().is_empty());
        assert_eq!(Vm::new(&q).run(&mut vec![0; 64], 0).unwrap().r0, 18);
    }

    #[test]
    fn unroll_budget_enforced() {
        let p = counted_loop(100);
        match unrolled(&p, 16) {
            Err(CompileError::UnrollBudget { trips, max: 16, .. }) => assert!(trips > 16),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn clobbered_induction_rejected() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 4);
        a.bind(top);
        a.alu64_imm(AluOp::Mul, 1, 1); // extra write to the induction reg
        a.alu64_imm(AluOp::Sub, 1, 1);
        a.jmp_imm(JmpOp::Jne, 1, 0, top);
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        assert!(matches!(unrolled(&p, 64), Err(CompileError::UnsupportedLoop { .. })));
    }

    #[test]
    fn branch_inside_body_remapped() {
        // Loop with an internal if/else; verify semantics survive.
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 0);
        a.mov64_imm(2, 0);
        a.bind(top);
        let odd = a.new_label();
        let cont = a.new_label();
        a.mov64_reg(3, 1);
        a.alu64_imm(AluOp::And, 3, 1);
        a.jmp_imm(JmpOp::Jne, 3, 0, odd);
        a.alu64_imm(AluOp::Add, 2, 10); // even iterations add 10
        a.jmp(cont);
        a.bind(odd);
        a.alu64_imm(AluOp::Add, 2, 1); // odd iterations add 1
        a.bind(cont);
        a.alu64_imm(AluOp::Add, 1, 1);
        a.jmp_imm(JmpOp::Jlt, 1, 6, top);
        a.mov64_reg(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let q = unrolled(&p, 64).unwrap();
        assert!(Cfg::build(&q.decode().unwrap()).back_edges().is_empty());
        // 3 even (0,2,4) * 10 + 3 odd * 1 = 33.
        assert_eq!(Vm::new(&q).run(&mut vec![0; 64], 0).unwrap().r0, 33);
    }
}
