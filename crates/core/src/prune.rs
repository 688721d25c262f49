//! State pruning (§4.3).
//!
//! Each stage physically carries a copy of the program state to the next
//! stage; without pruning that is 11 × 8 B of registers plus 512 B of stack
//! per stage. The pruning pass computes, per stage boundary, which
//! registers and which stack bytes can still be *used* downstream, and
//! keeps only those — the optimization that reduces Listing 1's per-stage
//! memory from over 2 KB to 88 B (§4.4).
//!
//! Liveness must respect predication: a write performed in a *conditionally
//! enabled* stage cannot end the previous value's lifetime, because when
//! the stage is disabled the old value flows through. A write kills a
//! pending use only if the writing block dominates every block still
//! waiting to read the value.

use crate::ddg::visit_effects;
use crate::ir::Resource;
use crate::pipeline::{BlockInfo, Stage};
use ehdl_ebpf::vm::STACK_SIZE;

/// Pruning results: what state each stage boundary must carry.
#[derive(Debug, Clone)]
pub struct PruneInfo {
    /// Per stage: bitmask of registers the stage must receive.
    pub live_regs: Vec<u16>,
    /// Per stage: number of live stack bytes the stage must receive.
    pub live_stack_bytes: Vec<usize>,
    /// Per stage: live stack byte map (bit per byte, 512 bits).
    pub live_stack: Vec<[u64; 8]>,
    /// Whether pruning was enabled (false = §5.4 ablation baseline).
    pub enabled: bool,
}

impl PruneInfo {
    /// Total register-slots carried across all boundaries.
    pub fn total_reg_slots(&self) -> usize {
        self.live_regs.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Total stack bytes carried across all boundaries.
    pub fn total_stack_bytes(&self) -> usize {
        self.live_stack_bytes.iter().sum()
    }
}

/// Words of a block bitset over `nb` blocks.
fn words(nb: usize) -> usize {
    nb.div_ceil(64)
}

/// Per block `b`, the set of blocks `b` does **not** dominate, as a
/// bitset over the effective (assembled) control structure: a write in
/// `b` keeps exactly these pending uses, so a kill is one `and` per word.
/// (A block without predecessors other than the entry is unreachable and
/// counts as dominated by every block.)
fn not_dominated_by(blocks: &[BlockInfo]) -> Vec<u64> {
    let n = blocks.len();
    let nw = words(n);
    // dom[u]: the blocks dominating `u`; iterate to the greatest fixpoint.
    let mut dom = vec![u64::MAX; n * nw];
    if n == 0 {
        return dom;
    }
    dom[..nw].fill(0);
    dom[0] = 1;
    let mut new = vec![0u64; nw];
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            if blocks[b].preds.is_empty() {
                continue;
            }
            new.fill(u64::MAX);
            for &(p, _) in &blocks[b].preds {
                for (w, d) in new.iter_mut().zip(&dom[p * nw..(p + 1) * nw]) {
                    *w &= d;
                }
            }
            new[b / 64] |= 1 << (b % 64);
            if new != dom[b * nw..(b + 1) * nw] {
                dom[b * nw..(b + 1) * nw].copy_from_slice(&new);
                changed = true;
            }
        }
    }
    // Transpose and complement: keep[b] has bit `u` iff `b ∉ dom[u]`.
    let mut keep = vec![0u64; n * nw];
    for u in 0..n {
        for b in 0..n {
            if dom[u * nw + b / 64] & (1 << (b % 64)) == 0 {
                keep[b * nw + u / 64] |= 1 << (u % 64);
            }
        }
    }
    keep
}

/// First register slot: state slots are the 512 stack bytes, then r0-r10,
/// so words 0..8 of a slot bitset are the live-stack mask and word 8 holds
/// the live-register mask.
const REG_SLOT: usize = STACK_SIZE as usize;

/// The state slots a resource names. A write through an unknown stack
/// offset names none (it can end no lifetime), a read through one names
/// the whole frame; offsets outside the frame are dropped.
fn slots(res: Resource, write: bool) -> std::ops::Range<usize> {
    let size = STACK_SIZE as i64;
    match res {
        Resource::Reg(r) => REG_SLOT + r as usize..REG_SLOT + r as usize + 1,
        Resource::Stack(iv) if iv.is_top() => 0..if write { 0 } else { REG_SLOT },
        Resource::Stack(iv) if iv.hi >= -size && iv.lo < 0 => {
            (iv.lo.max(-size) + size) as usize..(iv.hi.min(-1) + size) as usize + 1
        }
        _ => 0..0,
    }
}

/// Run the liveness analysis over the final stage list.
///
/// With `enabled == false` the result reports the unpruned baseline: all
/// eleven registers and the full stack live at every boundary.
///
/// The walk is backwards over the stages with, per state slot, the bitset
/// of blocks still waiting to read it; the live mask is maintained as
/// those sets empty and fill, so a stage costs the slots its ops touch
/// (× one word per 64 blocks), not the state size.
pub fn analyze(stages: &[Stage], blocks: &[BlockInfo], enabled: bool) -> PruneInfo {
    let n = stages.len();
    if !enabled {
        return PruneInfo {
            live_regs: vec![0x7ff; n],
            live_stack_bytes: vec![STACK_SIZE as usize; n],
            live_stack: vec![[u64::MAX; 8]; n],
            enabled: false,
        };
    }

    let keep = not_dominated_by(blocks);
    let nw = words(blocks.len());
    // Per slot, the `nw`-word set of blocks waiting to read it, and the
    // slots whose set is not empty.
    let mut pending = vec![0u64; (REG_SLOT + 11) * nw];
    let mut live = [0u64; 9];

    let mut live_regs = vec![0u16; n];
    let mut live_stack_bytes = vec![0usize; n];
    let mut live_stack: Vec<[u64; 8]> = vec![[0u64; 8]; n];

    for (i, stage) in stages.iter().enumerate().rev() {
        let b = stage.block;
        let keep_b = &keep[b * nw..(b + 1) * nw];

        // Ops in a stage are parallel and all act on the *input* state, so
        // first every write kills the pending uses its block dominates,
        // then every read becomes a pending use of this block.
        for op in &stage.ops {
            visit_effects(op, |w, write| {
                if !write {
                    return;
                }
                for s in slots(w, true) {
                    if live[s / 64] & (1 << (s % 64)) == 0 {
                        continue;
                    }
                    let mut left = 0;
                    for (p, k) in pending[s * nw..(s + 1) * nw].iter_mut().zip(keep_b) {
                        *p &= k;
                        left |= *p;
                    }
                    if left == 0 {
                        live[s / 64] &= !(1 << (s % 64));
                    }
                }
            });
        }
        for op in &stage.ops {
            visit_effects(op, |r, write| {
                if write {
                    return;
                }
                for s in slots(r, false) {
                    pending[s * nw + b / 64] |= 1 << (b % 64);
                    live[s / 64] |= 1 << (s % 64);
                }
            });
        }

        // Record the boundary entering this stage.
        live_regs[i] = live[8] as u16;
        live_stack[i].copy_from_slice(&live[..8]);
        live_stack_bytes[i] = live[..8].iter().map(|w| w.count_ones() as usize).sum();
    }

    PruneInfo { live_regs, live_stack_bytes, live_stack, enabled: true }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::compile::CompilerOptions;
    use crate::ddg;
    use crate::fusion::lower;
    use crate::label::label;
    use crate::pipeline::assemble;
    use crate::schedule::schedule;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn prune_prog(p: &Program) -> (Vec<Stage>, PruneInfo) {
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
        let deps = ddg::build(&lowered);
        let s = schedule(&lowered, &deps, false);
        let asm = assemble(&lowered, s);
        let info = analyze(&asm.stages, &asm.blocks, true);
        (asm.stages, info)
    }

    #[test]
    fn dead_register_not_carried() {
        let mut a = Asm::new();
        a.mov64_imm(3, 7); // r3 used immediately then dead
        a.mov64_reg(4, 3);
        a.mov64_imm(0, 2); // several stages where r3/r4 are dead
        a.mov64_imm(5, 1);
        a.exit();
        let (stages, info) = prune_prog(&Program::from_insns(a.into_insns()));
        // r3 is live entering stage 1 (the use), dead entering stage 2+.
        assert_eq!(stages.len(), 5);
        assert!(info.live_regs[1] & (1 << 3) != 0);
        assert!(info.live_regs[2] & (1 << 3) == 0);
        // r0 is defined at stage 2 and consumed by the exit: live at the
        // boundaries entering stages 3 and 4, not before its definition.
        assert!(info.live_regs[2] & 1 == 0);
        assert!(info.live_regs[3] & 1 != 0);
        assert!(info.live_regs[4] & 1 != 0);
    }

    #[test]
    fn stack_bytes_live_between_store_and_consume() {
        let mut a = Asm::new();
        a.mov64_imm(2, 5);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.mov64_imm(3, 0); // filler stage
        a.load(MemSize::W, 0, 10, -4);
        a.exit();
        let (_, info) = prune_prog(&Program::from_insns(a.into_insns()));
        // Boundary entering the filler stage and the load: 4 bytes live.
        assert_eq!(info.live_stack_bytes[2], 4);
        assert_eq!(info.live_stack_bytes[3], 4);
        // After the load consumed it, nothing is live.
        assert_eq!(info.live_stack_bytes[4], 0);
    }

    #[test]
    fn predicated_write_does_not_kill() {
        // if (c) r3 = 1; use r3 afterwards: r3's incoming value must stay
        // live through the conditional block.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.mov64_imm(3, 42);
        a.load(MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, skip);
        a.mov64_imm(3, 1); // predicated write
        a.bind(skip);
        a.mov64_reg(0, 3);
        a.exit();
        let (stages, info) = prune_prog(&Program::from_insns(a.into_insns()));
        // Find the predicated-write stage; r3 must be live *entering* it.
        let idx = stages
            .iter()
            .position(|s| {
                s.block != 0
                    && s.ops.iter().any(|o| {
                        matches!(
                            o.insn,
                            crate::ir::HwInsn::Simple(ehdl_ebpf::insn::Instruction::Alu {
                                dst: 3,
                                ..
                            })
                        )
                    })
            })
            .unwrap();
        assert!(info.live_regs[idx] & (1 << 3) != 0, "old r3 must flow through");
    }

    #[test]
    fn dominating_write_kills() {
        let mut a = Asm::new();
        a.mov64_imm(3, 42);
        a.mov64_imm(4, 0);
        a.mov64_imm(3, 1); // unconditional redefinition
        a.alu64_reg(AluOp::Add, 4, 3);
        a.mov64_reg(0, 4);
        a.exit();
        let (_, info) = prune_prog(&Program::from_insns(a.into_insns()));
        // Entering stage 1 and 2, the *old* r3 (from stage 0) is dead:
        // stage 2 redefines it before the use at stage 3.
        assert!(info.live_regs[1] & (1 << 3) == 0);
        assert!(info.live_regs[2] & (1 << 3) == 0);
        assert!(info.live_regs[3] & (1 << 3) != 0);
    }

    #[test]
    fn disabled_pruning_reports_full_state() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let (lab, _) = label(&p, &decoded).unwrap();
        let lowered = lower(&decoded, &lab, cfg, &CompilerOptions::default());
        let deps = ddg::build(&lowered);
        let s = schedule(&lowered, &deps, true);
        let asm = assemble(&lowered, s);
        let info = analyze(&asm.stages, &asm.blocks, false);
        assert!(info.live_regs.iter().all(|&m| m == 0x7ff));
        assert!(info.live_stack_bytes.iter().all(|&b| b == 512));
    }
}
