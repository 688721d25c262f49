//! Control-flow enforcement by predication (§3.5): one enable signal per
//! control block.
//!
//! "eHDL generates a set of control signals to enable/disable pipeline's
//! stages according to the result of goto/jump instructions." Each block
//! `b` gets one signal, `blk{b}_en`, defined once from its incoming edges:
//! an edge from `p` contributes `blk{p}_en`, `blk{p}_en and blk{p}_taken`
//! or `blk{p}_en and not blk{p}_taken`, and the terms are or-ed. This is
//! the recurrence the simulator's `block_enabled` evaluates, with
//! `blk0_en` fixed at `'1'`. Every stage's enable names its block's
//! signal, so the text grows with blocks + edges, not with the number of
//! paths into a block. The VHDL emitter and the design summary print the
//! same terms.

use crate::pipeline::{BlockInfo, EdgeCond};
use ehdl_ebpf::put;

/// The blocks whose enable is computed from predecessors: every block an
/// edge reaches. The entry block's enable is the constant `'1'`; an
/// unreachable block owns no stage and feeds no successor.
pub fn gated(blocks: &[BlockInfo]) -> impl Iterator<Item = (usize, &BlockInfo)> {
    blocks.iter().enumerate().filter(|(_, info)| !info.preds.is_empty())
}

/// Append a gated block's enable terms, or-ed: one term per incoming edge.
pub fn write_terms(o: &mut String, info: &BlockInfo) {
    // `and` and `or` do not mix without parentheses in VHDL.
    let paren = info.preds.len() > 1;
    for (k, &(p, cond)) in info.preds.iter().enumerate() {
        if k > 0 {
            o.push_str(" or ");
        }
        let neg = match cond {
            EdgeCond::Always => {
                put!(o, "blk", p, "_en");
                continue;
            }
            EdgeCond::IfTaken => "",
            EdgeCond::IfNotTaken => "not ",
        };
        let (open, close) = if paren { ("(", ")") } else { ("", "") };
        put!(o, open, "blk", p, "_en and ", neg, "blk", p, "_taken", close);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn blocks_of(a: Asm) -> Vec<BlockInfo> {
        Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap().blocks
    }

    fn terms(info: &BlockInfo) -> String {
        let mut o = String::new();
        write_terms(&mut o, info);
        o
    }

    fn diamond() -> Vec<BlockInfo> {
        let mut a = Asm::new();
        let els = a.new_label();
        let join = a.new_label();
        a.load(MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, els);
        a.mov64_imm(0, 2);
        a.jmp(join);
        a.bind(els);
        a.mov64_imm(0, 1);
        a.bind(join);
        a.exit();
        blocks_of(a)
    }

    /// `if A { if B { X } }`: block ids 0 entry, 1 second check, 2 the
    /// innermost block, 3 the join.
    fn nested_if() -> Vec<BlockInfo> {
        let mut a = Asm::new();
        let out1 = a.new_label();
        let out2 = a.new_label();
        a.load(MemSize::W, 2, 1, 8);
        a.jmp_imm(JmpOp::Jeq, 2, 0, out1);
        a.load(MemSize::W, 3, 1, 12);
        a.jmp_imm(JmpOp::Jeq, 3, 0, out2);
        a.mov64_imm(4, 1);
        a.bind(out1);
        a.bind(out2);
        a.mov64_imm(0, 2);
        a.exit();
        blocks_of(a)
    }

    /// Evaluate the printed terms in block order (every term names an
    /// earlier block) under one branch-outcome assignment.
    fn eval_printed(blocks: &[BlockInfo], taken: &[bool]) -> Vec<bool> {
        let mut en = vec![false; blocks.len()];
        en[0] = true;
        for (b, info) in gated(blocks) {
            let text = terms(info);
            en[b] = text.split(" or ").any(|term| {
                term.trim_matches(|c| c == '(' || c == ')').split(" and ").all(|lit| {
                    let (want, lit) = match lit.strip_prefix("not ") {
                        Some(l) => (false, l),
                        None => (true, lit),
                    };
                    let sig = lit.strip_prefix("blk").unwrap();
                    let (p, kind) = sig.split_once('_').unwrap();
                    let p: usize = p.parse().unwrap();
                    assert!(p < b, "blk{b}_en reads blk{p}");
                    match kind {
                        "en" => en[p],
                        "taken" => taken[p] == want,
                        _ => panic!("unexpected literal {lit}"),
                    }
                })
            });
        }
        en
    }

    /// Every path from the entry block (up to `limit` of them), each as
    /// the blocks it visits and the branch outcomes that take it. Blocks
    /// off the path get the outcome `off`, so their (unread) branch
    /// signals cannot matter.
    fn paths(blocks: &[BlockInfo], off: bool, limit: usize) -> Vec<(Vec<bool>, Vec<bool>)> {
        let mut out = Vec::new();
        let mut stack = vec![(0, vec![false; blocks.len()], vec![off; blocks.len()])];
        while let Some((cur, mut on, taken)) = stack.pop() {
            if out.len() == limit {
                break;
            }
            on[cur] = true;
            let forks = stack.len();
            for (s, info) in blocks.iter().enumerate() {
                for &(_, cond) in info.preds.iter().filter(|&&(p, _)| p == cur) {
                    let mut t = taken.clone();
                    match cond {
                        EdgeCond::Always => {}
                        EdgeCond::IfTaken => t[cur] = true,
                        EdgeCond::IfNotTaken => t[cur] = false,
                    }
                    stack.push((s, on.clone(), t));
                }
            }
            if stack.len() == forks {
                out.push((on, taken));
            }
        }
        out
    }

    /// The printed enables select exactly the blocks on the path the
    /// branch outcomes choose, for every path (up to `limit`).
    fn assert_enables_match_paths(blocks: &[BlockInfo], limit: usize) -> usize {
        let mut n = 0;
        for off in [false, true] {
            for (on, taken) in paths(blocks, off, limit) {
                assert_eq!(eval_printed(blocks, &taken), on, "{taken:?}");
                n += 1;
            }
        }
        n
    }

    #[test]
    fn diamond_enables() {
        let blocks = diamond();
        assert_eq!(gated(&blocks).map(|(b, _)| b).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(terms(&blocks[1]), "blk0_en and not blk0_taken");
        assert_eq!(terms(&blocks[2]), "blk0_en and blk0_taken");
        // The join names its two arms' signals, not their conditions.
        assert_eq!(terms(&blocks[3]), "blk1_en or blk2_en");
    }

    #[test]
    fn nested_conditions_compose() {
        let blocks = nested_if();
        // The innermost block is enabled only when both branches fell
        // through: the second check's signal already carries the first.
        assert_eq!(terms(&blocks[1]), "blk0_en and not blk0_taken");
        assert_eq!(terms(&blocks[2]), "blk1_en and not blk1_taken");
        assert_eq!(
            terms(&blocks[3]),
            "(blk0_en and blk0_taken) or (blk1_en and blk1_taken) or blk2_en"
        );
    }

    #[test]
    fn eval_matches_paths() {
        assert_eq!(assert_enables_match_paths(&diamond(), usize::MAX), 4);
        assert_eq!(assert_enables_match_paths(&nested_if(), usize::MAX), 6);
        for taken in [[true, false, false, false], [false, true, false, false]] {
            let en = eval_printed(&nested_if(), &taken);
            assert!(!en[2] && en[3], "{taken:?}: the inner block is skipped, the join is not");
        }
    }

    #[test]
    fn predicates_agree_with_real_designs() {
        let mut zoo: Vec<Program> = ehdl_programs::App::ALL.iter().map(|a| a.program()).collect();
        zoo.push(ehdl_programs::toy_counter::program());
        zoo.push(ehdl_programs::leaky_bucket::program());
        for program in &zoo {
            let blocks = Compiler::new().compile(program).unwrap().blocks;
            assert!(assert_enables_match_paths(&blocks, 2048) > 2, "{}", program.name);
        }
    }
}
