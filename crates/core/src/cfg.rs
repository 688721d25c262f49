//! Control-flow graph construction over decoded instructions, plus
//! dominators and reverse-postorder — the backbone of labeling,
//! scheduling and predication.

use ehdl_ebpf::insn::{index_of, Decoded, Instruction, JumpCond};

/// Block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// `exit` — the block ends the program.
    Exit,
    /// Unconditional jump to a block.
    Jump {
        /// Target block.
        target: usize,
    },
    /// Conditional branch.
    Cond {
        /// The comparison.
        cond: JumpCond,
        /// Block taken when the condition holds.
        taken: usize,
        /// Fall-through block.
        fall: usize,
    },
    /// Fall-through into the next block (no explicit terminator insn).
    FallThrough {
        /// Next block.
        next: usize,
    },
}

/// A basic block: a contiguous range of decoded-instruction indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First decoded index.
    pub start: usize,
    /// One past the last decoded index.
    pub end: usize,
    /// How the block ends.
    pub term: Terminator,
    /// Successor blocks.
    pub succs: Vec<usize>,
    /// Predecessor blocks.
    pub preds: Vec<usize>,
}

/// The control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks indexed by id; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Blocks in reverse postorder from the entry.
    pub rpo: Vec<usize>,
    /// Immediate dominator per block (`idom[0] == 0`).
    pub idom: Vec<usize>,
    /// Map from decoded-instruction index to its block.
    pub block_of: Vec<usize>,
}

impl Cfg {
    /// Build the CFG for a decoded instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if a jump targets a slot that is not an instruction boundary
    /// (the verifier rejects such programs first).
    pub fn build(decoded: &[Decoded]) -> Cfg {
        let didx = |slot: usize| -> usize {
            index_of(decoded, slot).expect("jump target on instruction boundary")
        };

        // Leaders: entry, jump targets, instruction after any terminator.
        let mut leader = vec![false; decoded.len()];
        if !decoded.is_empty() {
            leader[0] = true;
        }
        for (i, d) in decoded.iter().enumerate() {
            match d.insn {
                Instruction::Jump { cond, target } => {
                    leader[didx(target)] = true;
                    if i + 1 < decoded.len() && cond.is_some() {
                        leader[i + 1] = true;
                    }
                    if i + 1 < decoded.len() && cond.is_none() {
                        leader[i + 1] = true;
                    }
                }
                Instruction::Exit if i + 1 < decoded.len() => {
                    leader[i + 1] = true;
                }
                _ => {}
            }
        }

        // Carve blocks.
        let mut starts: Vec<usize> =
            leader.iter().enumerate().filter_map(|(i, l)| l.then_some(i)).collect();
        starts.sort_unstable();
        let mut block_of = vec![0usize; decoded.len()];
        let mut ranges = Vec::with_capacity(starts.len());
        for (b, &s) in starts.iter().enumerate() {
            let e = starts.get(b + 1).copied().unwrap_or(decoded.len());
            ranges.push((s, e));
            block_of[s..e].fill(b);
        }

        // Terminators and edges.
        let mut blocks: Vec<Block> = ranges
            .iter()
            .map(|&(s, e)| Block {
                start: s,
                end: e,
                term: Terminator::Exit,
                succs: vec![],
                preds: vec![],
            })
            .collect();
        for (b, &(s, e)) in ranges.iter().enumerate() {
            debug_assert!(e > s, "empty basic block");
            let last = &decoded[e - 1];
            let term = match last.insn {
                Instruction::Exit => Terminator::Exit,
                Instruction::Jump { cond: None, target } => {
                    Terminator::Jump { target: block_of[didx(target)] }
                }
                Instruction::Jump { cond: Some(c), target } => Terminator::Cond {
                    cond: c,
                    taken: block_of[didx(target)],
                    fall: block_of[e], // verifier guarantees e < len
                },
                _ => Terminator::FallThrough { next: b + 1 },
            };
            let succs: Vec<usize> = match term {
                Terminator::Exit => vec![],
                Terminator::Jump { target } => vec![target],
                Terminator::Cond { taken, fall, .. } => {
                    if taken == fall {
                        vec![taken]
                    } else {
                        vec![taken, fall]
                    }
                }
                Terminator::FallThrough { next } => vec![next],
            };
            blocks[b].term = term;
            blocks[b].succs = succs;
        }
        for b in 0..blocks.len() {
            for k in 0..blocks[b].succs.len() {
                let s = blocks[b].succs[k];
                blocks[s].preds.push(b);
            }
        }

        // Reverse postorder.
        let mut visited = vec![false; blocks.len()];
        let mut post = Vec::with_capacity(blocks.len());
        fn dfs(b: usize, blocks: &[Block], visited: &mut [bool], post: &mut Vec<usize>) {
            visited[b] = true;
            for &s in &blocks[b].succs {
                if !visited[s] {
                    dfs(s, blocks, visited, post);
                }
            }
            post.push(b);
        }
        if !blocks.is_empty() {
            dfs(0, &blocks, &mut visited, &mut post);
        }
        let rpo: Vec<usize> = post.into_iter().rev().collect();

        // Iterative dominators (Cooper-Harvey-Kennedy).
        let mut rpo_pos = vec![usize::MAX; blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut idom = vec![usize::MAX; blocks.len()];
        if !blocks.is_empty() {
            idom[0] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo.iter().skip(1) {
                    let mut new_idom = usize::MAX;
                    for &p in &blocks[b].preds {
                        if idom[p] == usize::MAX {
                            continue;
                        }
                        new_idom = if new_idom == usize::MAX {
                            p
                        } else {
                            intersect(new_idom, p, &idom, &rpo_pos)
                        };
                    }
                    if new_idom != usize::MAX && idom[b] != new_idom {
                        idom[b] = new_idom;
                        changed = true;
                    }
                }
            }
        }

        Cfg { blocks, rpo, idom, block_of }
    }

    /// Does block `a` dominate block `b`?
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            if x == 0 {
                return a == 0;
            }
            let d = self.idom[x];
            if d == x {
                return false;
            }
            x = d;
        }
    }

    /// Back edges `(from, to)` where the jump goes to an equal-or-earlier
    /// block that dominates it (a natural loop).
    pub fn back_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (b, blk) in self.blocks.iter().enumerate() {
            for &s in &blk.succs {
                if s <= b && self.dominates(s, b) {
                    out.push((b, s));
                }
            }
        }
        out
    }
}

fn intersect(mut a: usize, mut b: usize, idom: &[usize], rpo_pos: &[usize]) -> usize {
    while a != b {
        while rpo_pos[a] > rpo_pos[b] {
            a = idom[a];
        }
        while rpo_pos[b] > rpo_pos[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::JmpOp;
    use ehdl_ebpf::Program;

    fn cfg_of(a: Asm) -> Cfg {
        let p = Program::from_insns(a.into_insns());
        Cfg::build(&p.decode().unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.mov64_imm(1, 3);
        a.exit();
        let cfg = cfg_of(a);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].term, Terminator::Exit);
    }

    #[test]
    fn diamond_shape() {
        let mut a = Asm::new();
        let els = a.new_label();
        let join = a.new_label();
        a.mov64_imm(1, 5);
        a.jmp_imm(JmpOp::Jeq, 1, 0, els);
        a.mov64_imm(0, 2);
        a.jmp(join);
        a.bind(els);
        a.mov64_imm(0, 1);
        a.bind(join);
        a.exit();
        let cfg = cfg_of(a);
        assert_eq!(cfg.blocks.len(), 4);
        // entry branches to then/else; both reach join.
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        let join_id = cfg.blocks.len() - 1;
        assert_eq!(cfg.blocks[join_id].preds.len(), 2);
        // entry dominates everything; join dominated only by entry.
        assert!(cfg.dominates(0, join_id));
        assert!(!cfg.dominates(1, join_id));
        assert_eq!(cfg.idom[join_id], 0);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn loop_back_edge_detected() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(1, 4);
        a.bind(top);
        a.alu64_imm(ehdl_ebpf::opcode::AluOp::Sub, 1, 1);
        a.jmp_imm(JmpOp::Jne, 1, 0, top);
        a.mov64_imm(0, 2);
        a.exit();
        let cfg = cfg_of(a);
        let be = cfg.back_edges();
        assert_eq!(be.len(), 1);
        let (from, to) = be[0];
        assert!(cfg.dominates(to, from));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.mov64_imm(1, 1);
        a.jmp_imm(JmpOp::Jeq, 1, 0, l);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(l);
        a.mov64_imm(0, 1);
        a.exit();
        let cfg = cfg_of(a);
        assert_eq!(cfg.rpo[0], 0);
        assert_eq!(cfg.rpo.len(), cfg.blocks.len());
    }
}
