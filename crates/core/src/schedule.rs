//! Parallelization: the ILP scheduler (§3.3).
//!
//! Within each control block, instructions with no mutual data dependency
//! are packed into the same schedule row; every row becomes one pipeline
//! stage. Unlike a fixed processor, the stage width grows and shrinks
//! per-program: "when a set of instructions can run in parallel, eHDL
//! expands the stage to run all of them".

use crate::ddg::{BlockDeps, DepKind};
use crate::fusion::LoweredProgram;
use crate::ir::LabeledInsn;

/// The schedule of one block: rows of parallel instructions.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Rows in execution order; each row is a set of parallel instructions.
    pub rows: Vec<Vec<LabeledInsn>>,
    /// The level each instruction of the block was placed at, before
    /// elided instructions and then empty rows were dropped.
    pub levels: Vec<usize>,
}

impl BlockSchedule {
    /// The rows `levels` gives `insns`: each level's instructions in block
    /// order, elided bounds checks dropped, empty rows dropped.
    pub(crate) fn from_levels(insns: &[LabeledInsn], levels: Vec<usize>) -> BlockSchedule {
        let nrows = levels.iter().map(|l| l + 1).max().unwrap_or(0);
        let mut rows: Vec<Vec<LabeledInsn>> = vec![Vec::new(); nrows];
        for (insn, &l) in insns.iter().zip(&levels) {
            if insn.elided.is_none() {
                rows[l].push(*insn);
            }
        }
        rows.retain(|r| !r.is_empty());
        BlockSchedule { rows, levels }
    }
}

/// ASAP levels of one block over its DDG: a hard dependence puts an
/// instruction below its source, a soft one no earlier than it.
fn asap_levels(bd: &BlockDeps, n: usize) -> Vec<usize> {
    let mut level = vec![0usize; n];
    for j in 0..n {
        for &(i, kind) in &bd[j] {
            let min = match kind {
                DepKind::Hard => level[i] + 1,
                DepKind::Soft => level[i],
            };
            level[j] = level[j].max(min);
        }
    }
    level
}

/// Schedule every block with ASAP list scheduling over the DDG.
///
/// Instructions marked as elided bounds checks are dropped here — the
/// hardware performs the check implicitly at each packet access (§4.4).
///
/// When `parallelize` is false every instruction gets its own row (the
/// ablation baseline: one instruction per stage).
pub fn schedule(p: &LoweredProgram, deps: &[BlockDeps], parallelize: bool) -> Vec<BlockSchedule> {
    p.blocks
        .iter()
        .zip(deps)
        .map(|(insns, bd)| {
            let levels =
                if parallelize { asap_levels(bd, insns.len()) } else { (0..insns.len()).collect() };
            BlockSchedule::from_levels(insns, levels)
        })
        .collect()
}

/// Instruction-level-parallelism statistics over a set of block schedules
/// (Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpStats {
    /// Widest row.
    pub max: usize,
    /// Mean instructions per row.
    pub avg: f64,
    /// Total scheduled instructions.
    pub insns: usize,
    /// Total rows (= stages before framing/helper expansion).
    pub rows: usize,
}

/// Compute ILP statistics.
pub fn ilp_stats(schedules: &[BlockSchedule]) -> IlpStats {
    let mut max = 0;
    let mut insns = 0;
    let mut rows = 0;
    for s in schedules {
        for r in &s.rows {
            max = max.max(r.len());
            insns += r.len();
            rows += 1;
        }
    }
    IlpStats { max, avg: if rows == 0 { 0.0 } else { insns as f64 / rows as f64 }, insns, rows }
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
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, MemSize};
    use ehdl_ebpf::Program;

    fn sched(p: &Program, parallelize: bool) -> (LoweredProgram, Vec<BlockSchedule>) {
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
        let s = schedule(&lowered, &deps, parallelize);
        (lowered, s)
    }

    #[test]
    fn parallel_loads_share_a_row() {
        // Figure 4: two independent byte loads in one stage.
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 12);
        a.load(MemSize::B, 3, 7, 13);
        a.mov64_reg(0, 2);
        a.exit();
        let (_, s) = sched(&Program::from_insns(a.into_insns()), true);
        let rows = &s[0].rows;
        // Row with both dependent loads.
        assert!(rows.iter().any(|r| r.len() == 2));
    }

    #[test]
    fn dependency_chain_is_sequential() {
        let mut a = Asm::new();
        a.mov64_imm(1, 1);
        a.alu64_imm(AluOp::Add, 1, 2);
        a.alu64_imm(AluOp::Mul, 1, 3);
        a.mov64_reg(0, 1);
        a.exit();
        let (_, s) = sched(&Program::from_insns(a.into_insns()), true);
        // mov, add, mul must be in distinct rows; exit reads r0.
        assert!(s[0].rows.len() >= 4);
    }

    #[test]
    fn no_parallelize_gives_one_insn_per_row() {
        let mut a = Asm::new();
        a.mov64_imm(1, 1);
        a.mov64_imm(2, 2);
        a.mov64_imm(3, 3);
        a.mov64_reg(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (_, s) = sched(&p, false);
        for r in &s[0].rows {
            assert_eq!(r.len(), 1);
        }
        let (_, sp) = sched(&p, true);
        assert!(sp[0].rows.len() < s[0].rows.len());
    }

    #[test]
    fn ilp_stats_counts() {
        let mut a = Asm::new();
        a.mov64_imm(1, 1);
        a.mov64_imm(2, 2);
        a.mov64_reg(0, 1);
        a.exit();
        let (_, s) = sched(&Program::from_insns(a.into_insns()), true);
        let st = ilp_stats(&s);
        assert_eq!(st.insns, 4);
        assert!(st.max >= 2);
        assert!(st.avg > 1.0);
    }
}
