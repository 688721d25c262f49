//! Hazard-window minimization (post-scheduling map-access motion).
//!
//! The ILP scheduler (§3.3) packs every instruction ASAP, which is optimal
//! for stage count but pessimal for RAW hazard windows: a map lookup lands
//! as early as its key bytes allow while the matching write sits many
//! stages later, and Appendix A.1 charges every same-flow packet pair
//! inside that window a flush of `K` cycles with probability
//! `p_flush_zipf(L, n)`. This pass re-places map *reads* as late as their
//! dependents allow (ALAP) while leaving every other instruction — map
//! writes included — at its ASAP level, so `L = write − first_read`
//! shrinks without adding schedule rows. Reads that transitively feed a
//! map write in the same block stay put: sinking them would push the write
//! later and give the window back.
//!
//! The candidate schedule is accepted only if the analytical model
//! predicts no more throughput loss than the baseline; the model is
//! evaluated only when some read actually sank. With checkpointed
//! partial flushes the flush cost is `K = L + FLUSH_RELOAD_CYCLES`, so
//! shrinking the window attacks both factors of `p_flush × K` at once.

use crate::analytical::p_flush_zipf;
use crate::ddg::{BlockDeps, DepKind};
use crate::fusion::LoweredProgram;
use crate::hazard::FLUSH_RELOAD_CYCLES;
use crate::ir::{HwInsn, MapUse};
use crate::schedule::BlockSchedule;
use ehdl_ebpf::helpers::helper_info;
use ehdl_ebpf::insn::Instruction;

/// Flow count the placement model assumes (App. A.1 evaluates at 50 k
/// Zipf-distributed flows).
pub const MODEL_FLOWS: usize = 50_000;

/// What the pass did, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HazardOptReport {
    /// Map reads moved to a later row.
    pub sunk_reads: usize,
    /// Σ `p_flush_zipf(L, n) · K` over all FEBs before motion; scored only
    /// when some read could sink (0 otherwise).
    pub predicted_loss_before: f64,
    /// Same after motion (equals `before` when the baseline won).
    pub predicted_loss_after: f64,
}

/// Sink map reads within their blocks and return the schedule with the
/// lower predicted flush loss. `baseline` must be the output of
/// [`crate::schedule::schedule`] with `parallelize` on for the same
/// `(p, deps)`.
pub fn optimize(
    p: &LoweredProgram,
    deps: &[BlockDeps],
    baseline: Vec<BlockSchedule>,
) -> Vec<BlockSchedule> {
    optimize_with_report(p, deps, baseline).0
}

/// As [`optimize`], also reporting the motion and model scores.
///
/// Only a block holding a map read is re-levelled, from the ASAP levels
/// the scheduler kept. Where no read sinks, the levels are the ASAP ones
/// and the block keeps its baseline rows; where none sinks anywhere, the
/// loss model is not evaluated at all.
pub fn optimize_with_report(
    p: &LoweredProgram,
    deps: &[BlockDeps],
    mut baseline: Vec<BlockSchedule>,
) -> (Vec<BlockSchedule>, HazardOptReport) {
    let mut report = HazardOptReport::default();
    let mut sunk_blocks: Vec<(usize, BlockSchedule)> = Vec::new();
    for (b, (insns, bd)) in p.blocks.iter().zip(deps).enumerate() {
        if !insns.iter().any(|op| is_map_read(op.map_use)) {
            continue;
        }
        if let Some((rows, sunk)) = sink_reads(insns, bd, &baseline[b].levels) {
            report.sunk_reads += sunk;
            sunk_blocks.push((b, rows));
        }
    }
    if sunk_blocks.is_empty() {
        return (baseline, report);
    }
    let mut memo = Vec::new();
    report.predicted_loss_before = predicted_loss(baseline.iter(), MODEL_FLOWS, &mut memo);
    let candidate = baseline
        .iter()
        .enumerate()
        .map(|(b, base)| sunk_blocks.iter().find(|(c, _)| *c == b).map_or(base, |(_, sunk)| sunk));
    report.predicted_loss_after = predicted_loss(candidate, MODEL_FLOWS, &mut memo);
    if report.predicted_loss_after <= report.predicted_loss_before {
        for (b, sunk) in sunk_blocks {
            baseline[b] = sunk;
        }
    } else {
        report.predicted_loss_after = report.predicted_loss_before;
        report.sunk_reads = 0;
    }
    (baseline, report)
}

fn is_map_read(mu: Option<MapUse>) -> bool {
    matches!(mu, Some(MapUse::Lookup(_) | MapUse::LoadValue(_)))
}

fn is_map_write(mu: Option<MapUse>) -> bool {
    matches!(mu, Some(MapUse::HelperWrite(_) | MapUse::StoreValue(_)))
}

/// Re-level one block from its ASAP levels `asap`: map reads move to
/// their ALAP row unless that would drag a same-block map write along.
/// `None` when no read moves (the levels stay `asap`).
fn sink_reads(
    insns: &[crate::ir::LabeledInsn],
    bd: &BlockDeps,
    asap: &[usize],
) -> Option<(BlockSchedule, usize)> {
    let n = insns.len();
    let nrows = asap.iter().map(|l| l + 1).max()?;
    // ALAP levels from the existing last row — sinking never adds rows.
    let mut alap = vec![nrows - 1; n];
    for j in (0..n).rev() {
        for &(i, kind) in &bd[j] {
            let cap = match kind {
                DepKind::Hard => alap[j].saturating_sub(1),
                DepKind::Soft => alap[j],
            };
            alap[i] = alap[i].min(cap);
        }
    }
    // A read without slack stays at its ASAP row, and then so does
    // everything else.
    if !(0..n).any(|j| is_map_read(insns[j].map_use) && alap[j] > asap[j]) {
        return None;
    }
    // Reads feeding a map write (transitively) must not sink: the repair
    // pass below would push the write past its ASAP row and re-widen the
    // window from the write's side.
    let mut feeds_write = vec![false; n];
    for j in (0..n).rev() {
        if is_map_write(insns[j].map_use) || feeds_write[j] {
            for &(i, _) in &bd[j] {
                feeds_write[i] = true;
            }
        }
    }
    let mut level = vec![0usize; n];
    let mut sunk = 0usize;
    for j in 0..n {
        let want = if is_map_read(insns[j].map_use) && !feeds_write[j] { alap[j] } else { asap[j] };
        // Repair: a dependent of a sunk read follows it. Inductively
        // `level[i] ≤ alap[i]`, so the push never exceeds `alap[j]` and
        // the row count is preserved.
        let mut l = want;
        for &(i, kind) in &bd[j] {
            let min = match kind {
                DepKind::Hard => level[i] + 1,
                DepKind::Soft => level[i],
            };
            l = l.max(min);
        }
        debug_assert!(l <= alap[j]);
        level[j] = l;
        if is_map_read(insns[j].map_use) && l > asap[j] {
            sunk += 1;
        }
    }
    // With no read moved every level is its ASAP one: `want` is, and so,
    // inductively, is every repair.
    debug_assert!(sunk > 0 || level == asap);
    (sunk > 0).then(|| (BlockSchedule::from_levels(insns, level), sunk))
}

/// Σ `p_flush_zipf(L, n) · (L + reload)` over the FEBs the schedule would
/// produce, with stage indices estimated as assembly does: one stage per
/// row plus helper-latency expansion. Framing's frame-wait stages are not
/// modeled — they shift reads and writes together, and the score is only
/// ever compared between schedules of the same program. `memo` holds the
/// `(L, p_flush_zipf(L, n))` pairs already evaluated for this `n`.
fn predicted_loss<'a>(
    schedules: impl Iterator<Item = &'a BlockSchedule>,
    n_flows: usize,
    memo: &mut Vec<(usize, f64)>,
) -> f64 {
    let mut stage = 0usize;
    let mut reads: Vec<(u32, usize)> = Vec::new();
    let mut writes: Vec<(u32, usize)> = Vec::new();
    for block in schedules {
        for row in &block.rows {
            for op in row {
                match op.map_use {
                    mu if is_map_read(mu) => reads.push((mu.expect("read checked").map(), stage)),
                    mu if is_map_write(mu) => {
                        writes.push((mu.expect("write checked").map(), stage))
                    }
                    _ => {}
                }
            }
            let extra = row
                .iter()
                .filter_map(|op| match op.insn {
                    HwInsn::Simple(Instruction::Call { helper }) => {
                        helper_info(helper).map(|h| h.hw_stages.saturating_sub(1))
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            stage += 1 + extra;
        }
    }
    let mut loss = 0.0;
    for &(map, w) in &writes {
        let first_read = reads.iter().filter(|&&(m, r)| m == map && r < w).map(|&(_, r)| r).min();
        if let Some(r) = first_read {
            let l = w - r;
            let pf = match memo.iter().find(|&&(k, _)| k == l) {
                Some(&(_, pf)) => pf,
                None => {
                    let pf = p_flush_zipf(l, n_flows);
                    memo.push((l, pf));
                    pf
                }
            };
            loss += pf * (l + FLUSH_RELOAD_CYCLES) as f64;
        }
    }
    loss
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
    use crate::schedule::schedule;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    fn schedules_of(p: &Program) -> (LoweredProgram, Vec<BlockDeps>, Vec<BlockSchedule>) {
        let decoded = p.decode().unwrap();
        let cfg = Cfg::build(&decoded);
        let (lab, _) = label(p, &decoded).unwrap();
        let lowered = lower(&decoded, &lab, cfg, &CompilerOptions::default());
        let deps = ddg::build(&lowered);
        let s = schedule(&lowered, &deps, true);
        (lowered, deps, s)
    }

    /// Lookup early, result consumed only at the end of a long
    /// independent chain: the read has slack to sink into.
    fn slack_program() -> Program {
        slack_program_with(7)
    }

    /// As [`slack_program`], with `chain` ALU steps between the lookup
    /// and its use.
    fn slack_program_with(chain: usize) -> Program {
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_imm(2, 7);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(helpers::BPF_MAP_LOOKUP_ELEM);
        a.mov64_reg(6, 0);
        // Long independent ALU chain on a callee-saved register the call
        // does not clobber (r0–r5 would pick up a WAW edge on the call).
        a.mov64_imm(7, 1);
        for k in 0..chain {
            let op = if k % 2 == 0 { AluOp::Add } else { AluOp::Mul };
            a.alu64_imm(op, 7, k as i32 + 2);
        }
        // Only now consume the lookup result.
        a.jmp_reg(JmpOp::Jeq, 6, 7, miss);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(miss);
        a.mov64_imm(0, 1);
        a.exit();
        Program::new("slack", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 64)])
    }

    /// The row of the block-0 lookup.
    fn lookup_row(s: &[BlockSchedule]) -> usize {
        s[0].rows
            .iter()
            .position(|r| r.iter().any(|i| matches!(i.map_use, Some(MapUse::Lookup(_)))))
            .unwrap()
    }

    /// A read sinks as far as its slack allows, one row of slack
    /// included: each chain step adds at most one row of slack.
    #[test]
    fn a_read_sinks_exactly_as_far_as_its_slack() {
        let sunk_by: Vec<usize> = (0..=7)
            .map(|chain| {
                let (lowered, deps, base) = schedules_of(&slack_program_with(chain));
                let (opt, _) = optimize_with_report(&lowered, &deps, base.clone());
                lookup_row(&opt) - lookup_row(&base)
            })
            .collect();
        assert!(sunk_by.windows(2).all(|w| w[0] <= w[1] && w[1] <= w[0] + 1), "{sunk_by:?}");
        assert!(sunk_by.contains(&1) && sunk_by[7] > 1, "{sunk_by:?}");
    }

    #[test]
    fn read_with_slack_sinks() {
        let p = slack_program();
        let (lowered, deps, base) = schedules_of(&p);
        let base_rows: Vec<usize> = base.iter().map(|b| b.rows.len()).collect();
        let (opt, report) = optimize_with_report(&lowered, &deps, base.clone());
        assert!(report.sunk_reads > 0, "the lookup has slack: {report:?}");
        assert!(report.predicted_loss_after <= report.predicted_loss_before);
        let opt_rows: Vec<usize> = opt.iter().map(|b| b.rows.len()).collect();
        assert_eq!(base_rows, opt_rows, "sinking must not add rows");
        // Same instruction multiset per block.
        for (b, o) in base.iter().zip(&opt) {
            let mut bi: Vec<_> = b.rows.iter().flatten().map(|i| i.pc).collect();
            let mut oi: Vec<_> = o.rows.iter().flatten().map(|i| i.pc).collect();
            bi.sort_unstable();
            oi.sort_unstable();
            assert_eq!(bi, oi);
        }
        // The lookup moved to a strictly later row.
        assert!(lookup_row(&opt) > lookup_row(&base));
    }

    #[test]
    fn read_feeding_write_stays_put() {
        // lookup → (value feeds) update in the same block: sinking the
        // lookup would push the write later, so neither moves.
        let mut a = Asm::new();
        a.mov64_imm(2, 7);
        a.store_reg(MemSize::W, 10, -8, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.call(helpers::BPF_MAP_LOOKUP_ELEM);
        a.store_reg(MemSize::Dw, 10, -16, 0);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(helpers::BPF_MAP_UPDATE_ELEM);
        a.mov64_imm(0, 2);
        a.exit();
        let p =
            Program::new("rmw", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 64)]);
        let (lowered, deps, base) = schedules_of(&p);
        let (opt, report) = optimize_with_report(&lowered, &deps, base.clone());
        assert_eq!(report, HazardOptReport::default(), "nothing sank, nothing was scored");
        let row_of = |s: &[BlockSchedule], pred: &dyn Fn(Option<MapUse>) -> bool| -> usize {
            s[0].rows.iter().position(|r| r.iter().any(|i| pred(i.map_use))).unwrap()
        };
        assert_eq!(
            row_of(&opt, &|mu| matches!(mu, Some(MapUse::HelperWrite(_)))),
            row_of(&base, &|mu| matches!(mu, Some(MapUse::HelperWrite(_)))),
            "write stays at its ASAP row"
        );
    }

    #[test]
    fn no_map_ops_is_identity() {
        let mut a = Asm::new();
        a.mov64_imm(1, 1);
        a.alu64_imm(AluOp::Add, 1, 2);
        a.mov64_reg(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let (lowered, deps, base) = schedules_of(&p);
        let (opt, report) = optimize_with_report(&lowered, &deps, base.clone());
        assert_eq!(report, HazardOptReport::default(), "nothing sank, nothing was scored");
        assert_eq!(base.len(), opt.len());
        for (b, o) in base.iter().zip(&opt) {
            assert_eq!(b.rows.len(), o.rows.len());
        }
    }
}
