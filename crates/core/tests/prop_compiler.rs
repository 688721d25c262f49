//! Randomized tests on compiler invariants: schedules respect dependences,
//! pruning is sound relative to a re-analysis, framing waits are exactly
//! what late accesses require, the bitset liveness pass equals the §4.3
//! rule applied per (resource, block), the DDG equals the pairwise
//! effect-conflict rule, and the analytical model is monotone.
//!
//! Formerly proptest-based; rewritten as deterministic seeded campaigns so
//! the workspace builds without crates.io access.

use ehdl_core::analytical;
use ehdl_core::ddg::{self, DepKind};
use ehdl_core::ir::{HwInsn, LabeledInsn, Resource};
use ehdl_core::{Compiler, CompilerOptions, PipelineDesign};
use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::insn::{Instruction, Operand};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_ebpf::Program;
use ehdl_rng::Rng;

/// Read/write resource sets of one instruction, collected from
/// `ddg::visit_effects`: the full lists the reference rules below work
/// on, where the compiler keeps them inline.
#[derive(Debug, Clone, Default)]
struct Effects {
    reads: Vec<Resource>,
    writes: Vec<Resource>,
}

fn effects(insn: &LabeledInsn) -> Effects {
    let mut e = Effects::default();
    ddg::visit_effects(insn, |r, write| if write { e.writes.push(r) } else { e.reads.push(r) });
    e
}

/// A random pure-ALU instruction on registers r0-r5.
#[derive(Debug, Clone, Copy)]
enum RandAlu {
    MovImm(u8, i32),
    AluImm(u8, u8, i32),
    AluReg(u8, u8, u8),
}

fn rand_alu(rng: &mut Rng) -> RandAlu {
    match rng.gen_index(3) {
        0 => RandAlu::MovImm(rng.gen_index(6) as u8, rng.gen_i32()),
        1 => RandAlu::AluImm(rng.gen_index(8) as u8, rng.gen_index(6) as u8, rng.gen_i32()),
        _ => {
            RandAlu::AluReg(rng.gen_index(8) as u8, rng.gen_index(6) as u8, rng.gen_index(6) as u8)
        }
    }
}

fn rand_alu_vec(rng: &mut Rng, max_len: usize) -> Vec<RandAlu> {
    let n = rng.gen_range_u64(1, max_len as u64) as usize;
    (0..n).map(|_| rand_alu(rng)).collect()
}

const OPS: [AluOp; 8] =
    [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Lsh, AluOp::Rsh];

fn build_program(ops: &[RandAlu]) -> Program {
    let mut a = Asm::new();
    for op in ops {
        match *op {
            RandAlu::MovImm(r, i) => {
                a.mov64_imm(r, i);
            }
            RandAlu::AluImm(op, r, i) => {
                a.alu64_imm(OPS[op as usize], r, i);
            }
            RandAlu::AluReg(op, d, s) => {
                a.alu64_reg(OPS[op as usize], d, s);
            }
        }
    }
    a.mov64_imm(0, 2);
    a.exit();
    Program::from_insns(a.into_insns())
}

/// Registers an op reads/writes (mirror of the scheduler's model, kept
/// deliberately simple for the test oracle).
fn rw_of(insn: &HwInsn) -> (Vec<u8>, Vec<u8>) {
    match *insn {
        HwInsn::Alu3 { dst, a, b, .. } => {
            let mut reads = vec![a];
            if let Operand::Reg(r) = b {
                reads.push(r);
            }
            (reads, vec![dst])
        }
        HwInsn::Simple(Instruction::Alu { op, dst, src, .. }) => {
            let mut reads = if op == AluOp::Mov { vec![] } else { vec![dst] };
            if let Operand::Reg(r) = src {
                reads.push(r);
            }
            (reads, vec![dst])
        }
        HwInsn::Simple(Instruction::Exit) => (vec![0], vec![]),
        _ => (vec![], vec![]),
    }
}

/// Every compiled schedule places a RAW/WAW-dependent instruction in a
/// strictly later stage than its producer, within each block.
#[test]
fn schedule_respects_hard_deps() {
    let mut rng = Rng::seed_from_u64(0xdeb5);
    for _ in 0..128 {
        let ops = rand_alu_vec(&mut rng, 59);
        let program = build_program(&ops);
        let design = Compiler::new().compile(&program).unwrap();
        // Straight-line ALU program: everything is in one block; walk the
        // stages and track, per register, the last stage that wrote it.
        let mut last_write: [Option<usize>; 11] = [None; 11];
        for (s, stage) in design.stages.iter().enumerate() {
            // Within a stage: reads observe the incoming state, so compare
            // against writes from strictly earlier stages only.
            for op in &stage.ops {
                let (reads, _) = rw_of(&op.insn);
                for r in reads {
                    if let Some(w) = last_write[r as usize] {
                        assert!(w < s, "read of r{r} at stage {s} must follow its write at {w}");
                    }
                }
            }
            for op in &stage.ops {
                let (_, writes) = rw_of(&op.insn);
                for r in writes {
                    // WAW within one stage is forbidden.
                    assert!(last_write[r as usize] != Some(s), "two writes of r{r} in stage {s}");
                    last_write[r as usize] = Some(s);
                }
            }
        }
    }
}

/// Disabling optimizations never changes the number of exit stages and
/// never produces an empty pipeline; stage counts are ordered.
#[test]
fn option_monotonicity() {
    let mut rng = Rng::seed_from_u64(0x0b70);
    for _ in 0..128 {
        let ops = rand_alu_vec(&mut rng, 39);
        let program = build_program(&ops);
        let full = Compiler::new().compile(&program).unwrap();
        let nopar =
            Compiler::with_options(CompilerOptions { parallelize: false, ..Default::default() })
                .compile(&program)
                .unwrap();
        let nofuse = Compiler::with_options(CompilerOptions {
            fusion: false,
            dce: false,
            ..Default::default()
        })
        .compile(&program)
        .unwrap();
        assert!(full.stage_count() >= 1);
        assert!(full.stage_count() <= nopar.stage_count());
        assert!(full.stats.hw_insns <= nofuse.stats.hw_insns);
        assert_eq!(full.exit_stages().len(), 1);
    }
}

/// Pruned liveness is a subset of the unpruned (full) state, and the
/// pruned design never carries registers the analysis says are dead.
#[test]
fn prune_is_subset() {
    let mut rng = Rng::seed_from_u64(0x9205);
    for _ in 0..128 {
        let ops = rand_alu_vec(&mut rng, 39);
        let program = build_program(&ops);
        let design = Compiler::new().compile(&program).unwrap();
        for mask in &design.prune.live_regs {
            assert_eq!(mask & !0x7ff, 0, "only r0-r10 exist");
        }
        // r10 is never written, so it can only be live where used; the
        // final stage (exit) needs nothing but r0.
        let last = *design.prune.live_regs.last().unwrap();
        assert_eq!(last & !1, 0, "exit stage carries at most r0");
    }
}

/// State slots of the §4.3 rule's reference: r0-r10, then 512 stack bytes.
const SLOTS: usize = 11 + 512;

/// The slots a resource names. A write through an unknown stack offset
/// names none (it can end no lifetime); a read through one names them all.
fn slots_of(res: Resource, write: bool) -> std::ops::Range<usize> {
    match res {
        Resource::Reg(r) => r as usize..r as usize + 1,
        Resource::Stack(iv) if iv.is_top() => 11..if write { 11 } else { SLOTS },
        Resource::Stack(iv) if iv.hi >= -512 && iv.lo < 0 => {
            (iv.lo.max(-512) + 523) as usize..(iv.hi.min(-1) + 524) as usize
        }
        _ => 0..0,
    }
}

/// §4.3 as written, one boolean per (slot, block): walking the stages
/// backwards, "a write kills a pending use only if its block dominates the
/// waiting block", then every read is a pending use of its own block; a
/// slot is live while any block waits. `b` dominates `u` when `u` cannot
/// be reached from the entry without passing `b`.
fn naive_liveness(d: &PipelineDesign) -> (Vec<u16>, Vec<usize>, Vec<[u64; 8]>) {
    let nb = d.blocks.len();
    let dominates: Vec<Vec<bool>> = (0..nb)
        .map(|b| {
            let mut reached = vec![false; nb];
            let mut todo = if b == 0 { vec![] } else { vec![0] };
            while let Some(x) = todo.pop() {
                if !std::mem::replace(&mut reached[x], true) {
                    let succs = (0..nb).filter(|&s| d.blocks[s].preds.iter().any(|&(p, _)| p == x));
                    todo.extend(succs.filter(|&s| s != b));
                }
            }
            reached.iter().map(|r| !r).collect()
        })
        .collect();
    let mut pending = vec![vec![false; nb]; SLOTS];
    let mut out = (vec![], vec![], vec![]);
    for stage in d.stages.iter().rev() {
        let effs: Vec<_> = stage.ops.iter().map(effects).collect();
        for w in effs.iter().flat_map(|e| &e.writes) {
            for slot in slots_of(*w, true) {
                for u in 0..nb {
                    pending[slot][u] &= !dominates[stage.block][u];
                }
            }
        }
        for r in effs.iter().flat_map(|e| &e.reads) {
            for slot in slots_of(*r, false) {
                pending[slot][stage.block] = true;
            }
        }
        let live: Vec<bool> = pending.iter().map(|p| p.contains(&true)).collect();
        out.0.push((0..11).fold(0u16, |m, r| m | u16::from(live[r]) << r));
        let mut bits = [0u64; 8];
        for s in (0..512).filter(|&s| live[11 + s]) {
            bits[s / 64] |= 1 << (s % 64);
        }
        out.1.push(bits.iter().map(|w| w.count_ones() as usize).sum());
        out.2.push(bits);
    }
    out.0.reverse();
    out.1.reverse();
    out.2.reverse();
    out
}

fn assert_liveness_matches(program: &Program) -> PipelineDesign {
    let d = Compiler::new().compile(program).unwrap();
    let (regs, bytes, stack) = naive_liveness(&d);
    assert_eq!(d.prune.live_regs, regs, "{}: live_regs", d.name);
    assert_eq!(d.prune.live_stack_bytes, bytes, "{}: live_stack_bytes", d.name);
    assert_eq!(d.prune.live_stack, stack, "{}: live_stack", d.name);
    d
}

/// A ladder of `rungs` undecidable branches, each guarding a predicated
/// register write and a predicated stack store whose old values are read
/// after the ladder: two blocks per rung, and pending uses that only the
/// dominating stores in the entry block may kill.
fn branch_ladder(rungs: usize) -> Program {
    let mut a = Asm::new();
    a.load(MemSize::W, 2, 1, 8);
    a.mov64_imm(3, 7);
    a.store_reg(MemSize::Dw, 10, -8, 3);
    a.store_reg(MemSize::Dw, 10, -16, 3);
    for k in 0..rungs {
        let skip = a.new_label();
        a.jmp_imm(JmpOp::Jeq, 2, k as i32, skip);
        a.alu64_imm(AluOp::Add, 3, 1);
        a.store_reg(MemSize::W, 10, if k % 2 == 0 { -8 } else { -12 }, 3);
        a.bind(skip);
    }
    a.load(MemSize::Dw, 4, 10, -8);
    a.load(MemSize::Dw, 5, 10, -16);
    a.alu64_reg(AluOp::Add, 4, 5);
    a.alu64_reg(AluOp::Add, 4, 3);
    a.mov64_reg(0, 4);
    a.alu64_imm(AluOp::And, 0, 1);
    a.exit();
    Program::from_insns(a.into_insns())
}

/// `prune::analyze` (block bitsets, incremental live masks) gives, field
/// for field, what the per-(slot, block) reference gives: on the bundled
/// programs, on random straight-line programs, and on control flow wide
/// enough that a block set spans more than one word.
#[test]
fn liveness_matches_naive_reference() {
    let mut zoo: Vec<Program> = ehdl_programs::App::ALL.iter().map(|a| a.program()).collect();
    zoo.push(ehdl_programs::toy_counter::program());
    zoo.push(ehdl_programs::leaky_bucket::program());
    for program in &zoo {
        assert_liveness_matches(program);
    }
    let mut rng = Rng::seed_from_u64(0x9205);
    for _ in 0..128 {
        assert_liveness_matches(&build_program(&rand_alu_vec(&mut rng, 39)));
    }
    for rungs in [1, 31, 40, 70] {
        let d = assert_liveness_matches(&branch_ladder(rungs));
        assert!(d.blocks.len() > 2 * rungs, "{} blocks for {rungs} rungs", d.blocks.len());
        assert!(d.prune.total_stack_bytes() > 0 && d.prune.total_reg_slots() > 0);
    }
}

/// The dependency rule `ddg::build` implements, written pairwise over the
/// full effect lists: RAW or WAW is hard, WAR soft.
fn reference_depends(a: &Effects, b: &Effects) -> Option<DepKind> {
    let any =
        |xs: &[Resource], ys: &[Resource]| xs.iter().any(|x| ys.iter().any(|y| x.conflicts(*y)));
    if any(&a.writes, &b.reads) || any(&b.writes, &a.writes) {
        Some(DepKind::Hard)
    } else if any(&b.writes, &a.reads) {
        Some(DepKind::Soft)
    } else {
        None
    }
}

fn assert_ddg_matches_reference(program: &Program) {
    use ehdl_core::cfg::Cfg;
    use ehdl_core::fusion::lower;
    use ehdl_core::label::label;
    use ehdl_core::CompilerOptions;
    let decoded = program.decode().unwrap();
    let cfg = Cfg::build(&decoded);
    let (lab, _) = label(program, &decoded).unwrap();
    let plain = CompilerOptions {
        fusion: false,
        dce: false,
        elide_bounds_checks: false,
        ..Default::default()
    };
    for opts in [CompilerOptions::default(), plain] {
        let lowered = lower(&decoded, &lab, cfg.clone(), &opts);
        for (insns, got) in lowered.blocks.iter().zip(ddg::build(&lowered)) {
            let eff: Vec<Effects> = insns.iter().map(effects).collect();
            for j in 0..eff.len() {
                let want: Vec<(usize, DepKind)> = (0..j)
                    .filter_map(|i| reference_depends(&eff[i], &eff[j]).map(|k| (i, k)))
                    .collect();
                assert_eq!(got[j], want[..], "{}: insn {j}", program.name);
            }
        }
    }
}

/// `ddg::build` (register masks, then the memory lists) gives exactly the
/// edge lists of the pairwise rule, on the bundled programs, random
/// straight-line programs and branch ladders.
#[test]
fn ddg_matches_pairwise_reference() {
    let mut zoo: Vec<Program> = ehdl_programs::App::ALL.iter().map(|a| a.program()).collect();
    zoo.push(ehdl_programs::toy_counter::program());
    zoo.push(ehdl_programs::leaky_bucket::program());
    for program in &zoo {
        assert_ddg_matches_reference(program);
    }
    let mut rng = Rng::seed_from_u64(0xdd9);
    for _ in 0..128 {
        assert_ddg_matches_reference(&build_program(&rand_alu_vec(&mut rng, 59)));
    }
    for rungs in [1, 7, 31] {
        assert_ddg_matches_reference(&branch_ladder(rungs));
    }
}

/// Framing: a single load at packet offset `off` in the first stage
/// forces exactly `off / frame_size` wait stages.
#[test]
fn framing_wait_count() {
    let mut rng = Rng::seed_from_u64(0xf4a3);
    for _ in 0..128 {
        let off = rng.gen_range_u64(0, 1399) as i64;
        let frame_size = [32usize, 64, 128][rng.gen_index(3)];
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, off as i16);
        a.mov64_imm(0, 2);
        a.exit();
        let program = Program::from_insns(a.into_insns());
        let design = Compiler::with_options(CompilerOptions { frame_size, ..Default::default() })
            .compile(&program)
            .unwrap();
        let frame = off as usize / frame_size;
        // The load lands in stage 1 (after the ctx load) at the earliest;
        // waits are needed only if the frame arrives later than that.
        let expected = frame.saturating_sub(1);
        assert_eq!(design.framing.wait_stages, expected);
        assert_eq!(design.framing.max_bypass, frame);
    }
}

/// Analytical model: flush probability increases with the window and
/// decreases with flow count; throughput decreases with both K and pf.
#[test]
fn analytical_monotone() {
    let mut rng = Rng::seed_from_u64(0xa117);
    for _ in 0..128 {
        let l = rng.gen_range_u64(2, 29) as usize;
        let n = rng.gen_range_u64(100, 99_999) as usize;
        let k = rng.gen_range_u64(1, 199) as usize;
        let pf1 = analytical::p_flush_zipf(l, n);
        let pf2 = analytical::p_flush_zipf(l + 1, n);
        assert!(pf2 >= pf1 - 1e-12);
        let pu1 = analytical::p_flush_uniform(l, n);
        let pu2 = analytical::p_flush_uniform(l, n * 2);
        assert!(pu2 <= pu1 + 1e-12);
        let t1 = analytical::throughput(analytical::PEAK_PPS, k, pf1);
        let t2 = analytical::throughput(analytical::PEAK_PPS, k + 1, pf1);
        assert!(t2 <= t1 + 1e-9);
        assert!(t1 <= analytical::PEAK_PPS + 1e-9);
    }
}

/// The VHDL emitter always produces a well-formed skeleton.
#[test]
fn vhdl_always_well_formed() {
    let mut rng = Rng::seed_from_u64(0x7bd1);
    for _ in 0..128 {
        let ops = rand_alu_vec(&mut rng, 29);
        let program = build_program(&ops);
        let design = Compiler::new().compile(&program).unwrap();
        let v = ehdl_core::vhdl::emit(&design);
        assert!(v.contains("entity"));
        assert!(v.contains("end architecture rtl;"));
        assert_eq!(v.matches("rising_edge(clk)").count(), design.stage_count());
    }
}
