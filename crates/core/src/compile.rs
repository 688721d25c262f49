//! The compiler driver: verify (the one decode) → analyze (the CFG) →
//! unroll (loops only, re-decoding what it rewrites) → absint (the one
//! abstract interpretation, with the §3.1 labels projected from its
//! register states) → fuse → schedule → assemble → frame → hazard-plan →
//! prune.

use crate::cfg::Cfg;
use crate::ddg;
use crate::error::CompileError;
use crate::framing::{self, FramingOptions};
use crate::fusion;
use crate::hazard;
use crate::hazardopt;
use crate::invcheck;
use crate::ir::{HwInsn, PacketProof};
use crate::label;
use crate::pipeline::{assemble, DesignStats, PipelineDesign, Protection};
use crate::prune;
use crate::schedule::{self, ilp_stats};
use crate::unroll;
use ehdl_ebpf::absint;
use ehdl_ebpf::insn::Instruction;
use ehdl_ebpf::verifier;
use ehdl_ebpf::Program;
use std::time::{Duration, Instant};

/// Maximum loop unroll factor (§3.5): the most iterations one loop may
/// unroll into.
const MAX_UNROLL: usize = 64;

/// Wall-clock time spent in each compiler pass. The paper quotes design
/// generation "in few seconds" (§6) — the Rust compiler is far below that;
/// the report makes the budget visible.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimings {
    /// Verification, including the compile's one decode.
    pub verify: Duration,
    /// Bounded-loop unrolling, with the decode and CFG of each rewrite;
    /// zero for a loop-free program, which skips the pass.
    pub unroll: Duration,
    /// CFG construction over the verifier's decode.
    pub analyze: Duration,
    /// The abstract interpretation and the labels projected from it.
    pub absint: Duration,
    /// Fusion + DCE.
    pub fuse: Duration,
    /// DDG + ILP scheduling.
    pub schedule: Duration,
    /// Assembly, framing, hazards, pruning.
    pub backend: Duration,
    /// End-to-end total.
    pub total: Duration,
}

/// Tunable compiler options. The defaults reproduce the paper's design
/// decisions; the flags double as the ablation switches used by the
/// evaluation benches.
#[derive(Debug, Clone, Copy)]
pub struct CompilerOptions {
    /// Packet frame size in bytes (§4.2).
    pub frame_size: usize,
    /// Enable instruction fusion (§3.2).
    pub fusion: bool,
    /// Enable dead-code elimination.
    pub dce: bool,
    /// Enable ILP parallelization (§3.3); off = one instruction per stage.
    pub parallelize: bool,
    /// Enable state pruning (§4.3); off = full state in every stage (§5.4).
    pub prune: bool,
    /// Elide packet bounds checks whose fail path is a plain drop (§4.4).
    pub elide_bounds_checks: bool,
    /// Hazard-window minimization (App. A.1): sink map reads toward their
    /// uses after ILP scheduling so `L = write − first_read` shrinks.
    /// Only takes effect with `parallelize` (the one-insn-per-stage
    /// ablation keeps source order).
    pub hazard_opt: bool,
    /// Hardening level: emit parity / SECDED-ECC / watchdog protection
    /// primitives into the design. Default is no protection (the paper's
    /// baseline); the fault-injection campaign flips this on.
    pub protect: Protection,
    /// Use the facts of the value analysis (`ehdl_ebpf::absint`): proven
    /// packet accesses compile unguarded, proven offsets cap the frame
    /// slices, narrow stack slots are not carried, and `shardcheck` gets
    /// key provenance. Off is the guard-everything ablation baseline. The
    /// analysis runs either way, since the labels are read off it, and its
    /// decided branches are cut either way: the code behind them has no
    /// labels.
    pub absint: bool,
}

impl Default for CompilerOptions {
    fn default() -> CompilerOptions {
        CompilerOptions {
            frame_size: 64,
            fusion: true,
            dce: true,
            parallelize: true,
            prune: true,
            elide_bounds_checks: true,
            hazard_opt: true,
            protect: Protection::None,
            absint: true,
        }
    }
}

/// The eHDL compiler.
///
/// ```
/// use ehdl_core::Compiler;
/// use ehdl_ebpf::asm::Asm;
/// use ehdl_ebpf::Program;
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 3); // XDP_TX
/// a.exit();
/// let design = Compiler::new().compile(&Program::from_insns(a.into_insns()))?;
/// assert!(design.stage_count() >= 1);
/// # Ok::<(), ehdl_core::CompileError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: CompilerOptions,
}

impl Compiler {
    /// A compiler with default options.
    pub fn new() -> Compiler {
        Compiler { options: CompilerOptions::default() }
    }

    /// A compiler with explicit options.
    pub fn with_options(options: CompilerOptions) -> Compiler {
        Compiler { options }
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compile `program` into a hardware pipeline design.
    ///
    /// # Errors
    ///
    /// Propagates verification failures and returns [`CompileError`] for
    /// constructs the hardware backend does not support (unbounded loops,
    /// dynamic stack addressing, unknown helpers).
    pub fn compile(&self, program: &Program) -> Result<PipelineDesign, CompileError> {
        self.compile_with_report(program).map(|(d, _)| d)
    }

    /// Compile and report per-pass wall-clock timings.
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`].
    pub fn compile_with_report(
        &self,
        program: &Program,
    ) -> Result<(PipelineDesign, PassTimings), CompileError> {
        let o = &self.options;
        let mut t = PassTimings::default();
        let t0 = Instant::now();

        // 1. Verify (bounded loops allowed: we unroll them next). Its
        // decode is the compile's decode.
        let mark = Instant::now();
        let decoded = verifier::verify(program)?.decoded;
        let source_insns = decoded.len();
        t.verify = mark.elapsed();

        // 2. Build the CFG.
        let mark = Instant::now();
        let cfg = Cfg::build(&decoded);
        t.analyze = mark.elapsed();

        // 3. Unroll bounded loops so the pipeline is strictly forward. A
        // loop-free program skips this; a looped one comes back with the
        // decode and CFG of its unrolled form.
        let unrolled;
        let (program, decoded, cfg) = if cfg.back_edges().is_empty() {
            (program, decoded, cfg)
        } else {
            let mark = Instant::now();
            unrolled = unroll::unroll(program, decoded, cfg, MAX_UNROLL)?;
            t.unroll = mark.elapsed();
            (&unrolled.program, unrolled.decoded, unrolled.cfg)
        };

        // 3b. Abstract interpretation over the unrolled stream: the §3.1
        // labels, packet bounds proofs, decided branches, frame-slice
        // narrowing.
        let mark = Instant::now();
        let (labeling, analysis) = label::label(program, &decoded)?;
        let facts = o.absint.then_some(&analysis);
        t.absint = mark.elapsed();

        // 4. Fuse / DCE / mark elidable bounds checks.
        let mark = Instant::now();
        let mut lowered = fusion::lower(&decoded, &labeling, cfg, o);
        apply_analysis(&mut lowered, &analysis, o.absint);
        t.fuse = mark.elapsed();

        // 5. Schedule (ILP within blocks), then minimize hazard windows
        // by sinking map reads into their slack (App. A.1).
        let mark = Instant::now();
        let deps = ddg::build(&lowered);
        let mut schedules = schedule::schedule(&lowered, &deps, o.parallelize);
        if o.hazard_opt && o.parallelize {
            schedules = hazardopt::optimize(&lowered, &deps, schedules);
        }
        let ilp = ilp_stats(&schedules);
        t.schedule = mark.elapsed();

        // 6-9. Assemble, frame, plan hazards, prune.
        let mark = Instant::now();
        let assembled = assemble(&lowered, schedules);
        let packet_cap = facts.filter(|an| an.all_packet_proven).and_then(|an| an.max_proven_end);
        let (stages, framing_info) = framing::apply(
            assembled.stages,
            FramingOptions { frame_size: o.frame_size, packet_cap },
        );
        let hazards = hazard::analyze(&stages);
        let prune_info = prune::analyze(&stages, &assembled.blocks, o.prune);
        t.backend = mark.elapsed();

        let stack_narrow = facts
            .map(|an| {
                an.stack_slots
                    .iter()
                    .map(|s| if s.constant.is_some() { 0 } else { s.width })
                    .collect()
            })
            .unwrap_or_default();
        let (packet_accesses, proven_accesses) =
            facts.map(|an| (an.packet_accesses, an.proven_accesses)).unwrap_or_default();
        // 10. Sharding soundness: classify every map's scale-out behavior
        // from the analysis facts (key provenance, write commutativity).
        let shard = crate::shardcheck::analyze(&program.maps, facts);
        let design = PipelineDesign {
            name: program.name.clone(),
            stages,
            blocks: assembled.blocks,
            maps: program.maps.clone(),
            hazards,
            framing: framing_info,
            prune: prune_info,
            guards: assembled.guards,
            protect: o.protect,
            stack_narrow,
            shard,
            stats: DesignStats {
                source_insns,
                hw_insns: assembled.hw_insns,
                ilp,
                packet_accesses,
                proven_accesses,
                decided_branches: analysis.decided_branches(),
            },
        };

        // 10. Static invariant check over the finished design: the
        // pipeline properties the simulator enforces dynamically must be
        // provable from the plan itself.
        invcheck::check(&design).map_err(|vs| CompileError::Invariant {
            detail: vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "),
        })?;
        t.total = t0.elapsed();

        Ok((design, t))
    }
}

/// Fold the abstract-interpretation facts into the lowered program:
/// attach proofs to proven packet accesses (when `proofs` is set) and cut
/// statically-decided branches from the control graph.
fn apply_analysis(lowered: &mut fusion::LoweredProgram, an: &absint::Analysis, proofs: bool) {
    if proofs {
        // A fact's access is labeled packet: both come from one state.
        for op in lowered.blocks.iter_mut().flatten() {
            if let Some(f) = an.packet_fact(op.pc).filter(|f| f.proven) {
                op.proof = Some(PacketProof { lo: f.lo, hi: f.hi, min_len: f.min_len });
            }
        }
    }
    for b in 0..lowered.blocks.len() {
        let crate::cfg::Terminator::Cond { taken, fall, .. } = lowered.terms[b] else {
            continue;
        };
        let Some(pos) = lowered.blocks[b].iter().position(|op| {
            matches!(op.insn, HwInsn::Simple(Instruction::Jump { cond: Some(_), .. }))
                && op.elided.is_none()
        }) else {
            continue;
        };
        let Some(outcome) = an.branch_outcome(lowered.blocks[b][pos].pc) else { continue };
        // The branch always goes one way: drop the compare and make the
        // edge unconditional; `assemble` then prunes the dead side.
        lowered.terms[b] =
            crate::cfg::Terminator::Jump { target: if outcome { taken } else { fall } };
        lowered.blocks[b].remove(pos);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ir::{Interval, MemLabel};
    use ehdl_ebpf::asm::Asm;

    #[test]
    fn trivial_program_compiles() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        assert!(d.stage_count() >= 1);
        assert_eq!(d.exit_stages().len(), 1);
        assert!(d.hazards.febs.is_empty());
    }

    #[test]
    fn report_times_every_pass() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let (d, t) =
            Compiler::new().compile_with_report(&Program::from_insns(a.into_insns())).unwrap();
        assert!(d.stage_count() >= 1);
        assert!(t.total >= t.verify);
        assert!(t.total.as_secs() < 5, "design generation stays in seconds");
    }

    #[test]
    fn unsupported_helper_rejected_cleanly() {
        // bpf_fib_lookup has no hardware block (sec. 3.4.2 covers only the
        // relevant helpers); the verifier front-end rejects it with a
        // readable error instead of generating broken hardware.
        let mut a = Asm::new();
        a.call(ehdl_ebpf::helpers::BPF_FIB_LOOKUP);
        a.exit();
        let err = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap_err();
        assert!(err.to_string().contains("helper"), "{err}");
    }

    /// A proven 4-byte packet load at offset 190 spans bytes 190-193, and
    /// bytes 192-193 arrive with the fourth 64-byte frame. The proof must
    /// not narrow the label to the offset interval: the load is placed
    /// for the same frame with and without proofs.
    #[test]
    fn a_proven_load_straddling_frames_waits_for_its_last_byte() {
        use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 200);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::W, 3, 7, 190);
        a.mov64_reg(0, 3);
        a.alu64_imm(AluOp::And, 0, 3);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::from_insns(a.into_insns());
        let placed = |absint: bool| {
            let c = Compiler::with_options(CompilerOptions { absint, ..Default::default() });
            let d = c.compile(&program).unwrap();
            let (s, op) = (d.stages.iter().enumerate())
                .flat_map(|(s, st)| st.ops.iter().map(move |op| (s, op)))
                .find(|(_, op)| matches!(op.label, MemLabel::Packet(_)))
                .unwrap();
            (op.label, op.proof.is_some(), d.framing.stage_frames[s])
        };
        let (proven, unproven) = (placed(true), placed(false));
        assert_eq!(proven, (MemLabel::Packet(Interval::new(190, 193)), true, Some(3)));
        assert_eq!((proven.0, proven.2), (unproven.0, unproven.2));
        assert!(!unproven.1);
    }

    /// Straight-line code longer than the value analysis' work budget is
    /// a typed compile error; the VM's fact checker gets no facts instead.
    #[test]
    fn analysis_budget_is_a_typed_error() {
        let mut a = Asm::new();
        for _ in 0..250_000 {
            a.mov64_imm(0, 2);
        }
        a.exit();
        let program = Program::from_insns(a.into_insns());
        let err = Compiler::new().compile(&program).unwrap_err();
        assert_eq!(err, CompileError::AnalysisBudget);
        assert!(absint::analyze(&program.decode().unwrap()).stack_slots.is_empty());
    }

    #[test]
    fn options_accessible() {
        let c = Compiler::with_options(CompilerOptions { frame_size: 32, ..Default::default() });
        assert_eq!(c.options().frame_size, 32);
    }
}
