//! The eHDL compiler: unmodified eBPF/XDP bytecode in, tailored hardware
//! pipeline designs (and VHDL) out.
//!
//! This is the paper's primary contribution (§3–§4). The compiler represents
//! a program as a sequence of *transformations over the program state* —
//! packet frames, eBPF registers and stack — and synthesizes one pipeline
//! stage per schedulable group of instructions:
//!
//! 1. **Program analysis & instruction labeling** ([`label`]): CFG + DDG
//!    construction, register-dependency analysis tagging every load/store
//!    with the memory area it touches (stack / packet / per-map).
//! 2. **Instruction fusion** ([`fusion`]): three-operand ALU synthesis and
//!    constant forwarding — extending the ISA per-program is free because
//!    hardware is only generated for instructions actually used (§3.2).
//! 3. **Parallelization** ([`schedule`]): instruction-level parallelism
//!    within control blocks; each schedule row becomes a pipeline stage
//!    (§3.3).
//! 4. **Control-flow enforcement** by predication: disable signals gate
//!    stages per packet; backward jumps are removed by bounded-loop
//!    unrolling ([`unroll`], §3.5).
//! 5. **Map consistency** ([`hazard`]): WAR delay buffers, RAW Flush
//!    Evaluation Blocks, and atomic-operation blocks for global state
//!    (§4.1).
//! 6. **Packet framing** ([`framing`]) and **state pruning** ([`prune`]) to
//!    minimize per-stage memory (§4.2–§4.3).
//! 7. **HDL emission** ([`vhdl`]) and a calibrated **resource model**
//!    ([`resource`]) for the Alveo U50 target.
//!
//! ```
//! use ehdl_core::Compiler;
//! use ehdl_ebpf::asm::Asm;
//! use ehdl_ebpf::Program;
//!
//! let mut a = Asm::new();
//! a.mov64_imm(0, 2);
//! a.exit();
//! let design = Compiler::new().compile(&Program::from_insns(a.into_insns()))?;
//! assert!(design.stage_count() >= 1);
//! # Ok::<(), ehdl_core::CompileError>(())
//! ```

#![deny(clippy::unwrap_used)]

pub mod analytical;
pub mod cfg;
pub mod compile;
pub mod ddg;
pub mod error;
pub mod framing;
pub mod fusion;
pub mod hazard;
pub mod hazardopt;
pub mod invcheck;
pub mod ir;
pub mod label;
pub mod pipeline;
pub mod plan;
pub mod predicate;
pub mod primitives;
pub mod prune;
pub mod resource;
pub mod schedule;
pub mod shardcheck;
pub mod unroll;
pub mod vhdl;

pub use compile::{Compiler, CompilerOptions, PassTimings};
pub use error::CompileError;
pub use pipeline::{PipelineDesign, Protection, Stage, StageOp};
pub use plan::{
    control_inventory, ControlInventory, CsrDef, FusedOp, HostMapPort, LowerError, LoweredPlan,
    LoweredStage, RegOrImm,
};
pub use resource::{ResourceEstimate, Target};
pub use shardcheck::{MapClass, MapPlan, MergePolicy, Placement, ShardError, ShardPlan};

/// Render one instruction in kernel disassembly style (jump offsets are
/// shown relative to slot 0; intended for comments and summaries).
pub fn disasm_one(i: &ehdl_ebpf::insn::Instruction) -> String {
    let d = ehdl_ebpf::insn::Decoded { pc: 0, slots: 1, insn: *i };
    ehdl_ebpf::disasm::format_insn(&d)
}
