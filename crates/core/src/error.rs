//! Compiler error type.

use ehdl_ebpf::insn::DecodeError;
use ehdl_ebpf::verifier::VerifyError;
use std::fmt;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program failed static verification.
    Verify(VerifyError),
    /// Bytecode decode failure.
    Decode(DecodeError),
    /// A backward jump could not be unrolled as a bounded loop.
    UnsupportedLoop {
        /// Slot of the back-edge jump.
        pc: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Loop trip count exceeds the unroll budget.
    UnrollBudget {
        /// Slot of the back-edge jump.
        pc: usize,
        /// Detected trip count.
        trips: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A memory access whose region could not be classified.
    UnclassifiedAccess {
        /// Slot of the offending instruction.
        pc: usize,
    },
    /// A stack access at a statically unknown offset.
    DynamicStackAccess {
        /// Slot of the offending instruction.
        pc: usize,
    },
    /// Helper not implementable in hardware.
    UnsupportedHelper {
        /// Helper id.
        helper: u32,
        /// Slot of the call.
        pc: usize,
    },
    /// The abstract interpretation that labels the program outgrew its
    /// work budget before reaching a fixpoint.
    AnalysisBudget,
    /// The finished design violates a pipeline invariant (`invcheck`):
    /// a compiler bug, surfaced statically instead of as silent
    /// miscomputation in hardware.
    Invariant {
        /// The violated rules, citing stage/instruction.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Verify(e) => write!(f, "verification failed: {e}"),
            CompileError::Decode(e) => write!(f, "decode failed: {e}"),
            CompileError::UnsupportedLoop { pc, reason } => {
                write!(f, "backward jump at {pc} is not an unrollable bounded loop: {reason}")
            }
            CompileError::UnrollBudget { pc, trips, max } => {
                write!(f, "loop at {pc} needs {trips} iterations, budget is {max}")
            }
            CompileError::UnclassifiedAccess { pc } => {
                write!(f, "memory access at {pc} could not be labeled with a memory area")
            }
            CompileError::DynamicStackAccess { pc } => {
                write!(f, "stack access at {pc} has a dynamic offset")
            }
            CompileError::UnsupportedHelper { helper, pc } => {
                write!(f, "helper {helper} (called at {pc}) has no hardware block")
            }
            CompileError::AnalysisBudget => {
                write!(f, "value analysis exceeded its work budget; the program is too large")
            }
            CompileError::Invariant { detail } => {
                write!(f, "pipeline invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> CompileError {
        CompileError::Verify(e)
    }
}

impl From<DecodeError> for CompileError {
    fn from(e: DecodeError) -> CompileError {
        CompileError::Decode(e)
    }
}
