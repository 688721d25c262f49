//! Abstract-interpretation effectiveness tracker: how many packet accesses
//! the `ehdl_ebpf::absint` pass proves in-bounds per evaluation app, and
//! what the proofs save in estimated FPGA resources. Recorded as
//! `BENCH_absint.json` so an analysis-precision regression — a transfer
//! function accidentally widened to TOP — fails `cargo test` instead of
//! silently re-guarding every access.

use crate::record::Fields;
use ehdl_core::{invcheck, resource, Compiler, CompilerOptions};
use ehdl_programs::App;
use ehdl_runtime::json::Json;

/// Per-app effectiveness of the value analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsintRow {
    /// Application name.
    pub app: String,
    /// Packet accesses in the compiled design's source program.
    pub packet_accesses: usize,
    /// How many the analysis proved in-bounds (compiled unguarded).
    pub proven_accesses: usize,
    /// Conditional branches decided statically and cut.
    pub decided_branches: usize,
    /// Estimated LUTs with the analysis on.
    pub luts: u64,
    /// Estimated LUTs with the analysis off (guard-everything baseline).
    pub luts_baseline: u64,
    /// Estimated FFs with the analysis on.
    pub ffs: u64,
    /// Estimated FFs with the analysis off.
    pub ffs_baseline: u64,
}

impl AbsintRow {
    /// Fraction of packet accesses proven in-bounds (1.0 when the app has
    /// none).
    pub fn proven_fraction(&self) -> f64 {
        if self.packet_accesses == 0 {
            1.0
        } else {
            self.proven_accesses as f64 / self.packet_accesses as f64
        }
    }
}

/// Compile every evaluation app with the analysis on and off, run the
/// pipeline invariant checker over each produced design, and tabulate
/// proven-access counts and resource savings.
///
/// # Panics
///
/// Panics if an app fails to compile or its design violates a pipeline
/// invariant — both are hard correctness bugs, not measurement noise.
pub fn measure() -> Vec<AbsintRow> {
    App::ALL
        .iter()
        .map(|&app| {
            let program = app.program();
            let on = Compiler::new().compile(&program).expect("app compiles");
            let off =
                Compiler::with_options(CompilerOptions { absint: false, ..Default::default() })
                    .compile(&program)
                    .expect("app compiles without absint");
            for design in [&on, &off] {
                if let Err(vs) = invcheck::check(design) {
                    let msgs: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                    panic!("{}: invariant violations: {}", app.name(), msgs.join("; "));
                }
            }
            let est_on = resource::estimate_pipeline(&on);
            let est_off = resource::estimate_pipeline(&off);
            AbsintRow {
                app: app.name().to_string(),
                packet_accesses: on.stats.packet_accesses,
                proven_accesses: on.stats.proven_accesses,
                decided_branches: on.stats.decided_branches,
                luts: est_on.luts,
                luts_baseline: est_off.luts,
                ffs: est_on.ffs,
                ffs_baseline: est_off.ffs,
            }
        })
        .collect()
}

impl Fields for AbsintRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("packet_accesses").uint(self.packet_accesses as u64);
        j.key("proven_accesses").uint(self.proven_accesses as u64);
        j.key("decided_branches").uint(self.decided_branches as u64);
        j.key("luts").uint(self.luts);
        j.key("luts_baseline").uint(self.luts_baseline);
        j.key("ffs").uint(self.ffs);
        j.key("ffs_baseline").uint(self.ffs_baseline);
    }
}
