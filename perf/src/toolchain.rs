//! The compile path every workload starts with: ELF bytes to a design,
//! and (on `toolchain_zoo` and in the traced pass) on to a lowered plan,
//! VHDL and a resource estimate.

use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::workloads::Layers;
use ehdl_core::{resource, vhdl, Compiler, LoweredPlan, PipelineDesign};
use ehdl_ebpf::{absint, elf, verifier, Program};
use ehdl_programs::{leaky_bucket, toy_counter, App};
use std::collections::BTreeMap;

/// The seven bundled programs, by the name their `core.compile_us.*`
/// metric carries.
pub fn zoo() -> Vec<(&'static str, Program)> {
    let names = ["firewall", "router", "tunnel", "dnat", "suricata"];
    let mut out: Vec<(&'static str, Program)> =
        names.into_iter().zip(App::ALL).map(|(n, app)| (n, app.program())).collect();
    out.push(("toy_counter", toy_counter::program()));
    out.push(("leaky_bucket", leaky_bucket::program()));
    out
}

/// `elf::load` + `Compiler::compile_with_report`: the part of every
/// workload's set-up that turns program bytes into a design.
///
/// # Errors
///
/// A one-line reason when the bytes do not load or compile.
pub fn build(elf_bytes: &[u8]) -> Result<PipelineDesign, String> {
    let program = elf::load(elf_bytes).map_err(|e| format!("elf::load: {e}"))?;
    let compiled = Compiler::new().compile_with_report(&program);
    compiled.map(|(design, _timings)| design).map_err(|e| format!("compile: {e}"))
}

/// `try_lower` + `vhdl::emit` + `estimate_with_shell` for one design;
/// returns the estimate's LUTs and flip-flops (shell included).
///
/// # Errors
///
/// A one-line reason when the plan does not lower.
pub fn emit(design: &PipelineDesign) -> Result<(u64, u64), String> {
    let plan = LoweredPlan::try_lower(design).map_err(|e| format!("try_lower: {e}"))?;
    std::hint::black_box(&plan);
    let text = vhdl::emit(design);
    let est = resource::estimate_with_shell(design);
    std::hint::black_box(text);
    Ok((est.luts, est.ffs))
}

/// LUTs and flip-flops of the design a bundled program compiles to.
///
/// # Panics
///
/// Panics if the program does not compile or lower: the bundled
/// programs all do, and no workload can run without its design.
pub fn design_totals(elf_bytes: &[u8]) -> (u64, u64) {
    build(elf_bytes).and_then(|design| emit(&design)).expect("bundled program compiles and lowers")
}

/// Host-time samples of the traced toolchain, per program and per
/// metric, plus the exact design counts of the last pass over each
/// program.
#[derive(Debug, Default)]
pub struct ToolSamples {
    times_us: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>>,
    designs: BTreeMap<&'static str, DesignCounts>,
}

/// Exact size counts of one compiled design.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DesignCounts {
    vhdl_bytes: u64,
    stages: u64,
    hw_insns: u64,
    febs: u64,
    flush_k: u64,
    raw_window_l: u64,
    ilp_avg: f64,
    packet_accesses: u64,
    proven_accesses: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl ToolSamples {
    fn push(&mut self, program: &'static str, metric: &'static str, value_us: f64) {
        self.times_us.entry(program).or_default().entry(metric).or_default().push(value_us);
    }

    /// The calls [`build`] and [`emit`] make, each under its own span,
    /// recording one sample per call for `program`: the same work as the
    /// untraced path, so a caller may time it as a whole.
    ///
    /// # Errors
    ///
    /// As [`build`] and [`emit`].
    pub fn traced(
        &mut self,
        tr: &mut Tracer,
        program: &'static str,
        elf_bytes: &[u8],
    ) -> Result<PipelineDesign, String> {
        let (loaded, ns) = tr.span("ebpf.elf_load", || elf::load(elf_bytes));
        let prog = loaded.map_err(|e| format!("elf::load: {e}"))?;
        self.push(program, "ebpf.elf_load_us", us(ns));

        let (compiled, ns) = tr.span("core.compile", || Compiler::new().compile_with_report(&prog));
        let (design, t) = compiled.map_err(|e| format!("compile: {e}"))?;
        self.push(program, "core.compile_us", us(ns));
        let passes = [
            ("core.pass_verify_us", t.verify),
            ("core.pass_unroll_us", t.unroll),
            ("core.pass_analyze_us", t.analyze),
            ("core.pass_absint_us", t.absint),
            ("core.pass_fuse_us", t.fuse),
            ("core.pass_schedule_us", t.schedule),
            ("core.pass_backend_us", t.backend),
        ];
        let mut in_passes = 0.0;
        for (metric, d) in passes {
            in_passes += d.as_secs_f64() * 1e6;
            self.push(program, metric, d.as_secs_f64() * 1e6);
        }
        let other = (t.total.as_secs_f64() * 1e6 - in_passes).max(0.0);
        self.push(program, "core.compile_other_us", other);

        let (plan, ns) = tr.span("core.lower", || LoweredPlan::try_lower(&design));
        std::hint::black_box(&plan.map_err(|e| format!("try_lower: {e}"))?);
        self.push(program, "core.lower_us", us(ns));

        let (text, ns) = tr.span("core.vhdl_emit", || vhdl::emit(&design));
        self.push(program, "core.vhdl_emit_us", us(ns));

        let (est, _) = tr.span("core.resource", || resource::estimate_with_shell(&design));
        std::hint::black_box(est);

        let s = &design.stats;
        self.designs.insert(
            program,
            DesignCounts {
                vhdl_bytes: text.len() as u64,
                stages: design.stage_count() as u64,
                hw_insns: s.hw_insns as u64,
                febs: design.hazards.febs.len() as u64,
                flush_k: design.hazards.max_partial_flush_depth().unwrap_or(0) as u64,
                raw_window_l: design.hazards.max_raw_window().unwrap_or(0) as u64,
                ilp_avg: s.ilp.avg,
                packet_accesses: s.packet_accesses as u64,
                proven_accesses: s.proven_accesses as u64,
            },
        );
        Ok(design)
    }

    /// The `ebpf` entry points the compiler calls internally, called
    /// standalone so each has a number of its own: extra work the
    /// untraced path does not do, so callers keep it out of timed regions.
    ///
    /// # Errors
    ///
    /// A one-line reason when the bytes do not load, verify or decode.
    pub fn traced_front_end(
        &mut self,
        tr: &mut Tracer,
        program: &'static str,
        elf_bytes: &[u8],
    ) -> Result<(), String> {
        let prog = elf::load(elf_bytes).map_err(|e| format!("elf::load: {e}"))?;
        let (verified, ns) = tr.span("ebpf.verify", || verifier::verify(&prog));
        verified.map_err(|e| format!("verify: {e}"))?;
        self.push(program, "ebpf.verify_us", us(ns));

        let (decoded, ns) = tr.span("ebpf.decode", || prog.decode());
        let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
        self.push(program, "ebpf.decode_us", us(ns));

        let (analysis, ns) = tr.span("ebpf.absint", || absint::analyze(&decoded));
        std::hint::black_box(&analysis);
        self.push(program, "ebpf.absint_us", us(ns));
        Ok(())
    }

    /// Fold the samples into the `ebpf.*` and `core.*` layer metrics:
    /// per-program medians, combined by geometric mean across programs;
    /// `core.compile_us.<program>` stays per program; design counts are
    /// summed (or maxed, or averaged, as each metric says).
    pub fn layers(&self, out: &mut Layers) {
        let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (program, metrics) in &self.times_us {
            for (metric, samples) in metrics {
                let med = median(samples);
                if *metric == "core.compile_us" {
                    if let Some(def) = crate::metrics::find(&format!("core.compile_us.{program}")) {
                        out.insert(def.name, med);
                    }
                } else {
                    per_metric.entry(metric).or_default().push(med);
                }
            }
        }
        for (metric, medians) in per_metric {
            out.insert(metric, geomean(&medians));
        }
        let d: Vec<&DesignCounts> = self.designs.values().collect();
        if d.is_empty() {
            return;
        }
        let sum = |f: fn(&DesignCounts) -> u64| d.iter().map(|c| f(c)).sum::<u64>() as f64;
        let max = |f: fn(&DesignCounts) -> u64| d.iter().map(|c| f(c)).max().unwrap_or(0) as f64;
        out.insert("core.vhdl_bytes", sum(|c| c.vhdl_bytes));
        out.insert("core.stages_sum", sum(|c| c.stages));
        out.insert("core.hw_insns_sum", sum(|c| c.hw_insns));
        out.insert("core.febs_sum", sum(|c| c.febs));
        out.insert("core.flush_k_max", max(|c| c.flush_k));
        out.insert("core.raw_window_l_max", max(|c| c.raw_window_l));
        out.insert("core.ilp_avg", d.iter().map(|c| c.ilp_avg).sum::<f64>() / d.len() as f64);
        let accesses = sum(|c| c.packet_accesses);
        if accesses > 0.0 {
            out.insert("core.proven_access_frac", sum(|c| c.proven_accesses) / accesses);
        }
    }
}
