//! Sharding-soundness effectiveness tracker: how much of the evaluation
//! app zoo the `ehdl_core::shardcheck` pass classifies with zero manual
//! hints, how many maps it proves merge-exact, and whether its static
//! verdicts agree with the dynamic differential checker. Recorded as
//! `BENCH_shardcheck.json` so a precision regression — a key-provenance
//! proof accidentally lost, a commutativity class widened to `OpaqueRmw`
//! — fails `cargo test` instead of silently forcing hand-written
//! sharding configs back in.

use crate::record::Fields;
use ehdl_core::shardcheck::{MergePolicy, ShardError};
use ehdl_core::{Compiler, CompilerOptions};
use ehdl_hwsim::diff::{check, Device, Scenario};
use ehdl_hwsim::{fabric_from_plan, Divergence};
use ehdl_programs::App;
use ehdl_runtime::json::Json;

/// Packets per dynamic agreement run. Small: the point is exercising
/// every map's merge path against the sequential reference, not steady
/// state.
const AGREE_PACKETS: usize = 256;

/// Per-app verdict summary of the sharding-soundness pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Application name.
    pub app: String,
    /// Maps in the compiled design.
    pub maps: usize,
    /// Maps classified into a multi-replica-deployable class (anything
    /// but `OpaqueRmw`) with zero manual hints.
    pub sound_maps: usize,
    /// Maps proven `vm_exact` — merged/shared contents must bit-match
    /// the sequential reference on any trace.
    pub exact_maps: usize,
    /// Maps the plan places behind the shared fabric.
    pub shared_maps: usize,
    /// Statically pre-assigned fabric bank count (fabric default when
    /// nothing is shared).
    pub fabric_banks: u32,
    /// Exactness claims checked against the differential harness
    /// (maps × replica counts).
    pub agreement_checks: usize,
    /// Claims the dynamic run contradicted (must stay zero).
    pub agreement_failures: usize,
}

/// Compile every evaluation app, tabulate its verified `ShardPlan`, and
/// replay a short trace through the sharded differential harness at 2
/// and 4 replicas to count verdict/checker disagreements.
///
/// # Panics
///
/// Panics if an app fails to compile, arrives unanalyzed, or cannot be
/// proven sound at multiple replicas — the zero-hint contract over the
/// app zoo is a hard property, not measurement noise.
pub fn measure() -> Vec<ShardRow> {
    crate::par_map(&App::ALL, |&app| row_for(app))
}

fn row_for(app: App) -> ShardRow {
    let program = app.program();
    let design = crate::design_of(app);
    let plan = design.shard.clone();
    assert!(plan.analyzed, "{}: design must carry an analyzed shard plan", app.name());
    let packets = crate::eval_packets(app, AGREE_PACKETS);
    let mut agreement_checks = 0;
    let mut agreement_failures = 0;
    for replicas in [2usize, 4] {
        plan.require_sound(replicas)
            .unwrap_or_else(|e| panic!("{} must shard zero-hint: {e:?}", app.name()));
        let (fabric, merge) = (fabric_from_plan(&plan), plan.merge_policies());
        let report = check(&Scenario {
            setup: &|maps| crate::setup_app(app, maps),
            device: Device::Replicas { n: replicas, seed: 7, fabric, merge, faults: None },
            ..Scenario::new(&program, &design, &packets)
        });
        agreement_checks += plan.maps.len();
        for d in &report.divergences {
            let contradicted = match d {
                // A divergence on a map proven exact is a broken proof.
                Divergence::Map { map } => plan.map(*map).is_none_or(|m| m.vm_exact),
                // Packet rewrites may differ only when some map is
                // allowed to hold different (still-sound) contents.
                Divergence::Packet { .. } => plan.all_exact(),
                // Action/count/coherence divergences mean placement or
                // serialization is wrong, never mere inexactness.
                _ => true,
            };
            if contradicted {
                agreement_failures += 1;
            }
        }
    }
    ShardRow {
        app: app.name().to_string(),
        maps: plan.maps.len(),
        sound_maps: plan
            .maps
            .iter()
            .filter(|m| m.class != ehdl_core::shardcheck::MapClass::OpaqueRmw)
            .count(),
        exact_maps: plan.maps.iter().filter(|m| m.vm_exact).count(),
        shared_maps: plan.shared_map_ids().len(),
        fabric_banks: plan.fabric_banks(),
        agreement_checks,
        agreement_failures,
    }
}

/// A minimal unfenced read-modify-write program: const-keyed counter
/// bumped with a plain load/add/store. The one shape `shardcheck` must
/// reject outright at any replica count above one.
fn opaque_program() -> ehdl_ebpf::Program {
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
    use ehdl_ebpf::maps::{MapDef, MapKind};
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    let mut a = Asm::new();
    let out = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 42);
    a.jmp_reg(JmpOp::Jgt, 1, 8, out);
    a.mov64_imm(1, 0);
    a.store_reg(MemSize::W, 10, -4, 1);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -4);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, out);
    a.load(MemSize::Dw, 1, 0, 0);
    a.alu64_imm(AluOp::Add, 1, 1);
    a.store_reg(MemSize::Dw, 0, 0, 1);
    a.bind(out);
    a.mov64_imm(0, 2);
    a.exit();
    ehdl_ebpf::Program::new(
        "opaque_rmw",
        a.into_insns(),
        vec![MapDef::new(0, "rmw", MapKind::Array, 4, 8, 1)],
    )
}

fn variant_name(e: &ShardError) -> &'static str {
    match e {
        ShardError::NonSymmetricKey { .. } => "non_symmetric_key",
        ShardError::NonCommutativeWrite { .. } => "non_commutative_write",
        ShardError::CrossReplicaRace { .. } => "cross_replica_race",
        ShardError::Unanalyzed => "unanalyzed",
    }
}

/// Drive the pass's rejection diagnostics: deliberately unsound hand
/// configs over the app zoo (everything private-`Union`, everything
/// `SumDelta`), an analysis-disabled compile, and an unfenced RMW
/// program. Returns how many distinct [`ShardError`] variants fired —
/// the gate pins this at all four.
pub fn diagnostics_exercised() -> usize {
    let mut seen = std::collections::BTreeSet::new();
    let mut record = |errs: Vec<ShardError>| {
        for e in &errs {
            seen.insert(variant_name(e));
        }
    };
    for &app in &App::ALL {
        let plan = crate::design_of(app).shard;
        for policy in [MergePolicy::Union, MergePolicy::SumDelta] {
            let merge: Vec<(u32, MergePolicy)> =
                plan.maps.iter().map(|m| (m.map, policy)).collect();
            if let Err(errs) = plan.validate_config(2, &[], &merge) {
                record(errs);
            }
        }
    }
    let unanalyzed =
        Compiler::with_options(CompilerOptions { absint: false, ..Default::default() })
            .compile(&App::Dnat.program())
            .expect("dnat compiles without absint")
            .shard;
    if let Err(errs) = unanalyzed.require_sound(2) {
        record(errs);
    }
    let opaque = Compiler::new().compile(&opaque_program()).expect("opaque program compiles").shard;
    if let Err(errs) = opaque.require_sound(2) {
        record(errs);
    }
    seen.len()
}

impl Fields for ShardRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(&self.app);
        j.key("maps").uint(self.maps as u64);
        j.key("sound_maps").uint(self.sound_maps as u64);
        j.key("exact_maps").uint(self.exact_maps as u64);
        j.key("shared_maps").uint(self.shared_maps as u64);
        j.key("fabric_banks").uint(u64::from(self.fabric_banks));
        j.key("agreement_checks").uint(self.agreement_checks as u64);
        j.key("agreement_failures").uint(self.agreement_failures as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derived plan must reproduce what the scale-out and chaos
    /// benches used to hand-configure: DNAT's port allocator (and
    /// nothing else in the zoo) behind a single-bank fabric, flow
    /// tables union-merged, stats counters delta-merged.
    #[test]
    fn plan_reproduces_hand_written_bench_configs() {
        use ehdl_programs::dnat;
        for &app in &App::ALL {
            let plan = crate::design_of(app).shard;
            assert_eq!(
                plan.shared_map_ids(),
                crate::scale_out::shared_maps(app),
                "{}: derived shared set diverges from the hand config",
                app.name()
            );
            let (shared, merges) = crate::chaos::fabric_plan(app);
            if shared.is_empty() {
                continue;
            }
            assert_eq!(plan.shared_map_ids(), shared);
            let derived = plan.merge_policies();
            for (map, want) in merges {
                let got = derived.iter().find(|(m, _)| *m == map).map(|&(_, s)| s);
                assert_eq!(got, Some(want), "{}: map {map} merge", app.name());
            }
        }
        let plan = crate::design_of(App::Dnat).shard;
        assert_eq!(plan.shared_map_ids(), vec![dnat::PORT_ALLOC_MAP]);
        assert_eq!(plan.fabric_banks(), 1);
        let derived = plan.merge_policies();
        assert!(derived.contains(&(dnat::PORT_ALLOC_MAP, MergePolicy::Direct)));
    }
}
