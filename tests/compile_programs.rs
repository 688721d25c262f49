//! Integration: every evaluation program compiles into a hardware design
//! whose structure matches the paper's qualitative claims.

use ehdl::core::{resource, Compiler, Target};
use ehdl::programs::{dnat, leaky_bucket, toy_counter, App};

#[test]
fn all_apps_compile() {
    for app in App::ALL {
        let program = app.program();
        let design = Compiler::new().compile(&program).unwrap_or_else(|e| panic!("{app}: {e}"));
        assert!(design.stage_count() > 0, "{app}");
        assert!(!design.exit_stages().is_empty(), "{app}");
        println!(
            "{app:10} {:3} insns -> {:3} hw -> {:3} stages, ILP max {} avg {:.2}, {} FEB {} WAR {} atomics",
            design.stats.source_insns,
            design.stats.hw_insns,
            design.stage_count(),
            design.stats.ilp.max,
            design.stats.ilp.avg,
            design.hazards.febs.len(),
            design.hazards.war_buffers.len(),
            design.hazards.atomic_stages.len(),
        );
    }
}

#[test]
fn toy_counter_matches_figure8_shape() {
    let design = Compiler::new().compile(&toy_counter::program()).unwrap();
    // Figure 8: 20 stages for the running example; allow a band since our
    // clang-equivalent codegen differs slightly.
    let stages = design.stage_count();
    assert!((10..=32).contains(&stages), "stage count {stages}");
    // ILP is low (the program is control-heavy): max 2-3.
    assert!(design.stats.ilp.max <= 4);
    // Atomic counter handled by the atomic block, not by flushes.
    assert!(!design.hazards.atomic_stages.is_empty());
    assert!(design.hazards.febs.is_empty());
    // Stack usage pruned to the 4-byte lookup key (§4.4).
    let max_stack = design.prune.live_stack_bytes.iter().copied().max().unwrap();
    assert!(max_stack <= 8, "stack pruned to the key, got {max_stack}");
}

#[test]
fn stateful_apps_have_expected_hazard_structure() {
    // DNAT: lookup → update on the connection table ⇒ RAW FEB with a large
    // window (Table 3 reports L = 51), plus an atomic port allocator.
    let d = Compiler::new().compile(&dnat::program()).unwrap();
    assert!(!d.hazards.febs.is_empty(), "DNAT needs a FEB");
    assert!(d.hazards.max_raw_window().unwrap() >= 10);
    assert!(!d.hazards.atomic_stages.is_empty(), "port allocator is atomic");

    // Leaky bucket: non-atomizable read-modify-write ⇒ FEB.
    let d = Compiler::new().compile(&leaky_bucket::program()).unwrap();
    assert!(!d.hazards.febs.is_empty());
}

#[test]
fn resources_within_paper_band() {
    for app in App::ALL {
        let design = Compiler::new().compile(&app.program()).unwrap();
        let u = resource::estimate_with_shell(&design).utilization(Target::ALVEO_U50);
        println!(
            "{app:10} LUT {:.1}% FF {:.1}% BRAM {:.1}%",
            u.luts * 100.0,
            u.ffs * 100.0,
            u.brams * 100.0
        );
        assert!(
            (0.05..=0.16).contains(&u.luts),
            "{app}: LUT fraction {:.3} outside the 6.5-13.3% band (with margin)",
            u.luts
        );
        assert!(u.ffs < 0.30, "{app}");
        assert!(u.brams < 0.45, "{app}");
    }
}

#[test]
fn vhdl_emits_for_all_apps() {
    for app in App::ALL {
        let design = Compiler::new().compile(&app.program()).unwrap();
        let v = ehdl::core::vhdl::emit(&design);
        assert!(v.contains("entity"), "{app}");
        assert!(v.contains("architecture rtl"), "{app}");
        assert!(v.len() > 1000, "{app}: VHDL suspiciously short");
    }
}

#[test]
fn all_apps_pass_the_strict_verifier() {
    // The bundled programs are "what clang would emit": they must satisfy
    // the kernel-style definite-initialization check, including the
    // helper-call r1-r5 clobber rule.
    use ehdl::ebpf::verifier::check_initialized;
    for app in App::ALL {
        check_initialized(&app.program()).unwrap_or_else(|e| panic!("{app}: {e}"));
    }
    check_initialized(&toy_counter::program()).unwrap();
    check_initialized(&leaky_bucket::program()).unwrap();
}

#[test]
fn all_apps_roundtrip_through_elf_objects() {
    // The toolchain interface: every application serializes to a BPF ELF
    // object and loads back bit-identical; the loaded object compiles to
    // the same pipeline.
    use ehdl::ebpf::elf;
    for app in App::ALL {
        let program = app.program();
        let object = elf::write(&program);
        let loaded = elf::load(&object).unwrap_or_else(|e| panic!("{app}: {e}"));
        assert_eq!(loaded.insns, program.insns, "{app}");
        assert_eq!(loaded.maps.len(), program.maps.len(), "{app}");
        for (a, b) in loaded.maps.iter().zip(&program.maps) {
            assert_eq!(a.kind, b.kind, "{app}");
            assert_eq!(a.key_size, b.key_size, "{app}");
            assert_eq!(a.value_size, b.value_size, "{app}");
            assert_eq!(a.max_entries, b.max_entries, "{app}");
            assert_eq!(a.name, b.name, "{app}");
        }
        let d1 = Compiler::new().compile(&program).unwrap();
        let d2 = Compiler::new().compile(&loaded).unwrap();
        assert_eq!(d1.stage_count(), d2.stage_count(), "{app}");
    }
}

/// One bundled program's design, reduced to the numbers a compile-path
/// change must not move: stages, hw insns, FEBs, max `L`, max `K`,
/// carried register slots, carried stack bytes, LUTs, FFs, VHDL bytes,
/// reads sunk by the hazard-window pass.
type Fingerprint = [u64; 11];

fn fingerprint(program: &ehdl::ebpf::Program) -> (Fingerprint, String) {
    use ehdl::core::fusion::{lower, FusionOptions};
    use ehdl::core::{cfg::Cfg, ddg, hazardopt, label::label, schedule::schedule, vhdl};
    let design = Compiler::new().compile(program).unwrap();
    let est = resource::estimate_with_shell(&design);
    let text = vhdl::emit(&design);
    // The hazard-window pass on its own, on the plain lowering.
    let decoded = program.decode().unwrap();
    let cfg = Cfg::build(&decoded);
    let lab = label(program, &decoded, &cfg).unwrap();
    let lowered = lower(&decoded, &lab, &cfg, FusionOptions::default());
    let deps = ddg::build(&lowered);
    let (_, report) =
        hazardopt::optimize_with_report(&lowered, &deps, schedule(&lowered, &deps, true));
    let counts = [
        design.stage_count(),
        design.stats.hw_insns,
        design.hazards.febs.len(),
        design.hazards.max_raw_window().unwrap_or(0),
        design.hazards.max_partial_flush_depth().unwrap_or(0),
        design.prune.total_reg_slots(),
        design.prune.total_stack_bytes(),
        est.luts as usize,
        est.ffs as usize,
        text.len(),
        report.sunk_reads,
    ];
    (counts.map(|c| c as u64), text)
}

/// The designs of the seven bundled programs, pinned: a refactor of the
/// compile path (scheduling, flush scoring, liveness, value analysis,
/// emission) that changes what comes out fails here rather than only in
/// `perf/`. A change that means to alter a design updates its row.
#[test]
fn bundled_designs_match_their_golden_fingerprints() {
    let golden: [(&str, ehdl::ebpf::Program, Fingerprint); 7] = [
        (
            "firewall",
            App::Firewall.program(),
            [54, 79, 1, 22, 26, 136, 660, 76547, 123308, 53802, 0],
        ),
        ("router", App::Router.program(), [60, 87, 0, 0, 0, 218, 84, 76816, 126691, 52778, 0]),
        ("tunnel", App::Tunnel.program(), [75, 114, 0, 0, 0, 287, 92, 80406, 137988, 66557, 0]),
        ("dnat", App::Dnat.program(), [72, 115, 1, 12, 20, 290, 548, 84543, 143537, 77742, 2]),
        ("suricata", App::Suricata.program(), [87, 112, 0, 0, 0, 247, 76, 83949, 142498, 89334, 0]),
        ("toy_counter", toy_counter::program(), [19, 27, 0, 0, 0, 42, 48, 61411, 92959, 18266, 0]),
        (
            "leaky_bucket",
            leaky_bucket::program(),
            [48, 69, 4, 25, 29, 153, 277, 76335, 118570, 47528, 1],
        ),
    ];
    for (name, program, want) in golden {
        let (got, text) = fingerprint(&program);
        assert_eq!(got, want, "{name}");
        let (again, text_again) = fingerprint(&program);
        assert_eq!(again, want, "{name}: second compile");
        assert!(text == text_again, "{name}: two compiles emit different VHDL");
    }
}
