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

    // Sec. 2.4: several XDP programs may be loaded at once. Pruned
    // pipelines are small enough that three of them share one shell on
    // the U50 comfortably.
    let shell = resource::ResourceEstimate {
        luts: resource::cost::SHELL_LUTS,
        ffs: resource::cost::SHELL_FFS,
        brams: resource::cost::SHELL_BRAMS,
    };
    let u = [App::Firewall, App::Router, App::Tunnel]
        .iter()
        .map(|a| resource::estimate_pipeline(&Compiler::new().compile(&a.program()).unwrap()))
        .fold(shell, resource::ResourceEstimate::plus)
        .utilization(Target::ALVEO_U50);
    assert!(u.luts < 0.25, "three pipelines + shell at {:.1}% LUTs", u.luts * 100.0);
    assert!(u.brams < 0.60, "three pipelines + shell at {:.1}% BRAM", u.brams * 100.0);
}

#[test]
fn vhdl_emits_for_all_apps() {
    for app in App::ALL {
        let design = Compiler::new().compile(&app.program()).unwrap();
        let v = ehdl::core::vhdl::emit(&design);
        assert!(v.contains("entity"), "{app}");
        assert!(v.contains("architecture rtl"), "{app}");
        assert!(v.len() > 1000, "{app}: VHDL suspiciously short");
        check_enable_section(&design, &v);
    }
}

/// The pipeline architecture's enable section: `(signals declared before
/// its begin, the section's assignment lines)`.
fn enable_section(v: &str) -> (Vec<&str>, Vec<&str>) {
    let arch = &v[v.find("architecture rtl of").unwrap()..];
    let (decls, body) = arch.split_once("\nbegin\n").unwrap();
    let declared = decls
        .lines()
        .filter_map(|l| l.trim().strip_prefix("signal "))
        .flat_map(|l| l.split(':').next().unwrap().split(','))
        .map(str::trim)
        .collect();
    let section = body.split("-- Predication").nth(1).unwrap();
    let section = &section[..section.find("\n\n").unwrap()];
    let assigns = section.lines().filter(|l| l.contains("<=")).collect();
    (declared, assigns)
}

/// Every signal the enable section assigns or reads is declared; every
/// `blk{b}_en` has one term per incoming edge, each naming only earlier
/// blocks; every stage takes its block's enable.
fn check_enable_section(design: &ehdl::core::PipelineDesign, v: &str) {
    let name = &design.name;
    let (declared, assigns) = enable_section(v);
    let mut defined = vec![false; design.blocks.len()];
    let mut stages = 0;
    for line in assigns {
        let (lhs, rhs) = line.trim().trim_end_matches(';').split_once(" <= ").unwrap();
        let idents = rhs.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        for sig in std::iter::once(lhs).chain(idents.filter(|t| t.starts_with("blk"))) {
            assert!(declared.contains(&sig), "{name}: `{sig}` is not declared ({line})");
        }
        let block = |sig: &str| -> usize {
            sig.strip_prefix("blk").unwrap().split('_').next().unwrap().parse().unwrap()
        };
        if lhs.starts_with("st") {
            let stage: usize = lhs[2..lhs.len() - 3].parse().unwrap();
            assert_eq!(stage, stages, "{name}: stage enables in order");
            assert_eq!(rhs, format!("blk{}_en", design.stages[stage].block), "{name}");
            stages += 1;
            continue;
        }
        let b = block(lhs);
        assert!(!defined[b], "{name}: {lhs} assigned twice");
        defined[b] = true;
        if b == 0 {
            assert_eq!(rhs, "'1'", "{name}");
            continue;
        }
        let terms: Vec<&str> = rhs.split(" or ").collect();
        assert_eq!(terms.len(), design.blocks[b].preds.len(), "{name}: {line}");
        for (term, &(p, _)) in terms.iter().zip(&design.blocks[b].preds) {
            let named: Vec<usize> = term
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|t| t.starts_with("blk"))
                .map(block)
                .collect();
            assert!(named.iter().all(|&q| q == p && q < b), "{name}: {line}");
        }
    }
    assert_eq!(stages, design.stage_count(), "{name}");
    for s in &design.stages {
        assert!(defined[s.block], "{name}: block {} has stages but no enable", s.block);
    }
}

/// `k` data-dependent if/else diamonds in sequence, each branching on a
/// fresh `bpf_get_prandom_u32` with `jset`: 2^k paths reach the last join.
fn diamond_chain(k: usize) -> ehdl::ebpf::Program {
    use ehdl::ebpf::asm::Asm;
    use ehdl::ebpf::helpers::BPF_GET_PRANDOM_U32;
    use ehdl::ebpf::opcode::{AluOp, JmpOp};
    let mut a = Asm::new();
    a.mov64_imm(6, 0);
    for i in 0..k as i32 {
        let els = a.new_label();
        let join = a.new_label();
        a.call(BPF_GET_PRANDOM_U32);
        a.jmp_imm(JmpOp::Jset, 0, 1, els);
        a.alu64_imm(AluOp::Add, 6, i + 1);
        a.jmp(join);
        a.bind(els);
        a.alu64_imm(AluOp::Xor, 6, i + 1);
        a.bind(join);
    }
    a.mov64_reg(0, 6);
    a.alu64_imm(AluOp::And, 0, 3);
    a.exit();
    ehdl::ebpf::Program::from_insns(a.into_insns())
}

/// `k` sequential diamonds give the last blocks 2^k paths from the entry;
/// the VHDL and the summary print one enable term per edge, so both stay
/// linear in blocks + stages and emit stays in milliseconds.
#[test]
fn enable_text_is_linear_in_sequential_branches() {
    for k in [16, 64] {
        let design = Compiler::new().compile(&diamond_chain(k)).unwrap();
        assert!(design.blocks.len() > 3 * k, "{k}: {} blocks", design.blocks.len());
        let start = std::time::Instant::now();
        let v = ehdl::core::vhdl::emit(&design);
        let emit = start.elapsed();
        let summary = design.summary();
        let size = design.blocks.len() + design.stage_count();
        assert!(v.len() < 8_192 + 512 * size, "{k}: {} B of VHDL for {size}", v.len());
        assert!(summary.len() < 64 * size, "{k}: {} B of summary for {size}", summary.len());
        assert!(emit.as_millis() < 1_000, "{k}: emit took {emit:?}");
        check_enable_section(&design, &v);
        println!(
            "{k} diamonds: {size} blocks+stages, {} B VHDL in {emit:?}, {} B summary",
            v.len(),
            summary.len()
        );
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
type Fingerprint = [u64; 12];

/// FNV-1a-64: pins a text by its bytes, not only its length.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fingerprint(
    program: &ehdl::ebpf::Program,
    options: ehdl::core::CompilerOptions,
) -> (Fingerprint, String) {
    use ehdl::core::fusion::lower;
    use ehdl::core::{cfg::Cfg, ddg, hazardopt, label::label, schedule::schedule, vhdl};
    let design = Compiler::with_options(options).compile(program).unwrap();
    let est = resource::estimate_with_shell(&design);
    let text = vhdl::emit(&design);
    // The hazard-window pass on its own, on the plain lowering.
    let decoded = program.decode().unwrap();
    let cfg = Cfg::build(&decoded);
    let (lab, _) = label(program, &decoded).unwrap();
    let lowered = lower(&decoded, &lab, cfg, &ehdl::core::CompilerOptions::default());
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
    let mut fp = [0; 12];
    fp[..11].copy_from_slice(&counts.map(|c| c as u64));
    fp[11] = fnv1a(text.as_bytes());
    (fp, text)
}

/// A bounded loop (the loop-free zoo never takes the unrolling path):
/// sum the first eight packet bytes, then count the sum's low byte in a
/// hash map with a lookup and a map-value store.
fn counted_loop_program() -> ehdl::ebpf::Program {
    use ehdl::ebpf::asm::Asm;
    use ehdl::ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
    use ehdl::ebpf::maps::{MapDef, MapKind};
    use ehdl::ebpf::opcode::{AluOp, JmpOp, MemSize};
    let mut a = Asm::new();
    let drop = a.new_label();
    let top = a.new_label();
    let miss = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 16);
    a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
    a.mov64_imm(2, 0); // induction
    a.mov64_imm(3, 0); // accumulator
    a.bind(top);
    a.mov64_reg(4, 7);
    a.alu64_reg(AluOp::Add, 4, 2);
    a.load(MemSize::B, 5, 4, 0);
    a.alu64_reg(AluOp::Add, 3, 5);
    a.alu64_imm(AluOp::Add, 2, 1);
    a.jmp_imm(JmpOp::Jlt, 2, 8, top);
    a.alu64_imm(AluOp::And, 3, 0xff);
    a.store_reg(MemSize::W, 10, -4, 3);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -4);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
    a.load(MemSize::Dw, 6, 0, 0);
    a.alu64_imm(AluOp::Add, 6, 1);
    a.store_reg(MemSize::Dw, 0, 0, 6);
    a.bind(miss);
    a.mov64_imm(0, 2);
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();
    let maps = vec![MapDef::new(0, "sums", MapKind::Hash, 4, 8, 256)];
    ehdl::ebpf::Program::new("counted_loop", a.into_insns(), maps)
}

/// The designs of the seven bundled programs, pinned: a refactor of the
/// compile path (scheduling, flush scoring, liveness, value analysis,
/// emission) that changes what comes out fails here rather than only in
/// `perf/`. The last column is the VHDL text's digest; the firewall is
/// also pinned under each protection level, whose blocks only `emit`
/// prints, and a counted loop pins the unrolling path. A change that
/// means to alter a design updates its row.
#[test]
fn bundled_designs_match_their_golden_fingerprints() {
    use ehdl::core::{CompilerOptions, Protection};
    let plain = CompilerOptions::default();
    let protect = |protect| CompilerOptions { protect, ..CompilerOptions::default() };
    let golden: [(&str, ehdl::ebpf::Program, CompilerOptions, Fingerprint); 10] = [
        (
            "firewall",
            App::Firewall.program(),
            plain,
            [54, 79, 1, 22, 26, 136, 660, 76547, 123308, 44776, 0, 0x898f_0d21_ed1e_7f14],
        ),
        (
            "firewall/parity",
            App::Firewall.program(),
            protect(Protection::Parity),
            [54, 79, 1, 22, 26, 136, 660, 79617, 128505, 54056, 0, 0xabbc_facc_5da0_a00c],
        ),
        (
            "firewall/ecc+watchdog",
            App::Firewall.program(),
            protect(Protection::EccWatchdog),
            [54, 79, 1, 22, 26, 136, 660, 80627, 128929, 57112, 0, 0xbe56_8765_51af_e1af],
        ),
        (
            "router",
            App::Router.program(),
            plain,
            [60, 87, 0, 0, 0, 218, 84, 76816, 126691, 49487, 0, 0xa55e_fd1a_b09f_a492],
        ),
        (
            "tunnel",
            App::Tunnel.program(),
            plain,
            [75, 114, 0, 0, 0, 287, 92, 80406, 137988, 62512, 0, 0xc89f_06c5_77d6_db14],
        ),
        (
            "dnat",
            App::Dnat.program(),
            plain,
            [72, 115, 1, 12, 20, 290, 548, 84543, 143537, 63852, 2, 0x2c6a_68f2_0ed5_c0c3],
        ),
        (
            "suricata",
            App::Suricata.program(),
            plain,
            [87, 112, 0, 0, 0, 247, 76, 83949, 142498, 64814, 0, 0xd09b_848d_a6e1_89f3],
        ),
        (
            "toy_counter",
            toy_counter::program(),
            plain,
            [19, 27, 0, 0, 0, 42, 48, 61411, 92959, 16946, 0, 0x1106_0b74_6a50_8800],
        ),
        (
            "leaky_bucket",
            leaky_bucket::program(),
            plain,
            [48, 69, 4, 25, 29, 153, 277, 76335, 118570, 41437, 1, 0xb358_6218_0e64_6b19],
        ),
        (
            "counted_loop",
            counted_loop_program(),
            plain,
            [35, 48, 1, 4, 8, 125, 4, 66084, 105492, 28981, 0, 0xebd3_ac0e_5816_cca1],
        ),
    ];
    let mut moved = Vec::new();
    for (name, program, options, want) in golden {
        let (got, text) = fingerprint(&program, options);
        if got != want {
            moved.push(format!("{name}: {got:?}"));
        }
        let (again, text_again) = fingerprint(&program, options);
        assert_eq!(again, got, "{name}: second compile");
        assert!(text == text_again, "{name}: two compiles emit different VHDL");
    }
    assert!(moved.is_empty(), "designs moved:\n{}", moved.join("\n"));
}

/// An order-independent digest of every field of a value analysis: the
/// packet facts sorted by pc, the decided branches in stream order, then
/// the public fields as printed.
fn analysis_digest(a: &ehdl::ebpf::absint::Analysis, decoded: &[ehdl::ebpf::insn::Decoded]) -> u64 {
    let mut facts: Vec<_> = a.facts().copied().collect();
    facts.sort_by_key(|f| f.pc);
    let branches: Vec<_> =
        decoded.iter().filter_map(|d| Some((d.pc, a.branch_outcome(d.pc)?))).collect();
    assert_eq!(branches.len(), a.decided_branches());
    let text = format!(
        "{facts:?} {branches:?} {} {} {:?} {} {:?} {:?} {:?}",
        a.packet_accesses,
        a.proven_accesses,
        a.max_proven_end,
        a.all_packet_proven,
        a.stack_slots,
        a.map_keys,
        a.map_val_accesses
    );
    fnv1a(text.as_bytes())
}

/// The value analysis of the seven bundled programs, pinned fact for
/// fact: a change to how absint joins or summarises states that alters
/// one access proof, branch outcome, slot summary or key provenance
/// fails here.
#[test]
fn bundled_programs_keep_their_value_analysis() {
    let golden: [(&str, ehdl::ebpf::Program, u64); 7] = [
        ("firewall", App::Firewall.program(), 0xa079_3679_7816_df4e),
        ("router", App::Router.program(), 0x471b_c620_e91a_29f0),
        ("tunnel", App::Tunnel.program(), 0x49de_a4ad_110e_e7f2),
        ("dnat", App::Dnat.program(), 0x687f_6685_5ae3_3b21),
        ("suricata", App::Suricata.program(), 0xcd15_122b_7021_4938),
        ("toy_counter", toy_counter::program(), 0x86a1_9c24_c9bc_2dac),
        ("leaky_bucket", leaky_bucket::program(), 0xe6a0_2073_31f2_971a),
    ];
    let mut moved = Vec::new();
    for (name, program, want) in golden {
        let decoded = program.decode().unwrap();
        let got = analysis_digest(&ehdl::ebpf::absint::analyze(&decoded), &decoded);
        if got != want {
            moved.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "analyses moved:\n{}", moved.join("\n"));
}
