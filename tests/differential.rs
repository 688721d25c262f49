//! Differential tests: every evaluation program's compiled pipeline must
//! behave exactly like the reference VM on realistic traffic — including
//! under data hazards (same-flow bursts) where the Flush Evaluation Blocks
//! and write buffers do their work.

use ehdl::core::ddg::same_stage_dependence;
use ehdl::core::ir::{HwInsn, Interval, MapUse, MemLabel, PacketProof};
use ehdl::core::{Compiler, CompilerOptions, FusedOp, LoweredPlan, PipelineDesign, StageOp};
use ehdl::ebpf::asm::Asm;
use ehdl::ebpf::helpers::{
    BPF_FIB_LOOKUP, BPF_MAP_DELETE_ELEM, BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM,
};
use ehdl::ebpf::insn::Instruction;
use ehdl::ebpf::maps::{MapDef, MapKind, MapStore};
use ehdl::ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl::ebpf::vm::XdpAction;
use ehdl::ebpf::Program;
use ehdl::hwsim::diff::{check, Divergence, Scenario};
use ehdl::hwsim::{PipelineSim, SimOptions};
use ehdl::net::{FiveTuple, IPPROTO_UDP};
use ehdl::programs::App;
use ehdl::programs::{dnat, leaky_bucket, router, simple_firewall, suricata, toy_counter, tunnel};
use ehdl::traffic::{build_flow_packet, FlowSet, Popularity, Workload};

/// Compile `program` with `options` and demand `packets` run on one
/// pipeline exactly as on the VM, both stores set up by `setup`.
fn equivalent(
    program: &Program,
    options: CompilerOptions,
    packets: &[Vec<u8>],
    setup: &dyn Fn(&mut MapStore),
) {
    let design = Compiler::with_options(options).compile(program).expect("program compiles");
    check(&Scenario { setup, ..Scenario::new(program, &design, packets) }).assert_clean();
}

fn mixed_traffic(n: usize, seed: u64) -> Vec<Vec<u8>> {
    // Mostly UDP flows, plus a sprinkle of short/odd packets.
    let mut wl = Workload::new(FlowSet::udp(32, seed), Popularity::Zipf { alpha: 1.0 }, 64, seed);
    let mut out: Vec<Vec<u8>> = wl.packets(n);
    out.push(vec![0; 12]); // runt
    let mut arp = vec![0u8; 64];
    arp[12] = 0x08;
    arp[13] = 0x06;
    out.push(arp);
    out
}

#[test]
fn toy_counter_equivalent() {
    equivalent(
        &toy_counter::program(),
        CompilerOptions::default(),
        &mixed_traffic(200, 11),
        &|_| {},
    );
}

#[test]
fn firewall_equivalent_including_same_flow_bursts() {
    // Zipf over few flows maximizes same-flow adjacency → FEB flushes.
    let mut packets = mixed_traffic(300, 22);
    // A burst of one flow back-to-back: the worst case for the session
    // table's lookup→update window.
    let f = FiveTuple {
        saddr: [10, 0, 0, 9],
        daddr: [192, 168, 1, 1],
        sport: 777,
        dport: 53,
        proto: IPPROTO_UDP,
    };
    for _ in 0..24 {
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    equivalent(&simple_firewall::program(), CompilerOptions::default(), &packets, &|_| {});
}

#[test]
fn router_equivalent_with_host_routes() {
    let packets = mixed_traffic(250, 33);
    equivalent(&router::program(), CompilerOptions::default(), &packets, &|maps| {
        router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
        router::install_route(maps, [192, 168, 0, 0], 16, 2, [0xbb; 6], [0x02; 6]);
        router::install_route(maps, [192, 168, 7, 0], 24, 3, [0xcc; 6], [0x02; 6]);
    });
}

#[test]
fn tunnel_equivalent_with_endpoints() {
    let flows = FlowSet::udp(16, 44);
    let mut packets: Vec<Vec<u8>> =
        Workload::new(flows.clone(), Popularity::Uniform, 96, 44).packets(200);
    packets.extend(mixed_traffic(20, 45));
    let endpoints: Vec<[u8; 4]> = flows.flows().iter().take(8).map(|f| f.daddr).collect();
    equivalent(&tunnel::program(), CompilerOptions::default(), &packets, &|maps| {
        for (i, daddr) in endpoints.iter().enumerate() {
            tunnel::install_endpoint(
                maps,
                *daddr,
                [172, 16, 0, 1],
                [172, 16, (i as u8) + 1, 2],
                [0xaa, 0, 0, 0, 0, i as u8],
                [0xbb; 6],
            );
        }
    });
}

#[test]
fn dnat_equivalent_including_binding_races() {
    // New flows arriving back-to-back race on the connection table: the
    // second packet of a flow must not allocate a second binding. This is
    // exactly the DNAT hazard of Table 3 (L = 51).
    let mut packets = Vec::new();
    for flow_idx in 0..12u16 {
        let f = FiveTuple {
            saddr: [10, 0, 1, flow_idx as u8],
            daddr: [8, 8, 8, 8],
            sport: 1000 + flow_idx,
            dport: 53,
            proto: IPPROTO_UDP,
        };
        // Back-to-back packets of the same brand-new flow.
        for _ in 0..4 {
            packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
        }
    }
    packets.extend(mixed_traffic(100, 55));

    // Under racing new flows, a discarded first attempt's fetch-and-add on
    // the port allocator is not replayed — the hardware simply skips a
    // port, exactly as the paper's design would. Absolute port numbers may
    // therefore differ from the sequential reference; what must hold is
    // the NAT *invariant*: same flow → same stable port, distinct flows →
    // distinct ports, all in range, all other bytes identical — and the
    // statistics exactly (bindings happen once per flow in both).
    let program = dnat::program();
    let design = Compiler::new().compile(&program).unwrap();
    let (ignore_maps, allocated) = ehdl_bench::exemptions(App::Dnat);
    let scenario =
        Scenario { ignore_maps, allocated, ..Scenario::new(&program, &design, &packets) };
    check(&scenario).assert_clean();
}

#[test]
fn suricata_equivalent_with_rules() {
    let flows = FlowSet::tcp(24, 66);
    let blocked: Vec<FiveTuple> = flows.flows().iter().take(6).copied().collect();
    let mut packets: Vec<Vec<u8>> =
        Workload::new(flows, Popularity::Zipf { alpha: 1.0 }, 64, 66).packets(300);
    packets.extend(mixed_traffic(30, 67));
    equivalent(&suricata::program(), CompilerOptions::default(), &packets, &|maps| {
        for f in &blocked {
            suricata::install_rule(maps, f);
        }
    });
}

#[test]
fn leaky_bucket_equivalent_under_flush_pressure() {
    // All packets from a handful of flows: constant RAW hazards.
    let mut packets = Vec::new();
    for i in 0..150 {
        let f = FiveTuple {
            saddr: [10, 0, 0, (i % 3) as u8],
            daddr: [192, 168, 1, 1],
            sport: 5000 + (i % 3) as u16,
            dport: 443,
            proto: IPPROTO_UDP,
        };
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    equivalent(&leaky_bucket::program(), CompilerOptions::default(), &packets, &|_| {});
}

#[test]
fn flushes_actually_happen_and_stay_transparent() {
    // Sanity: the leaky-bucket run above must actually exercise flushing.
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).unwrap();
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    let f = FiveTuple {
        saddr: [10, 0, 0, 1],
        daddr: [192, 168, 1, 1],
        sport: 5000,
        dport: 443,
        proto: IPPROTO_UDP,
    };
    for _ in 0..50 {
        sim.enqueue(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    sim.settle(1_000_000);
    assert!(sim.counters().flushes > 0, "single-flow burst must flush");
    assert_eq!(sim.counters().completed, 50);
}

#[test]
fn ablation_options_stay_equivalent() {
    // Every ablation configuration must preserve semantics.
    let program = simple_firewall::program();
    let packets = mixed_traffic(120, 77);
    for opts in [
        CompilerOptions { fusion: false, ..Default::default() },
        CompilerOptions { parallelize: false, ..Default::default() },
        CompilerOptions { prune: false, ..Default::default() },
        CompilerOptions { elide_bounds_checks: false, ..Default::default() },
        CompilerOptions { dce: false, ..Default::default() },
        CompilerOptions { hazard_opt: false, ..Default::default() },
        CompilerOptions { frame_size: 32, ..Default::default() },
        CompilerOptions { frame_size: 128, ..Default::default() },
    ] {
        equivalent(&program, opts, &packets, &|_| {});
    }
}

#[test]
fn actions_distribute_as_expected() {
    // Cross-check a run's verdict mix against the VM, in aggregate.
    let program = simple_firewall::program();
    let design = Compiler::new().compile(&program).unwrap();
    let packets = mixed_traffic(200, 88);
    check(&Scenario::new(&program, &design, &packets)).assert_clean();
    let mut sim = PipelineSim::with_options(
        &design,
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
    );
    for p in &packets {
        sim.enqueue(p.clone());
    }
    sim.settle(10_000_000);
    let outs = sim.drain();
    let tx = outs.iter().filter(|o| o.action == XdpAction::Tx).count();
    let drop = outs.iter().filter(|o| o.action == XdpAction::Drop).count();
    assert!(tx > 0 && drop > 0, "traffic should exercise both verdicts");
}

#[test]
fn pruning_is_dynamically_sound_under_poisoning() {
    // Clobber every register and stack byte the pruning analysis declares
    // dead, at every stage boundary — the hardware equivalent of not
    // wiring them. Behaviour must be unchanged for every application.
    let poison =
        SimOptions { freeze_time_ns: Some(1000), poison_dead_state: true, ..Default::default() };
    for app in App::ALL {
        let program = app.program();
        let design = Compiler::new().compile(&program).unwrap();
        let packets = mixed_traffic(150, 99);
        // DNAT's translated ports are checked by the NAT invariant.
        let (ignore_maps, allocated) = ehdl_bench::exemptions(app);
        let report = check(&Scenario {
            setup: &|maps| {
                if app == App::Router {
                    router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
                }
                if app == App::Tunnel {
                    tunnel::install_endpoint(
                        maps,
                        [192, 168, 0, 1],
                        [1; 4],
                        [2; 4],
                        [3; 6],
                        [4; 6],
                    );
                }
                if app == App::Suricata {
                    suricata::install_rule(
                        maps,
                        &FiveTuple { saddr: [9; 4], daddr: [8; 4], sport: 1, dport: 2, proto: 17 },
                    );
                }
            },
            sim: poison,
            ignore_maps,
            allocated,
            ..Scenario::new(&program, &design, &packets)
        });
        let divs = report.divergences;
        assert!(divs.is_empty(), "{app} diverges under dead-state poisoning: {divs:?}");
    }
    // The leaky bucket exercises poisoning under flush replays as well.
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).unwrap();
    let mut packets = Vec::new();
    for i in 0..120 {
        let f = FiveTuple {
            saddr: [10, 0, 0, (i % 2) as u8],
            daddr: [192, 168, 1, 1],
            sport: 7000,
            dport: 443,
            proto: IPPROTO_UDP,
        };
        packets.push(build_flow_packet(&f, [2; 6], [3; 6], 64));
    }
    let divs = check(&Scenario { sim: poison, ..Scenario::new(&program, &design, &packets) });
    assert!(
        divs.divergences.is_empty(),
        "leaky bucket diverges under poisoning: {:?}",
        divs.divergences
    );
}

#[test]
fn exotic_atomics_equivalent() {
    // xchg, cmpxchg and fetching and/or/xor/add on a map value, across
    // many packets — the atomic block must match the VM bit-for-bit.
    use ehdl::ebpf::asm::Asm;
    use ehdl::ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
    use ehdl::ebpf::maps::{MapDef, MapKind};
    use ehdl::ebpf::opcode::{AluOp, AtomicOp, JmpOp, MemSize};

    let ops: [AtomicOp; 6] = [
        AtomicOp::Add { fetch: true },
        AtomicOp::Or { fetch: true },
        AtomicOp::And { fetch: true },
        AtomicOp::Xor { fetch: true },
        AtomicOp::Xchg,
        AtomicOp::Cmpxchg,
    ];
    for op in ops {
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_reg(6, 1);
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 16);
        a.jmp_reg(JmpOp::Jgt, 1, 8, miss);
        // key 0 -> counter cell
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.mov64_reg(9, 0);
        // operand derived from the packet so packets differ
        a.load(MemSize::B, 2, 7, 5);
        a.alu64_imm(AluOp::Or, 2, 1);
        if op == AtomicOp::Cmpxchg {
            // r0 is the expected value for cmpxchg; vary it too.
            a.mov64_imm(0, 0);
        }
        a.atomic(op, MemSize::Dw, 9, 0, 2);
        // Fold the fetched old value into the verdict.
        let fetched = if op == AtomicOp::Cmpxchg { 0 } else { 2 };
        a.mov64_reg(0, fetched);
        a.alu64_imm(AluOp::And, 0, 1);
        a.alu64_imm(AluOp::Add, 0, 2);
        a.exit();
        a.bind(miss);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::new(
            "atomics",
            a.into_insns(),
            vec![MapDef::new(0, "cell", MapKind::Array, 4, 8, 1)],
        );
        let packets: Vec<Vec<u8>> = (0..40u8)
            .map(|i| {
                let mut p = vec![0u8; 64];
                p[5] = i.wrapping_mul(37);
                p
            })
            .collect();
        equivalent(&program, CompilerOptions::default(), &packets, &|_| {});
    }
}

#[test]
fn alu32_mov32_and_jmp32_follow_the_isa_on_vm_and_pipeline() {
    // Each case starts from a register whose upper half is set, so a
    // 64-bit slip shows in the stored word. Expected values are read off
    // the ISA: 32-bit moves and ALU ops zero-extend, jmp32 compares the
    // low halves.
    let mut a = Asm::new();
    let drop = a.new_label();
    let taken = a.new_label();
    a.load(MemSize::W, 2, 1, 0);
    a.load(MemSize::W, 3, 1, 4);
    a.mov64_reg(4, 2);
    a.alu64_imm(AluOp::Add, 4, 32);
    a.jmp_reg(JmpOp::Jgt, 4, 3, drop);
    // Word 0: mov32_reg keeps the low half only.
    a.ld_imm64(5, 0xFFFF_FFFF_8000_0005);
    a.mov32_reg(6, 5);
    a.store_reg(MemSize::Dw, 2, 0, 6);
    // Word 1: 0x1_0000_0003 equals 3 in its low half, so the jump is taken.
    a.ld_imm64(7, 0x1_0000_0003);
    a.mov64_imm(8, 1);
    a.jmp32_imm(JmpOp::Jeq, 7, 3, taken);
    a.mov64_imm(8, 2);
    a.bind(taken);
    a.store_reg(MemSize::Dw, 2, 8, 8);
    // Word 2: mov32_imm -1 zero-extends.
    a.ld_imm64(9, u64::MAX);
    a.mov32_imm(9, -1);
    a.store_reg(MemSize::Dw, 2, 16, 9);
    // Word 3: the 32-bit add wraps and zero-extends.
    a.ld_imm64(1, 0xFFFF_FFFF_FFFF_FFF0);
    a.alu32_imm(AluOp::Add, 1, 0x20);
    a.store_reg(MemSize::Dw, 2, 24, 1);
    a.mov64_imm(0, 3); // XDP_TX
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1); // XDP_DROP
    a.exit();
    let program = Program::from_insns(a.into_insns());
    let want: [u64; 4] = [0x8000_0005, 1, 0xFFFF_FFFF, 0x10];

    let mut packet = vec![0xA5; 64];
    let out = ehdl::ebpf::vm::Vm::new(&program).run(&mut packet, 0).expect("program runs");
    assert_eq!(out.action, XdpAction::Tx);
    let got: Vec<u64> = packet[..32]
        .chunks(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
        .collect();
    assert_eq!(got, want);

    let packets: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64]).collect();
    equivalent(&program, CompilerOptions::default(), &packets, &|_| {});
}

/// The verifier rejects unknown helpers at load time, so splice one into an
/// already-compiled design.
#[test]
#[should_panic(expected = "does not lower: stage 0")]
fn attaching_an_unlowerable_design_panics_with_the_typed_error() {
    let mut design = Compiler::new().compile(&App::Firewall.program()).unwrap();
    design.stages[0].ops[0].insn = HwInsn::Simple(Instruction::Call { helper: BPF_FIB_LOOKUP });
    let _ = PipelineSim::new(&design);
}

/// Splice the first op of a stage into the stage before it, where it reads
/// or overwrites what that stage writes: the design no longer lowers.
#[test]
#[should_panic(expected = "depends on an earlier op of its own stage")]
fn a_hard_dependence_spliced_into_its_producers_stage_panics_at_attach() {
    let mut design = Compiler::new().compile(&App::Firewall.program()).unwrap();
    let s = (0..design.stages.len() - 1)
        .find(|&s| {
            let (a, b) = (&design.stages[s], &design.stages[s + 1]);
            let mut merged = a.ops.clone();
            merged.extend(b.ops.first());
            a.block == b.block && same_stage_dependence(&merged).is_some()
        })
        .expect("the firewall has a dependent pair in consecutive stages");
    let op = design.stages[s + 1].ops.remove(0);
    design.stages[s].ops.push(op);
    let _ = PipelineSim::new(&design);
}

/// The pipeline-side proof recheck: falsify the proof of a packet load and
/// the harness options must report it.
#[test]
fn falsified_proof_on_a_direct_stage_is_reported() {
    let program = App::Firewall.program();
    let mut design = Compiler::new().compile(&program).unwrap();
    let lp = LoweredPlan::try_lower(&design).unwrap();
    let (s, i) = (0..lp.stage_count())
        .find_map(|s| {
            let at = |op: &FusedOp| matches!(op, FusedOp::LdPkt { proven: true, .. });
            lp.stage_fused(s).iter().position(at).map(|i| (s, i))
        })
        .expect("the firewall has a proven packet load");
    design.stages[s].ops[i].proof = Some(PacketProof { lo: 0, hi: 0, min_len: 1 << 20 });

    let packets = Workload::new(FlowSet::udp(10_000, 42), Popularity::Uniform, 64, 43).packets(8);
    let scenario = Scenario::new(&program, &design, &packets);
    assert!(scenario.sim.check_proofs, "the differential harness rechecks proofs");
    let mut sim = PipelineSim::with_options(&design, scenario.sim);
    sim.enqueue(packets[0].clone());
    sim.settle(100_000);
    assert!(sim.counters().proof_violations > 0, "{:?}", sim.counters());

    let divs = check(&scenario).divergences;
    assert!(
        divs.iter()
            .any(|d| matches!(d, Divergence::Proof { detail } if detail.starts_with("pipeline"))),
        "{divs:?}"
    );
}

/// Every fused memory kind on one straight path: context, packet and stack
/// loads and stores, an update, a lookup, a value load, store and atomic on
/// map 0, and a delete on map 1.
fn every_memory_kind() -> Program {
    let mut a = Asm::new();
    let drop = a.new_label();
    a.load(MemSize::W, 7, 1, 0); // data
    a.load(MemSize::W, 8, 1, 4); // data_end
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 40);
    a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
    a.load(MemSize::W, 2, 7, 26); // the IPv4 source picks one of 8 keys
    a.alu64_imm(AluOp::And, 2, 7);
    a.store_reg(MemSize::W, 10, -4, 2);
    a.load(MemSize::B, 3, 7, 30);
    a.store_reg(MemSize::B, 7, 31, 3);
    a.store_imm(MemSize::Dw, 10, -24, 0);
    a.store_imm(MemSize::Dw, 10, -16, 0);
    for (map, helper) in
        [(0, BPF_MAP_UPDATE_ELEM), (1, BPF_MAP_DELETE_ELEM), (0, BPF_MAP_LOOKUP_ELEM)]
    {
        a.ld_map_fd(1, map);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -24);
        a.mov64_imm(4, 1); // BPF_NOEXIST
        a.call(helper);
    }
    a.jmp_imm(JmpOp::Jeq, 0, 0, drop);
    a.load(MemSize::Dw, 4, 0, 0);
    a.alu64_imm(AluOp::Add, 4, 1);
    a.store_reg(MemSize::Dw, 0, 0, 4);
    a.mov64_imm(5, 3);
    a.atomic_add64(0, 8, 5);
    a.load(MemSize::W, 0, 10, -4);
    a.alu64_imm(AluOp::And, 0, 1);
    a.alu64_imm(AluOp::Add, 0, 2); // XDP_PASS or XDP_TX
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();
    let maps = vec![
        MapDef::new(0, "a", MapKind::Hash, 4, 16, 64),
        MapDef::new(1, "b", MapKind::Hash, 4, 8, 64),
    ];
    Program::new("every_memory_kind", a.into_insns(), maps)
}

/// Rewrites one op's label or map use.
type Mislabel = dyn Fn(&mut StageOp);

/// Each fused memory op guards its label at run time: a region check for
/// context, stack and packet accesses, the baked map's value window for map
/// memory, the baked handle for map helpers. Mislabel one op of each kind in
/// a compiled design, so its guard misses on every packet: the op runs the
/// unspecialized arm, which resolves the region or map at run time, and the
/// pipeline still matches the VM.
#[test]
fn mislabelled_fused_ops_take_the_guard_miss_arm() {
    let program = every_memory_kind();
    let design = Compiler::new().compile(&program).unwrap();
    let packets =
        Workload::new(FlowSet::udp(16, 5), Popularity::Zipf { alpha: 1.0 }, 64, 6).packets(200);
    check(&Scenario::new(&program, &design, &packets)).assert_clean();
    let far_stack = MemLabel::Stack(Interval::new(-512, -505));
    let far_packet = MemLabel::Packet(Interval::new(900, 907));
    let ctx = MemLabel::Ctx(Interval::new(0, 3));
    let kind = |op: &FusedOp| format!("{op:?}").split([' ', '{']).next().unwrap().to_string();
    let cases: [(&str, &str, &Mislabel); 11] = [
        ("LdCtx", "LdStk", &move |op| op.label = far_stack),
        ("LdStk", "LdPkt", &move |op| op.label = far_packet),
        ("LdPkt", "LdCtx", &move |op| op.label = ctx),
        ("StStk", "StPkt", &move |op| op.label = far_packet),
        ("StPkt", "StStk", &move |op| op.label = far_stack),
        ("LdMap", "LdMap", &|op| op.label = MemLabel::Map(1)),
        ("StMap", "StMap", &|op| op.label = MemLabel::Map(1)),
        ("AtomicMap", "AtomicMap", &|op| op.label = MemLabel::Map(1)),
        ("Lookup", "Lookup", &|op| op.map_use = Some(MapUse::Lookup(1))),
        ("MapUpdate", "MapUpdate", &|op| op.map_use = Some(MapUse::HelperWrite(1))),
        ("MapDelete", "MapDelete", &|op| op.map_use = Some(MapUse::HelperWrite(0))),
    ];
    for (from, to, mislabel) in cases {
        let mut bad: PipelineDesign = design.clone();
        let lp = LoweredPlan::try_lower(&design).unwrap();
        let (s, i) = (0..lp.stage_count())
            .find_map(|s| lp.stage_fused(s).iter().position(|op| kind(op) == from).map(|i| (s, i)))
            .unwrap_or_else(|| panic!("the program has a {from}"));
        mislabel(&mut bad.stages[s].ops[i]);
        let relowered = LoweredPlan::try_lower(&bad).unwrap();
        let op = relowered.stage_fused(s)[i];
        assert_eq!(kind(&op), to, "{from} relabelled");
        assert_ne!(op, lp.stage_fused(s)[i], "{from}: the guard must change");
        let divs = check(&Scenario::new(&program, &bad, &packets)).divergences;
        assert!(divs.is_empty(), "{from} as {op:?}: {:?}", &divs[..divs.len().min(4)]);
    }
}
