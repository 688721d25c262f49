//! Cross-validation of the static sharding-soundness pass (`ehdl-core::
//! shardcheck`) against the dynamic checkers: every verdict the analysis
//! emits — private/shared placement, merge soundness, exactness, race —
//! must agree with what a sharded `diff::check` (which includes the
//! per-key linearizability replay) observes on real traffic.

use ehdl_core::shardcheck::{MapClass, MergePolicy, Placement, ShardError, ShardPlan};
use ehdl_core::Compiler;
use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
use ehdl_ebpf::maps::{MapDef, MapKind, MapStore};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_ebpf::Program;
use ehdl_hwsim::diff::{check, Device, Scenario};
use ehdl_hwsim::{fabric_from_plan, Divergence, ShardedNic, SharedMapOptions, SimOptions};
use ehdl_net::{FiveTuple, IPPROTO_TCP, IPPROTO_UDP};
use ehdl_programs::{dnat, leaky_bucket, simple_firewall, suricata, toy_counter, App};
use ehdl_traffic::{build_flow_packet, FlowSet, Popularity, Workload};

fn compile(p: &Program) -> ehdl_core::PipelineDesign {
    Compiler::new().compile(p).expect("app compiles")
}

/// `n` replicas deployed as the design's own shard plan prescribes.
fn planned(plan: &ShardPlan, n: usize, seed: u64) -> Device {
    let (fabric, merge) = (fabric_from_plan(plan), plan.merge_policies());
    Device::Replicas { n, seed, fabric, merge, faults: None }
}

/// Divergences of `packets` on `device` against the sequential reference.
fn sharded(
    program: &Program,
    design: &ehdl_core::PipelineDesign,
    device: Device,
    packets: &[Vec<u8>],
    setup: &dyn Fn(&mut MapStore),
) -> Vec<Divergence> {
    check(&Scenario { device, setup, ..Scenario::new(program, design, packets) }).divergences
}

fn flow(i: usize, proto: u8) -> FiveTuple {
    FiveTuple {
        saddr: [10, 1, (i >> 8) as u8, i as u8],
        daddr: [203, 0, 113, 9],
        sport: 40000 + i as u16,
        dport: 53,
        proto,
    }
}

/// Bidirectional trace over `flows` flows.
fn bidi_trace(flows: usize, rounds: usize, proto: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..flows {
        out.push(build_flow_packet(&flow(i, proto), [1; 6], [2; 6], 64));
    }
    for _ in 0..rounds {
        for i in 0..flows {
            out.push(build_flow_packet(&flow(i, proto).reversed(), [2; 6], [1; 6], 64));
            out.push(build_flow_packet(&flow(i, proto), [1; 6], [2; 6], 64));
        }
    }
    out
}

/// Mixed workload from the traffic generator (exercises non-IP frames
/// and skewed popularity too).
fn workload(app: App, n: usize) -> Vec<Vec<u8>> {
    let flows = match app {
        App::Suricata => FlowSet::tcp(256, 42),
        _ => FlowSet::udp(256, 42),
    };
    Workload::new(flows, Popularity::Zipf { alpha: 1.1 }, 64, 43).packets(n)
}

/// Host-side map population per app (routes, endpoints, ACL rules).
fn setup_app(app: App, maps: &mut MapStore) {
    match app {
        App::Router => {
            ehdl_programs::router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
            ehdl_programs::router::install_route(
                maps,
                [192, 168, 0, 0],
                16,
                2,
                [0xbb; 6],
                [0x02; 6],
            );
        }
        App::Tunnel => {
            for i in 0..32u8 {
                ehdl_programs::tunnel::install_endpoint(
                    maps,
                    [192, 168, i, i],
                    [172, 16, 0, 1],
                    [172, 16, 0, 2],
                    [0xaa; 6],
                    [0xbb; 6],
                );
            }
        }
        App::Suricata => {
            for f in FlowSet::tcp(256, 42).flows().iter().take(64) {
                suricata::install_rule(maps, f);
            }
        }
        App::Firewall | App::Dnat => {}
    }
}

/// Pin the zero-hint classification of every map of the app zoo. These
/// verdicts are load-bearing: the dynamic-agreement tests below trust
/// `vm_exact` to predict the differential outcome.
#[test]
fn app_zoo_classifications_pinned() {
    use MapClass::*;
    use MergePolicy as MP;
    // Per map: (id, class, placement, merge, vm_exact).
    type MapPins = Vec<(u32, MapClass, Placement, MP, bool)>;
    let expect: Vec<(&str, Program, MapPins)> = vec![
        (
            "firewall",
            simple_firewall::program(),
            vec![
                // Flow-keyed and sound private, but the established-path
                // in-place bump precedes the open-path session update in
                // program order; the pc-window replay rule cannot see
                // that the two paths are exclusive, so it soundly drops
                // the exactness claim.
                (0, FlowKeyed, Placement::Private, MP::Union, false),
                // The drop-path counter bump sits between the session
                // lookup and the session update commit — an FEB replay
                // can re-execute it, so exactness is not claimed.
                (1, SumDelta, Placement::Private, MP::SumDelta, false),
            ],
        ),
        (
            "router",
            ehdl_programs::router::program(),
            vec![
                (0, ReadOnly, Placement::Private, MP::Union, true),
                (1, SumDelta, Placement::Private, MP::SumDelta, true),
            ],
        ),
        (
            "tunnel",
            ehdl_programs::tunnel::program(),
            vec![
                (0, ReadOnly, Placement::Private, MP::Union, true),
                (1, SumDelta, Placement::Private, MP::SumDelta, true),
            ],
        ),
        (
            "dnat",
            dnat::program(),
            vec![
                (dnat::CONN_MAP, FlowKeyed, Placement::Private, MP::Union, false),
                // The port-allocator fetch-add lives inside the conn
                // map's hazard-replay window (lookup < atomic < update):
                // a stale-read flush re-executes the committed add, so
                // the counter can over-count even on one pipeline.
                (dnat::PORT_ALLOC_MAP, SharedAtomic, Placement::Shared, MP::Direct, false),
                (dnat::STATS_MAP, SumDelta, Placement::Private, MP::SumDelta, true),
            ],
        ),
        (
            "suricata",
            suricata::program(),
            vec![
                // Not flow-keyed: the VLAN path reads the tuple at
                // shifted offsets the steering hash never sees. Still
                // sound private: the only writes are blind counter adds.
                (suricata::ACL_MAP, SumDelta, Placement::Private, MP::SumDelta, true),
                (suricata::STATS_MAP, SumDelta, Placement::Private, MP::SumDelta, true),
            ],
        ),
        (
            "toy_counter",
            toy_counter::program(),
            vec![(0, SumDelta, Placement::Private, MP::SumDelta, true)],
        ),
        (
            "leaky_bucket",
            leaky_bucket::program(),
            vec![
                // Flow-keyed RMW: private is sound, but stored values
                // derive from loaded state, so exactness is not claimed.
                (0, FlowKeyed, Placement::Private, MP::Union, false),
                (1, SumDelta, Placement::Private, MP::SumDelta, true),
            ],
        ),
    ];
    for (name, program, maps) in expect {
        let plan = compile(&program).shard;
        assert!(plan.analyzed, "{name}: plan analyzed");
        assert_eq!(plan.maps.len(), maps.len(), "{name}: every map classified");
        for (id, class, place, merge, exact) in maps {
            let m = plan.map(id).unwrap_or_else(|| panic!("{name}: map {id} in plan"));
            assert_eq!(m.class, class, "{name}: map {id} class");
            assert_eq!(m.placement, place, "{name}: map {id} placement");
            assert_eq!(m.merge, merge, "{name}: map {id} merge");
            assert_eq!(m.vm_exact, exact, "{name}: map {id} exactness");
        }
        assert!(plan.require_sound(4).is_ok(), "{name}: sound at 4 replicas");
    }
    // The statically pre-assigned bank count: DNAT's constant-keyed
    // port allocator gets a single bank (PR 7 measured ~50% conflicts
    // there regardless of banking); everyone else keeps the default.
    let plan = compile(&dnat::program()).shard;
    assert_eq!(plan.map(dnat::PORT_ALLOC_MAP).expect("port_alloc").banks, 1);
    assert_eq!(plan.fabric_banks(), 1);
    assert_eq!(plan.shared_map_ids(), vec![dnat::PORT_ALLOC_MAP]);
}

/// Maps the analysis proved `vm_exact` must never diverge dynamically,
/// and plans where *every* map is exact must run fully clean. This is
/// the 100%-agreement gate over the whole app zoo at 2 and 4 replicas,
/// on both a structured bidirectional trace and a generated workload.
#[test]
fn verdicts_agree_with_dynamic_checkers() {
    let apps = [App::Firewall, App::Router, App::Tunnel, App::Dnat, App::Suricata];
    let extras: Vec<(String, Program)> = vec![
        ("toy_counter".into(), toy_counter::program()),
        ("leaky_bucket".into(), leaky_bucket::program()),
    ];
    let all: Vec<(String, Program, Option<App>)> = apps
        .iter()
        .map(|a| (format!("{a:?}"), a.program(), Some(*a)))
        .chain(extras.into_iter().map(|(n, p)| (n, p, None)))
        .collect();
    for (name, program, app) in &all {
        let design = compile(program);
        let plan = design.shard.clone();
        let proto = if *app == Some(App::Suricata) { IPPROTO_TCP } else { IPPROTO_UDP };
        let traces: Vec<Vec<Vec<u8>>> = vec![
            bidi_trace(32, 2, proto),
            app.map(|a| workload(a, 220)).unwrap_or_else(|| bidi_trace(48, 1, proto)),
        ];
        for packets in &traces {
            for replicas in [2usize, 4] {
                let setup = |maps: &mut MapStore| {
                    if let Some(a) = app {
                        setup_app(*a, maps);
                    }
                };
                let div = sharded(program, &design, planned(&plan, replicas, 7), packets, &setup);
                // Exact maps must be divergence-free; beyond that no
                // action/count/coherence/proof divergence anywhere
                // (placement + serialization are sound).
                for d in &div {
                    match d {
                        Divergence::Map { map } => {
                            let m = plan.map(*map).expect("diverged map is classified");
                            assert!(
                                !m.vm_exact,
                                "{name} x{replicas}: map {map} was proven exact but diverged"
                            );
                        }
                        Divergence::Packet { .. } => {
                            assert!(
                                !plan.all_exact(),
                                "{name} x{replicas}: packet divergence in an all-exact plan: {d}"
                            );
                        }
                        other => panic!("{name} x{replicas}: unexpected divergence {other}"),
                    }
                }
                if plan.all_exact() {
                    assert!(
                        div.is_empty(),
                        "{name} x{replicas}: all-exact plan must be clean, got {div:?}"
                    );
                }
            }
        }
    }
}

/// DNAT with pre-bound flows: the order-dependent port allocator never
/// runs, so even the maps the analysis refuses to call exact merge
/// bit-equivalently — the conservative direction of the verdict.
#[test]
fn dnat_prebound_runs_clean_under_plan_config() {
    use ehdl_ebpf::maps::UpdateFlags;
    let program = dnat::program();
    let design = compile(&program);
    let flows = 40;
    let mut packets = Vec::new();
    for _ in 0..3 {
        for i in 0..flows {
            packets.push(build_flow_packet(&flow(i, IPPROTO_UDP), [1; 6], [2; 6], 64));
        }
    }
    let setup = move |maps: &mut MapStore| {
        let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
        for i in 0..flows {
            let port = dnat::PORT_BASE + i as u16;
            let mut val = [0u8; 8];
            val[..4].copy_from_slice(&dnat::NAT_ADDR);
            val[4..6].copy_from_slice(&port.to_be_bytes());
            conn.update(&flow(i, IPPROTO_UDP).to_key(), &val, UpdateFlags::Any).expect("bind");
        }
    };
    let div = sharded(&program, &design, planned(&design.shard, 4, 11), &packets, &setup);
    assert!(div.is_empty(), "prebound DNAT under the derived plan: {div:?}");
}

/// A hand-written unfenced RMW (lookup → load → store on one hot key):
/// the pass flags a compile-time `CrossReplicaRace`, and the dynamic
/// checker confirms it — running the same design across replicas with the
/// map serialized per *access* (but not per RMW sequence) loses updates.
#[test]
fn static_race_agrees_with_dynamic_divergence() {
    let mut a = Asm::new();
    let out = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
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
    let program =
        Program::new("racer", a.into_insns(), vec![MapDef::new(0, "ctr", MapKind::Array, 4, 8, 1)]);
    let design = compile(&program);

    // Static verdict: a typed race, rejected before any cycle runs.
    let m = design.shard.map(0).expect("classified");
    assert_eq!(m.class, MapClass::OpaqueRmw);
    let errs = design.shard.require_sound(2).unwrap_err();
    assert!(matches!(errs[0], ShardError::CrossReplicaRace { map: 0, .. }));
    let err = ShardedNic::from_shard_plan(&design, 2, 7, SimOptions::default()).unwrap_err();
    assert!(matches!(err[0], ShardError::CrossReplicaRace { map: 0, .. }));

    // Dynamic confirmation: force the unsound deployment (shared map,
    // per-access serialization) and the lost updates materialize as a
    // map divergence against the sequential reference.
    let packets = bidi_trace(64, 2, IPPROTO_UDP);
    let fabric = SharedMapOptions { shared_maps: vec![0], ..Default::default() };
    let unsound = Device::Replicas { n: 2, seed: 7, fabric, merge: Vec::new(), faults: None };
    let div = sharded(&program, &design, unsound, &packets, &|_| {});
    assert!(
        div.iter().any(|d| matches!(d, Divergence::Map { map: 0 })),
        "dynamic run must lose updates on the contended counter, got {div:?}"
    );
    // Single replica is sound statically — and clean dynamically.
    assert!(ShardedNic::from_shard_plan(&design, 1, 7, SimOptions::default()).is_ok());
    let fabric = SharedMapOptions::default();
    let one = Device::Replicas { n: 1, seed: 7, fabric, merge: Vec::new(), faults: None };
    let div = sharded(&program, &design, one, &packets, &|_| {});
    assert!(div.is_empty(), "single replica must be exact: {div:?}");
}

/// `validate_config` reproduces (or rejects) the hand-written configs the
/// benches used before the pass existed.
#[test]
fn hand_written_configs_validated() {
    let design = compile(&dnat::program());
    let plan = &design.shard;
    // The config the chaos/scale-out benches hand-assert today.
    assert!(plan
        .validate_config(
            4,
            &[dnat::PORT_ALLOC_MAP],
            &[(dnat::CONN_MAP, MergePolicy::Union), (dnat::STATS_MAP, MergePolicy::SumDelta)],
        )
        .is_ok());
    // Wrong merge for conn (helper update does not commute as a delta).
    let errs = plan
        .validate_config(4, &[dnat::PORT_ALLOC_MAP], &[(dnat::CONN_MAP, MergePolicy::SumDelta)])
        .unwrap_err();
    assert!(
        matches!(errs[0], ShardError::NonCommutativeWrite { map, .. } if map == dnat::CONN_MAP),
        "{errs:?}"
    );
    // Leaving the fetch-add allocator private under Union is unsound:
    // its key is not a symmetric tuple function.
    let errs =
        plan.validate_config(4, &[], &[(dnat::PORT_ALLOC_MAP, MergePolicy::Union)]).unwrap_err();
    assert!(
        matches!(errs[0], ShardError::NonSymmetricKey { map, .. } if map == dnat::PORT_ALLOC_MAP),
        "{errs:?}"
    );
}

/// `ShardedNic::from_shard_plan` is a drop-in constructor: identical
/// behavior to a hand-configured NIC with the equivalent fabric.
#[test]
fn from_shard_plan_matches_hand_config() {
    let program = dnat::program();
    let design = compile(&program);
    let mut auto = ShardedNic::from_shard_plan(&design, 4, 9, SimOptions::default())
        .expect("dnat plan is sound");
    let mut hand = ShardedNic::new(
        &design,
        4,
        9,
        SimOptions::default(),
        SharedMapOptions {
            shared_maps: vec![dnat::PORT_ALLOC_MAP],
            banks: 1,
            ..Default::default()
        },
    );
    let packets = bidi_trace(24, 1, IPPROTO_UDP);
    let ra = auto.run(packets.clone());
    let rb = hand.run(packets);
    assert_eq!(ra.outcomes.len(), rb.outcomes.len());
    for (x, y) in ra.outcomes.iter().zip(&rb.outcomes) {
        assert_eq!((x.0, x.1), (y.0, y.1), "same replica + packet order");
        assert_eq!(x.2.action, y.2.action, "identical verdicts");
        assert_eq!(x.2.packet, y.2.packet, "identical output bytes");
    }
    assert_eq!(ra.cycles, rb.cycles, "identical fabric timing");
}

/// An unanalyzed design (absint off) cannot be sharded through the plan.
#[test]
fn unanalyzed_design_is_rejected() {
    let opts = ehdl_core::CompilerOptions { absint: false, ..Default::default() };
    let design = Compiler::with_options(opts)
        .compile(&toy_counter::program())
        .expect("compiles without analysis");
    let err = ShardedNic::from_shard_plan(&design, 2, 7, SimOptions::default()).unwrap_err();
    assert_eq!(err, vec![ShardError::Unanalyzed]);
}

/// One random program: 1–3 maps, each drawn from the access-pattern
/// grammar the classifier lattice distinguishes (const-key lookups,
/// tuple-keyed updates in forward or σ-reversed form, blind adds,
/// fetch-adds, and opaque load/store RMWs). A flow-keyed map's update
/// may be deferred to the end of the program, which puts intervening
/// atomics inside its hazard-replay window.
fn random_shard_program(rng: &mut ehdl_rng::Rng) -> Program {
    use ehdl_ebpf::opcode::AtomicOp;
    let mut a = Asm::new();
    let out = a.new_label();
    // Parser guards: bounds to 42, EtherType IPv4, proto UDP.
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 42);
    a.jmp_reg(JmpOp::Jgt, 1, 8, out);
    a.load(MemSize::B, 2, 7, 12);
    a.load(MemSize::B, 1, 7, 13);
    a.alu64_imm(AluOp::Lsh, 2, 8);
    a.alu64_reg(AluOp::Or, 2, 1);
    a.jmp_imm(JmpOp::Jne, 2, 0x0800, out);
    a.load(MemSize::B, 2, 7, 23);
    a.jmp_imm(JmpOp::Jne, 2, 17, out);

    let nmaps = 1 + rng.gen_index(3);
    let mut maps = Vec::new();
    let mut deferred: Vec<(u32, i16)> = Vec::new();
    for m in 0..nmaps {
        let id = m as u32;
        let base = -(32 * (m as i16 + 1));
        match rng.gen_index(5) {
            0 => {
                // Read-only: const-key lookup on a small array.
                maps.push(MapDef::new(id, "ro", MapKind::Array, 4, 8, 4));
                a.mov64_imm(1, rng.gen_index(4) as i32);
                a.store_reg(MemSize::W, 10, base, 1);
                a.ld_map_fd(1, id);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, i32::from(base));
                a.call(BPF_MAP_LOOKUP_ELEM);
            }
            1 => {
                // Flow-keyed: tuple lookup (forward or σ-reversed) plus
                // a const-value update, possibly deferred.
                maps.push(MapDef::new(id, "flow", MapKind::Hash, 13, 8, 1024));
                if rng.gen_bool() {
                    a.load(MemSize::W, 1, 7, 26);
                    a.store_reg(MemSize::W, 10, base, 1);
                    a.load(MemSize::W, 1, 7, 30);
                    a.store_reg(MemSize::W, 10, base + 4, 1);
                    a.load(MemSize::W, 1, 7, 34);
                    a.store_reg(MemSize::W, 10, base + 8, 1);
                } else {
                    a.load(MemSize::W, 1, 7, 30);
                    a.store_reg(MemSize::W, 10, base, 1);
                    a.load(MemSize::W, 1, 7, 26);
                    a.store_reg(MemSize::W, 10, base + 4, 1);
                    a.load(MemSize::H, 1, 7, 36);
                    a.store_reg(MemSize::H, 10, base + 8, 1);
                    a.load(MemSize::H, 1, 7, 34);
                    a.store_reg(MemSize::H, 10, base + 10, 1);
                }
                a.load(MemSize::B, 1, 7, 23);
                a.store_reg(MemSize::B, 10, base + 12, 1);
                a.ld_map_fd(1, id);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, i32::from(base));
                a.call(BPF_MAP_LOOKUP_ELEM);
                a.mov64_imm(1, 1 + rng.gen_index(100) as i32);
                a.store_reg(MemSize::Dw, 10, base + 16, 1);
                if rng.gen_bool() {
                    deferred.push((id, base));
                } else {
                    emit_update(&mut a, id, base);
                }
            }
            2 | 3 => {
                // Counter: a blind add or a fetch-add on one cell.
                maps.push(MapDef::new(id, "ctr", MapKind::Array, 4, 8, 1));
                let skip = a.new_label();
                a.mov64_imm(1, 0);
                a.store_reg(MemSize::W, 10, base, 1);
                a.ld_map_fd(1, id);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, i32::from(base));
                a.call(BPF_MAP_LOOKUP_ELEM);
                a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
                a.mov64_imm(2, 1 + rng.gen_index(7) as i32);
                a.atomic(AtomicOp::Add { fetch: rng.gen_bool() }, MemSize::Dw, 0, 0, 2);
                a.bind(skip);
            }
            _ => {
                // Opaque RMW: packet-byte key, load + store of the value.
                maps.push(MapDef::new(id, "rmw", MapKind::Hash, 4, 8, 64));
                let skip = a.new_label();
                a.load(MemSize::B, 1, 7, 20);
                a.store_reg(MemSize::W, 10, base, 1);
                a.ld_map_fd(1, id);
                a.mov64_reg(2, 10);
                a.alu64_imm(AluOp::Add, 2, i32::from(base));
                a.call(BPF_MAP_LOOKUP_ELEM);
                a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
                a.load(MemSize::Dw, 3, 0, 0);
                a.alu64_imm(AluOp::Add, 3, 1);
                a.store_reg(MemSize::Dw, 0, 0, 3);
                a.bind(skip);
            }
        }
    }
    for (id, base) in deferred {
        emit_update(&mut a, id, base);
    }
    a.bind(out);
    a.mov64_imm(0, 2);
    a.exit();
    Program::new("rand", a.into_insns(), maps)
}

fn emit_update(a: &mut Asm, id: u32, base: i16) {
    use ehdl_ebpf::helpers::BPF_MAP_UPDATE_ELEM;
    a.ld_map_fd(1, id);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, i32::from(base));
    a.mov64_reg(3, 10);
    a.alu64_imm(AluOp::Add, 3, i32::from(base + 16));
    a.mov64_imm(4, 0);
    a.call(BPF_MAP_UPDATE_ELEM);
}

/// Seeded random-program campaign: for every generated program, a sound
/// plan's exactness verdicts must agree with the sharded check (same
/// one-way contract as the app zoo), and an unsound verdict must name
/// exactly the opaque-RMW maps.
#[test]
fn random_program_verdicts_agree() {
    let mut sound_runs = 0usize;
    let mut unsound_plans = 0usize;
    for seed in 0..24u64 {
        let mut rng = ehdl_rng::Rng::seed_from_u64(0x5eed_0000 + seed);
        let program = random_shard_program(&mut rng);
        let design = compile(&program);
        let plan = design.shard.clone();
        let opaque: Vec<u32> =
            plan.maps.iter().filter(|m| m.class == MapClass::OpaqueRmw).map(|m| m.map).collect();
        let packets = bidi_trace(16, 2, IPPROTO_UDP);
        for replicas in [2usize, 4] {
            match plan.require_sound(replicas) {
                Err(errs) => {
                    let flagged: Vec<u32> = errs
                        .iter()
                        .map(|e| match e {
                            ShardError::CrossReplicaRace { map, .. } => *map,
                            other => panic!("seed {seed}: unexpected error {other:?}"),
                        })
                        .collect();
                    assert_eq!(
                        flagged, opaque,
                        "seed {seed}: race diagnostics name exactly the opaque maps"
                    );
                    unsound_plans += 1;
                }
                Ok(()) => {
                    let device = planned(&plan, replicas, 7);
                    let div = sharded(&program, &design, device, &packets, &|_| {});
                    for d in &div {
                        match d {
                            Divergence::Map { map } => {
                                let m = plan.map(*map).expect("classified");
                                assert!(
                                    !m.vm_exact,
                                    "seed {seed} x{replicas}: map {map} proven exact diverged"
                                );
                            }
                            Divergence::Packet { .. } => {
                                assert!(!plan.all_exact(), "seed {seed}: packet divergence");
                            }
                            other => panic!("seed {seed} x{replicas}: unexpected {other}"),
                        }
                    }
                    if plan.all_exact() {
                        assert!(
                            div.is_empty(),
                            "seed {seed} x{replicas}: all-exact plan diverged: {div:?}"
                        );
                    }
                    sound_runs += 1;
                }
            }
        }
    }
    assert!(sound_runs >= 10, "campaign too thin: {sound_runs} sound runs");
    assert!(unsound_plans >= 2, "campaign too thin: {unsound_plans} unsound plans");
}
