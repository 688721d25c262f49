//! Acceptance differentials: the evaluation applications stay
//! bit-equivalent to the sequential reference while the host mutates
//! their maps mid-stream — including writes landing inside open RAW
//! hazard windows (back-to-back same-flow packets with a 1-cycle
//! control channel).

use ehdl_core::Compiler;
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::Program;
use ehdl_hwsim::diff::{check, Device, Scenario};
use ehdl_hwsim::{CtrlOptions, HostEvent};
use ehdl_net::FiveTuple;
use ehdl_programs::{dnat, simple_firewall, suricata};
use ehdl_runtime::Runtime;
use ehdl_traffic::{
    build_flow_packet, interleave_ops, ControlOpGen, FlowSet, OpMix, Popularity, ScheduleItem,
};

const SRC_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];
const DST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x02];

fn packets_for(flows: &FlowSet, n: usize, pop: Popularity, seed: u64) -> Vec<Vec<u8>> {
    let mut wl = ehdl_traffic::Workload::new(flows.clone(), pop, 64, seed);
    wl.packets(n)
}

fn key_pool(flows: &FlowSet, take: usize) -> Vec<Vec<u8>> {
    flows.flows().iter().take(take).map(|f| f.to_key().to_vec()).collect()
}

/// `events` on one pipeline of `program` over `ctrl`, each op train
/// submitted verbatim or coalesced: every packet outcome, op ack and final
/// map byte must match the sequential reference running the originals.
fn equivalent(
    program: &Program,
    events: Vec<HostEvent>,
    ctrl: CtrlOptions,
    coalesce: bool,
    setup: &dyn Fn(&mut MapStore),
    ignore_maps: Vec<u32>,
) {
    let design = Compiler::new().compile(program).expect("program compiles");
    let device = Device::Pipeline { ctrl, faults: None };
    let base = Scenario::new(program, &design, &[]);
    check(&Scenario { events, setup, device, coalesce, ignore_maps, ..base }).assert_clean();
}

fn to_events(schedule: Vec<ScheduleItem>) -> Vec<HostEvent> {
    schedule
        .into_iter()
        .map(|item| match item {
            ScheduleItem::Packet(p) => HostEvent::Packet(p),
            ScheduleItem::Op(op) => HostEvent::Op(ehdl_runtime::to_host_op(&op)),
        })
        .collect()
}

#[test]
fn firewall_equivalent_under_live_ops() {
    // Full op mix (installs, expiries, reads, dumps) on the session table
    // the packets themselves are opening sessions in. Hot keys make host
    // writes collide with in-flight same-key packets.
    let flows = FlowSet::udp(64, 21);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.6 }, 22);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.7 },
        23,
    );
    let events = to_events(interleave_ops(packets, &mut gen, 0.2, 24));
    equivalent(
        &simple_firewall::program(),
        events,
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
        &|_| {},
        Vec::new(),
    );
}

#[test]
fn firewall_equivalent_with_slow_channel() {
    // Realistic PCIe latency: ops arrive hundreds of cycles after
    // submission but must still take effect exactly at their barrier.
    let flows = FlowSet::udp(32, 31);
    let packets = packets_for(&flows, 300, Popularity::Uniform, 32);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 32),
        8,
        OpMix::default(),
        Popularity::Uniform,
        33,
    );
    let events = to_events(interleave_ops(packets, &mut gen, 0.1, 34));
    equivalent(
        &simple_firewall::program(),
        events,
        CtrlOptions { latency_cycles: 300, queue_depth: 256 },
        false,
        &|_| {},
        Vec::new(),
    );
}

#[test]
fn dnat_equivalent_under_live_ops() {
    // Every flow gets a pre-installed binding so translation never
    // consults the (legitimately divergent) port allocator; host ops
    // then rewrite and read those live bindings mid-stream. No deletes:
    // unbinding would re-enter the allocator path.
    let flows = FlowSet::udp(48, 41);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.5 }, 42);
    let mut gen = ControlOpGen::new(
        dnat::CONN_MAP,
        key_pool(&flows, 12),
        8,
        OpMix { lookup: 0.4, update: 0.5, delete: 0.0, dump: 0.1 },
        Popularity::Hot { p_hot: 0.7 },
        43,
    );
    let events = to_events(interleave_ops(packets, &mut gen, 0.2, 44));
    equivalent(
        &dnat::program(),
        events,
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
        &|maps| {
            let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
            for (i, f) in flows.flows().iter().enumerate() {
                let mut v = [0u8; 8];
                v[..4].copy_from_slice(&dnat::NAT_ADDR);
                v[4..6].copy_from_slice(&(dnat::PORT_BASE + i as u16).to_be_bytes());
                conn.update(&f.to_key(), &v, Default::default()).expect("binding install");
            }
        },
        vec![dnat::PORT_ALLOC_MAP],
    );
}

#[test]
fn suricata_equivalent_under_live_ops() {
    // Rule installs and removals race the IDS's own per-rule hit
    // counting (an in-pipeline read-modify-write on the same map).
    let flows = FlowSet::tcp(64, 51);
    let packets = packets_for(&flows, 400, Popularity::Hot { p_hot: 0.6 }, 52);
    let mut gen = ControlOpGen::new(
        suricata::ACL_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Hot { p_hot: 0.7 },
        53,
    );
    let events = to_events(interleave_ops(packets, &mut gen, 0.2, 54));
    equivalent(
        &suricata::program(),
        events,
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        false,
        &|maps| {
            for f in flows.flows().iter().take(24) {
                suricata::install_rule(maps, f);
            }
        },
        Vec::new(),
    );
}

#[test]
fn runtime_schedule_matches_direct_differential_state() {
    // Drive the same schedule through the Runtime facade and check the
    // per-map hit telemetry and completion accounting line up.
    let flows = FlowSet::udp(16, 61);
    let packets = packets_for(&flows, 200, Popularity::Uniform, 62);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Uniform,
        63,
    );
    let schedule = interleave_ops(packets, &mut gen, 0.15, 64);
    let nops = schedule.iter().filter(|i| matches!(i, ScheduleItem::Op(_))).count() as u64;

    let design =
        ehdl_core::Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles");
    let mut rt = Runtime::new(
        &design,
        ehdl_runtime::RuntimeOptions {
            ctrl: CtrlOptions { latency_cycles: 8, queue_depth: 1024 },
            ..Default::default()
        },
    );
    let report = rt.run_schedule(&schedule);
    assert_eq!(report.packets, 200);
    assert_eq!(report.lost, 0);
    assert_eq!(report.ops_submitted, nops);
    assert!(report.ops_rejected.is_empty());
    assert_eq!(report.outcomes.len(), 200);
    assert_eq!(report.completions.len(), nops as usize);

    let stats = rt.stats();
    assert_eq!(stats.counters.completed, 200);
    assert_eq!(stats.counters.host_ops, nops);
    assert_eq!(stats.ctrl.submitted, nops);
    assert!(stats.maps[0].lookups > 0, "sessions map saw traffic");
    assert!(stats.stages.iter().any(|s| s.utilization > 0.0));
    // The differential for this flow already ran above; here we only
    // check the facade preserved basic conservation.
    let tuple = FiveTuple::parse(&build_flow_packet(&flows.flows()[0], SRC_MAC, DST_MAC, 64));
    assert!(tuple.is_some(), "generated packets stay parseable");
}

#[test]
fn firewall_coalesced_schedule_matches_sequential_oracle() {
    // The serving layer's batching rewrite (same-key update collapse +
    // lookup sharing over one gather) must be invisible: the pipeline runs
    // the coalesced schedule, the VM oracle runs the original, and every
    // packet outcome, per-op result and final map byte must agree.
    let flows = FlowSet::udp(64, 71);
    let packets = packets_for(&flows, 300, Popularity::Hot { p_hot: 0.6 }, 72);
    let mut gen = ControlOpGen::new(
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 8), // tiny hot key pool => real adjacent same-key ops
        8,
        OpMix { lookup: 0.45, update: 0.45, delete: 0.05, dump: 0.05 },
        Popularity::Hot { p_hot: 0.8 },
        73,
    );
    let events = to_events(interleave_ops(packets, &mut gen, 0.5, 74));
    equivalent(
        &simple_firewall::program(),
        events,
        CtrlOptions { latency_cycles: 1, queue_depth: 256 },
        true,
        &|_| {},
        Vec::new(),
    );
}

#[test]
fn coalesced_trains_actually_collapse_and_stay_equivalent() {
    // Hand-built hot-key storm: long op trains of same-key updates and
    // repeated lookups between packet bursts. The rewrite must shrink the
    // schedule (this is what the reactor ships to the device) and the
    // differential must still be clean.
    use ehdl_hwsim::{coalesce_ops, HostOp, MapShape};

    let flows = FlowSet::udp(8, 81);
    let pkts = packets_for(&flows, 60, Popularity::Uniform, 82);
    let keys = key_pool(&flows, 4);
    let mut events = Vec::new();
    let mut train = Vec::new();
    for (i, p) in pkts.into_iter().enumerate() {
        if i % 3 == 0 {
            for r in 0..4u64 {
                train.push(HostOp::Update {
                    map: simple_firewall::SESSIONS_MAP,
                    key: keys[i / 3 % keys.len()].clone(),
                    value: (i as u64 * 10 + r).to_le_bytes().to_vec(),
                    flags: Default::default(),
                });
            }
            for r in 0..4usize {
                let k = keys[(i / 3 + r) % keys.len()].clone();
                train.push(HostOp::Lookup { map: simple_firewall::SESSIONS_MAP, key: k });
            }
            for op in train.drain(..) {
                events.push(HostEvent::Op(op));
            }
        }
        events.push(HostEvent::Packet(p));
    }

    // The rewrite itself must buy something on this shape.
    let ops: Vec<HostOp> = events
        .iter()
        .filter_map(|e| match e {
            HostEvent::Op(op) => Some(op.clone()),
            HostEvent::Packet(_) => None,
        })
        .take(8) // the first train
        .collect();
    let (_, stats) = coalesce_ops(&ops, |_| Some(MapShape { key_size: 13, value_size: 8 }));
    assert!(stats.ops_out < stats.ops_in, "hot-key train must coalesce: {stats:?}");
    assert!(stats.updates_collapsed > 0 || stats.lookups_shared > 0);

    equivalent(
        &simple_firewall::program(),
        events,
        CtrlOptions { latency_cycles: 16, queue_depth: 256 },
        true,
        &|_| {},
        Vec::new(),
    );
}

#[test]
fn gathered_lookup_runs_match_sequential_oracle() {
    // Seeded trains whose lookup runs (3 to 6 long) each read a key the
    // same train wrote just before, a key no one ever installs, and keys
    // the packets themselves are opening sessions for. The pipeline gets
    // one gather per run; the VM oracle gets the lookups one by one.
    use ehdl_hwsim::{coalesce_ops, HostOp, MapShape};
    use ehdl_rng::Rng;

    let map = simple_firewall::SESSIONS_MAP;
    let absent = vec![0xee; 13];
    for seed in [91u64, 92, 93] {
        let mut rng = Rng::seed_from_u64(seed);
        let flows = FlowSet::udp(16, seed);
        let keys = key_pool(&flows, 16);
        let mut events = Vec::new();
        let (mut gathers, mut gathered) = (0usize, 0u64);
        for (i, p) in
            packets_for(&flows, 120, Popularity::Hot { p_hot: 0.5 }, seed).into_iter().enumerate()
        {
            if i % 4 == 0 {
                let written = keys[rng.gen_index(keys.len())].clone();
                let mut train = vec![HostOp::Update {
                    map,
                    key: written.clone(),
                    value: rng.next_u64().to_le_bytes().to_vec(),
                    flags: Default::default(),
                }];
                if rng.gen_bool() {
                    train
                        .push(HostOp::Delete { map, key: keys[rng.gen_index(keys.len())].clone() });
                }
                let mut run = vec![written, absent.clone()];
                run.extend(
                    (0..1 + rng.gen_index(4)).map(|_| keys[rng.gen_index(keys.len())].clone()),
                );
                // Fisher-Yates: the miss and the fresh write land anywhere.
                for j in (1..run.len()).rev() {
                    run.swap(j, rng.gen_index(j + 1));
                }
                train.extend(run.iter().map(|k| HostOp::Lookup { map, key: k.clone() }));
                let (carriers, stats) =
                    coalesce_ops(&train, |_| Some(MapShape { key_size: 13, value_size: 8 }));
                let Some(HostOp::Gather { keys: got, .. }) = carriers.last().map(|c| &c.op) else {
                    panic!("seed {seed}: the lookup run did not become a gather: {carriers:?}");
                };
                assert_eq!(got, &run, "seed {seed}: keys in submission order");
                gathers += 1;
                gathered += stats.lookups_shared;
                events.extend(train.into_iter().map(HostEvent::Op));
            }
            events.push(HostEvent::Packet(p));
        }
        assert!(gathers == 30 && gathered >= 90, "seed {seed}: {gathers} gathers of {gathered}");
        equivalent(
            &simple_firewall::program(),
            events,
            CtrlOptions { latency_cycles: 1 + seed % 3 * 20, queue_depth: 256 },
            true,
            &|_| {},
            Vec::new(),
        );
    }
}
