//! Acceptance tests for the serving reactor: ack semantics, admission
//! backpressure, fairness, coalescing transparency, exactly-once
//! delivery over loss, and the long-haul campaign's SLO gates.

use ehdl_core::{Compiler, PipelineDesign};
use ehdl_ebpf::maps::{MapError, UpdateFlags};
use ehdl_hwsim::{CtrlLossConfig, CtrlOptions, HostOp, HostOpResult};
use ehdl_programs::simple_firewall;
use ehdl_runtime::{json, RuntimeOptions};
use ehdl_serve::{
    run_campaign, Ack, AdmissionConfig, CampaignConfig, Reactor, ReactorOptions, ServeError,
};

fn design() -> PipelineDesign {
    Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles")
}

fn reactor(options: ReactorOptions) -> Reactor {
    Reactor::new(&design(), options)
}

fn key(i: u8) -> Vec<u8> {
    let mut k = vec![0u8; 13];
    k[0] = i;
    k[1] = 0xA5;
    k
}

fn val(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

fn update(i: u8, v: u64) -> HostOp {
    HostOp::Update {
        map: simple_firewall::SESSIONS_MAP,
        key: key(i),
        value: val(v),
        flags: UpdateFlags::Any,
    }
}

fn lookup(i: u8) -> HostOp {
    HostOp::Lookup { map: simple_firewall::SESSIONS_MAP, key: key(i) }
}

fn delete(i: u8) -> HostOp {
    HostOp::Delete { map: simple_firewall::SESSIONS_MAP, key: key(i) }
}

#[test]
fn single_client_acks_follow_sequential_semantics() {
    let mut r = reactor(ReactorOptions::default());
    let c = r.connect();
    for op in [update(1, 7), lookup(1), delete(1), lookup(1)] {
        r.submit(c, op).expect("admitted");
    }
    r.drain();
    let mut acks = r.take_acks();
    acks.sort_by_key(|a| a.seq);
    assert_eq!(acks.len(), 4);
    assert_eq!(acks[0].result, Ok(HostOpResult::Updated));
    assert_eq!(acks[1].result, Ok(HostOpResult::Value(Some(val(7)))));
    assert_eq!(acks[2].result, Ok(HostOpResult::Deleted));
    assert_eq!(acks[3].result, Ok(HostOpResult::Value(None)));
    assert!(acks.iter().all(|a| a.latency_cycles > 0), "acks carry real latencies");
    let stats = r.runtime_stats();
    let slo = stats.slo.expect("reactor fills the SLO section");
    assert_eq!(slo.served, 4);
    assert_eq!(slo.failed, 0);
    assert!(json::validate(&stats.to_json()).is_ok(), "SLO telemetry serializes to valid JSON");
}

#[test]
fn every_ticket_acks_exactly_once() {
    let mut r = reactor(ReactorOptions::default());
    let clients: Vec<_> = (0..16).map(|_| r.connect()).collect();
    let mut tickets = Vec::new();
    for i in 0..400u64 {
        let c = clients[(i % 16) as usize];
        let op = match i % 3 {
            0 => update((i % 11) as u8, i),
            1 => lookup((i % 11) as u8),
            _ => delete((i % 7) as u8),
        };
        tickets.push(r.submit(c, op).expect("admitted"));
        if i % 32 == 31 {
            r.turn(16);
        }
    }
    r.drain();
    let acks = r.take_acks();
    assert_eq!(acks.len(), tickets.len());
    let mut seen: Vec<(u32, u64)> = acks.iter().map(|a| (a.client.index() as u32, a.seq)).collect();
    let mut expect: Vec<(u32, u64)> =
        tickets.iter().map(|t| (t.client.index() as u32, t.seq)).collect();
    seen.sort_unstable();
    expect.sort_unstable();
    assert_eq!(seen, expect, "every admitted op acked exactly once");
}

#[test]
fn overload_sheds_with_a_typed_error() {
    let mut r = reactor(ReactorOptions {
        admission: AdmissionConfig { max_queued_per_client: 4, max_queued_total: 4096 },
        ..Default::default()
    });
    let c = r.connect();
    let mut admitted = 0;
    let mut shed = 0;
    for i in 0..10u64 {
        match r.submit(c, update(1, i)) {
            Ok(_) => admitted += 1,
            Err(ServeError::Overloaded { limit, .. }) => {
                assert_eq!(limit, 4);
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(admitted, 4);
    assert_eq!(shed, 6);
    assert_eq!(r.stats().shed_ops, 6);
    r.drain();
    assert_eq!(r.take_acks().len(), 4, "admitted ops still ack after the shed burst");
    let slo = r.slo().snapshot();
    assert_eq!(slo.shed, 6);
    assert_eq!(slo.failed, 0, "shedding is backpressure, not failure");
}

#[test]
fn a_light_client_is_not_starved_by_a_flooder() {
    let mut r = reactor(ReactorOptions {
        admission: AdmissionConfig { max_queued_per_client: 2048, max_queued_total: 8192 },
        ..Default::default()
    });
    let flooder = r.connect();
    let light = r.connect();
    for i in 0..1000u64 {
        r.submit(flooder, update((i % 13) as u8, i)).expect("admitted");
    }
    r.submit(light, lookup(1)).expect("admitted");
    // The first non-empty harvest must already contain the light
    // client's ack: round-robin collection puts one op per client into
    // the very first device batch.
    let mut first: Vec<Ack> = Vec::new();
    for _ in 0..200 {
        r.turn(64);
        first = r.take_acks();
        if !first.is_empty() {
            break;
        }
    }
    assert!(
        first.iter().any(|a| a.client == light),
        "light client's op missing from the first completed batch"
    );
    assert!(!r.idle(), "the flooder's backlog is still being worked");
}

#[test]
fn coalesced_acks_are_identical_to_uncoalesced() {
    // One client, so the serialization order is the queue order in both
    // runs regardless of how batching cuts it — any ack difference is
    // then attributable to coalescing alone. (With multiple clients the
    // round-robin sweeps legitimately interleave differently when batch
    // sizes change, which is a scheduling property, not a correctness
    // one.)
    let run = |no_coalesce: bool| -> (Vec<(u32, u64, String)>, u64, u64) {
        let mut r = reactor(ReactorOptions {
            no_coalesce,
            admission: AdmissionConfig { max_queued_per_client: 512, max_queued_total: 4096 },
            ..Default::default()
        });
        let c = r.connect();
        for i in 0..240u64 {
            // Runs of same-key updates and lookups so the coalescer has
            // real work, plus deletes and distinct keys as barriers.
            let op = match i % 8 {
                0..=2 => update(3, i),
                3 | 4 => lookup(3),
                5 => update((i % 5) as u8, i),
                6 => lookup((i % 5) as u8),
                _ => delete((i % 4) as u8),
            };
            r.submit(c, op).expect("admitted");
            if i % 24 == 23 {
                r.turn(8);
            }
        }
        r.drain();
        let mut acks: Vec<(u32, u64, String)> = r
            .take_acks()
            .iter()
            .map(|a| (a.client.index() as u32, a.seq, format!("{:?}", a.result)))
            .collect();
        acks.sort();
        let s = r.stats();
        (acks, s.coalesce.ops_in, s.coalesce.ops_out)
    };
    let (plain, pin, pout) = run(true);
    let (coalesced, cin, cout) = run(false);
    assert_eq!(pin, pout, "no_coalesce must be a true identity schedule");
    assert!(cout < cin, "the storm pattern must actually coalesce ({cout} vs {cin})");
    assert_eq!(plain, coalesced, "coalescing changed a client-visible result");
}

#[test]
fn a_shared_frame_answers_each_client_on_its_own() {
    // Three clients, one op each per turn, on the 4-entry stats array.
    // Turn one: two in-range lookups and an out-of-range one, whose error
    // depends on the map rather than on the key's size, so the coalescer
    // cannot see it coming. Turn two: a gather a client wrote itself
    // beside two lookups. Whichever client the sweep starts at, sharing
    // frames must leave each ack what the verbatim schedule gives: the
    // bad index fails alone, and the client's gather comes back with
    // exactly its own keys.
    let stats = simple_firewall::STATS_MAP;
    let index = |i: u32| i.to_le_bytes().to_vec();
    let look = |i: u32| HostOp::Lookup { map: stats, key: index(i) };
    let run = |no_coalesce: bool| -> (Vec<Ack>, u64) {
        let mut r = reactor(ReactorOptions { no_coalesce, ..Default::default() });
        let clients = [r.connect(), r.connect(), r.connect()];
        let set =
            HostOp::Update { map: stats, key: index(1), value: val(77), flags: UpdateFlags::Any };
        r.submit(clients[0], set).expect("admitted");
        r.drain();
        r.take_acks();
        let gather = HostOp::Gather { map: stats, keys: vec![index(1), index(9)] };
        let mut acks = Vec::new();
        for turn in [[look(1), look(4), look(0)], [gather, look(1), look(0)]] {
            for (c, op) in clients.iter().zip(turn) {
                r.submit(*c, op).expect("admitted");
            }
            r.drain();
            let mut got = r.take_acks();
            got.sort_by_key(|a| a.client.index());
            acks.append(&mut got);
        }
        (acks, r.stats().coalesce.lookups_shared)
    };
    let (shared, lookups_shared) = run(false);
    let (verbatim, _) = run(true);
    assert!(lookups_shared >= 3, "turn one's lookups must share a frame ({lookups_shared})");
    assert_eq!(shared, verbatim, "sharing a frame changed a client's answer");
    let oob = |index| MapError::IndexOutOfBounds { index, max: 4 };
    let want = [
        Ok(HostOpResult::Value(Some(val(77)))),
        Err(oob(4)),
        Ok(HostOpResult::Value(Some(val(0)))),
        Ok(HostOpResult::Values(vec![Ok(Some(val(77))), Err(oob(9))])),
        Ok(HostOpResult::Value(Some(val(77)))),
        Ok(HostOpResult::Value(Some(val(0)))),
    ];
    assert_eq!(shared.iter().map(|a| a.result.clone()).collect::<Vec<_>>(), want);
}

#[test]
fn lossy_channel_acks_are_exactly_once() {
    let mut r = Reactor::new(
        &design(),
        ReactorOptions {
            runtime: RuntimeOptions {
                ctrl: CtrlOptions { latency_cycles: 4, queue_depth: 8 },
                loss: CtrlLossConfig::uniform(0xD1CE, 0.10),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let clients: Vec<_> = (0..4).map(|_| r.connect()).collect();
    let mut tickets = Vec::new();
    for i in 0..120u64 {
        let c = clients[(i % 4) as usize];
        let op = if i % 2 == 0 { update((i % 9) as u8, i) } else { lookup((i % 9) as u8) };
        tickets.push(r.submit(c, op).expect("admitted"));
        if i % 8 == 7 {
            r.turn(32);
        }
    }
    r.drain();
    let acks = r.take_acks();
    assert_eq!(acks.len(), tickets.len(), "every admitted op acked despite 10% loss");
    let rel = r.runtime_stats().reliability.expect("lossy channel uses the reliable layer");
    assert_eq!(rel.gave_up, 0, "no op abandoned");
    assert!(rel.retries > 0, "10% loss must force retransmissions");
}

#[test]
fn campaign_smoke_meets_the_slo_gates() {
    let report = run_campaign(&CampaignConfig {
        clients: 16,
        flows: 64,
        packets_per_phase: 300,
        ops_per_phase: 80,
        ..Default::default()
    });
    assert_eq!(report.phases.len(), 4);
    assert!(
        report.overall.availability >= 0.999,
        "lossless serving phases must not fail requests (availability {})",
        report.overall.availability
    );
    assert!(report.overall.op_p999_cycles > 0);
    assert!(report.overall.pkt_p999_cycles > 0);
    assert!(report.swaps >= 1, "the reload phase must complete a live swap");
    assert!(report.swap_downtime_cycles > 0);
    assert!(
        report.reactor.coalesce.updates_collapsed + report.reactor.coalesce.lookups_shared > 0,
        "the hot-key storm must exercise coalescing"
    );
    assert_eq!(report.kill.detected, 1, "the kill must be detected");
    assert!(
        report.kill.availability >= 0.99,
        "request-level availability {:.4} under a single kill fell below 0.99",
        report.kill.availability
    );
    assert!(report.kill.retried > 0, "the dead FIFO's punted frames must be re-offered");
    assert_eq!(report.kill.drained_unrecovered, 0, "one retry pass recovers every punted frame");
    assert_eq!(
        report.kill.offered,
        report.kill.completed
            + report.kill.drained_unrecovered
            + report.kill.discarded
            + report.kill.dropped,
        "kill-storm packets must all be accounted"
    );
    assert_eq!(report.lossy.gave_up, 0);
    assert_eq!(report.lossy.lost_acked, 0, "every admitted op acked under 10% loss");
    assert!(report.lossy.retries > 0);
}
