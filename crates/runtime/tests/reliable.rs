//! The reliable control protocol under a lossy channel, and the bounded
//! reload handshake's rollback path.
//!
//! The exactly-once gate: every op submitted over a channel that drops,
//! duplicates, corrupts, and delays frames must eventually complete with
//! exactly the result a lossless channel produces — retries are
//! idempotent, duplicate completions are suppressed, and the final map
//! state is reference-identical.

use ehdl_core::Compiler;
use ehdl_ebpf::maps::MapError;
use ehdl_ebpf::maps::{MapDef, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::MemSize;
use ehdl_ebpf::{asm::Asm, Program};
use ehdl_hwsim::{CtrlLossConfig, CtrlOptions, HostOp, HostOpResult, SimOptions};
use ehdl_runtime::{Runtime, RuntimeOptions, SwapError};

/// Pass-through program with one host-facing hash map: all the traffic
/// in these tests is control-plane.
fn host_map_program(entries: u32) -> Program {
    let mut a = Asm::new();
    a.load(MemSize::W, 7, 1, 0);
    a.mov64_imm(0, 3);
    a.exit();
    Program::new(
        "hostmap",
        a.into_insns(),
        vec![MapDef::new(0, "cells", MapKind::Hash, 8, 8, entries)],
    )
}

fn key(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

fn ops_schedule(n: u64) -> Vec<HostOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(HostOp::Update {
            map: 0,
            key: key(i % 16),
            value: (i * 7).to_le_bytes().to_vec(),
            flags: UpdateFlags::Any,
        });
        if i % 3 == 0 {
            ops.push(HostOp::Lookup { map: 0, key: key(i % 16) });
        }
        if i % 5 == 4 {
            ops.push(HostOp::Delete { map: 0, key: key((i + 1) % 16) });
        }
        if i % 4 == 1 {
            // A hit, a key nobody writes, and a key that may be deleted.
            let keys = vec![key(i % 16), key(99), key((i + 2) % 16)];
            ops.push(HostOp::Gather { map: 0, keys });
        }
    }
    ops
}

type OpResults = Vec<Result<HostOpResult, MapError>>;
type MapEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// A runtime on the host-map program behind an 8-deep mailbox with a
/// 4-cycle latency, over `loss`.
fn runtime(loss: CtrlLossConfig) -> Runtime {
    let design = Compiler::new().compile(&host_map_program(64)).expect("program compiles");
    Runtime::new(
        &design,
        RuntimeOptions {
            sim: SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
            ctrl: CtrlOptions { latency_cycles: 4, queue_depth: 8 },
            loss,
            ..Default::default()
        },
    )
}

fn drive(loss: CtrlLossConfig) -> (OpResults, MapEntries, Runtime) {
    let mut rt = runtime(loss);
    for op in ops_schedule(40) {
        // Submission never hard-fails on a full mailbox: the reliable
        // layer parks the op and retries. Let the channel drain a bit
        // between bursts so the 8-deep queue is exercised both ways.
        rt.submit(op).expect("structurally valid op");
        for _ in 0..8 {
            rt.step();
        }
    }
    rt.settle();
    let results: OpResults = rt.completions().into_iter().map(|c| c.result).collect();
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = rt
        .maps()
        .get(0)
        .expect("cells map")
        .iter()
        .map(|(_, k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    entries.sort();
    (results, entries, rt)
}

#[test]
fn lossy_channel_completes_every_op_exactly_once() {
    let (reference, ref_entries, _) = drive(CtrlLossConfig::lossless());
    let (lossy, lossy_entries, rt) = drive(CtrlLossConfig::uniform(0xFEED, 0.10));
    let stats = rt.reliable_stats().expect("lossy channel uses the reliable layer");
    assert_eq!(stats.gave_up, 0, "every op must eventually complete at 10% loss");
    assert_eq!(stats.completed, stats.ops, "no op lost or double-resolved");
    assert!(stats.retries > 0, "a 10% loss rate must force retransmissions");
    assert_eq!(
        lossy.len(),
        reference.len(),
        "exactly-once: completion count matches the lossless reference"
    );
    assert_eq!(lossy, reference, "retried op sequences are reference-identical");
    assert_eq!(lossy_entries, ref_entries, "final map state is reference-identical");
}

#[test]
fn duplicate_completions_are_suppressed_not_delivered() {
    // A duplication-only channel: every frame and completion may be
    // doubled but never lost, so dedupe machinery is isolated from
    // retry machinery.
    let cfg = CtrlLossConfig {
        seed: 7,
        drop_rate: 0.0,
        dup_rate: 0.5,
        corrupt_rate: 0.0,
        delay_rate: 0.0,
        max_extra_delay: 0,
    };
    let (reference, _, _) = drive(CtrlLossConfig::lossless());
    let (lossy, _, rt) = drive(cfg);
    let stats = rt.reliable_stats().expect("reliable layer attached");
    assert!(
        stats.dup_completions_suppressed > 0,
        "a 50% duplication rate must produce suppressed duplicates"
    );
    assert_eq!(lossy, reference, "duplicates never change delivered results");
}

#[test]
fn completions_polled_every_step_deliver_each_op_once() {
    // The reactor drains completions every turn, so a duplicate completion
    // (or the answer to a retransmission) can arrive after its op was
    // already delivered. It must be suppressed then too.
    let (reference, _, _) = drive(CtrlLossConfig::lossless());
    for seed in 0..20 {
        let mut rt = runtime(CtrlLossConfig {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.3,
            corrupt_rate: 0.0,
            delay_rate: 0.3,
            max_extra_delay: 200,
        });
        let mut delivered = Vec::new();
        for op in ops_schedule(40) {
            rt.submit(op).expect("structurally valid op");
            for _ in 0..8 {
                rt.step();
                delivered.extend(rt.completions());
            }
        }
        for _ in 0..1_000_000 {
            if rt.ops_in_flight() == 0 {
                break;
            }
            rt.step();
            delivered.extend(rt.completions());
        }
        rt.settle();
        delivered.extend(rt.completions());
        let results: OpResults = delivered.into_iter().map(|c| c.result).collect();
        assert_eq!(results.len(), reference.len(), "seed {seed}: one delivery per op");
        assert_eq!(results, reference, "seed {seed}: deliveries match the lossless run");
        let stats = rt.reliable_stats().expect("reliable layer attached");
        assert!(stats.dup_completions_suppressed > 0, "seed {seed}: duplicates are counted");
    }
}

#[test]
fn a_retransmitted_gather_is_answered_from_the_applied_cache() {
    let mut rt = runtime(CtrlLossConfig::uniform(0x6A7E, 0.10));
    // Provision outside the channel, so every frame on it is a gather
    // and every retry, dedupe hit and device application below is one's.
    let cells = rt.maps_mut().get_mut(0).expect("cells map");
    for i in 0..16u64 {
        cells.update(&key(i), &(i * 7).to_le_bytes(), UpdateFlags::Any).expect("provision");
    }
    let gathers = 80u64;
    let mut want = Vec::new();
    for g in 0..gathers {
        let picks = [g % 16, 99, (g * 5 + 3) % 16, g % 16];
        rt.submit(HostOp::Gather { map: 0, keys: picks.iter().map(|&i| key(i)).collect() })
            .expect("structurally valid op");
        let value = |i: u64| (i < 16).then(|| (i * 7).to_le_bytes().to_vec());
        want.push(Ok(HostOpResult::Values(picks.iter().map(|&i| Ok(value(i))).collect())));
        for _ in 0..8 {
            rt.step();
        }
    }
    rt.settle();
    let results: OpResults = rt.completions().into_iter().map(|c| c.result).collect();
    assert_eq!(results, want, "one completion per gather, hits and misses in key order");
    let stats = rt.stats();
    let reliable = rt.reliable_stats().expect("lossy channel uses the reliable layer");
    assert_eq!((reliable.gave_up, reliable.completed), (0, gathers));
    assert!(reliable.retries > 0, "a 10% loss rate must force retransmissions");
    assert_eq!(stats.counters.host_ops, gathers, "each gather touched the map exactly once");
    assert!(
        stats.ctrl.dedupe_hits > 0,
        "some retransmission followed a lost completion and was answered from the cache"
    );
}

#[test]
fn telemetry_reports_the_reliability_section() {
    let (_, _, rt) = drive(CtrlLossConfig::uniform(3, 0.10));
    let json = rt.stats().to_json();
    assert!(json.contains("\"reliability\""), "lossy runtimes export reliability stats");
    assert!(json.contains("\"retries\""), "retry counts are visible to operators");
    let (_, _, rt) = drive(CtrlLossConfig::lossless());
    assert!(
        !rt.stats().to_json().contains("\"reliability\""),
        "lossless runtimes omit the section"
    );
}

#[test]
fn reload_rolls_back_cleanly_when_the_drain_times_out() {
    let design = Compiler::new().compile(&host_map_program(64)).expect("program compiles");
    let bigger = Compiler::new().compile(&host_map_program(128)).expect("program compiles");
    let mut rt = Runtime::new(
        &design,
        RuntimeOptions {
            sim: SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
            ctrl: CtrlOptions { latency_cycles: 2000, queue_depth: 64 },
            ..Default::default()
        },
    );
    rt.maps_mut()
        .get_mut(0)
        .expect("cells map")
        .update(&key(1), &7u64.to_le_bytes(), UpdateFlags::Any)
        .expect("provision");
    // A high-latency op is still in flight when the swap handshake
    // starts; a 10-cycle budget cannot drain it.
    rt.submit(HostOp::Lookup { map: 0, key: key(1) }).expect("submit");
    let err = rt.try_reload(&bigger, 10).expect_err("drain cannot finish in 10 cycles");
    let SwapError::DrainTimeout { waited_cycles, host_ops_pending, .. } = err else {
        panic!("expected a drain timeout, got {err}");
    };
    assert_eq!(waited_cycles, 10);
    assert!(host_ops_pending > 0, "the undrained op is visible in the error");
    // Clean rollback: the old design is still loaded and serving, the
    // aborted attempt left no trace in the swap history, and the
    // in-flight op still completes.
    assert_eq!(rt.design().maps[0].max_entries, 64, "old design still loaded");
    assert!(rt.swap_history().is_empty(), "aborted attempt is not recorded");
    rt.settle();
    let comps = rt.completions();
    assert_eq!(comps.len(), 1, "the in-flight op survived the aborted swap");
    assert_eq!(
        comps[0].result,
        Ok(HostOpResult::Value(Some(7u64.to_le_bytes().to_vec()))),
        "and returned the provisioned value"
    );
    // With the pipeline quiet the same reload now succeeds and migrates.
    let report = rt.try_reload(&bigger, 1_000_000).expect("quiet pipeline swaps cleanly");
    assert_eq!(report.migrated_entries, 1);
    assert_eq!(rt.design().maps[0].max_entries, 128);
    assert_eq!(rt.swap_history().len(), 1);
}
