//! Drain-and-swap reload: measured downtime, keyspec map migration,
//! carried-over retired work, and correct traffic behavior across epochs.

use ehdl_core::{Compiler, PipelineDesign};
use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
use ehdl_ebpf::maps::{MapDef, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_ebpf::Program;
use ehdl_hwsim::{CtrlOptions, HostOp, HostOpResult};
use ehdl_programs::{simple_firewall, suricata};
use ehdl_runtime::{Runtime, RuntimeOptions};
use ehdl_traffic::{FlowSet, Popularity, Workload};

fn compile(p: &Program) -> PipelineDesign {
    Compiler::new().compile(p).expect("program compiles")
}

fn runtime_for(design: &PipelineDesign) -> Runtime {
    Runtime::new(
        design,
        RuntimeOptions {
            ctrl: CtrlOptions { latency_cycles: 4, queue_depth: 64 },
            ..Default::default()
        },
    )
}

/// The tiny-map counter program at a configurable capacity, for
/// migration-overflow coverage.
fn counter_program(capacity: u32) -> Program {
    let mut a = Asm::new();
    let skip = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::B, 2, 7, 0);
    a.store_reg(MemSize::W, 10, -8, 2);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -8);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
    a.load(MemSize::Dw, 6, 0, 0);
    a.bind(skip);
    a.alu64_imm(AluOp::Add, 6, 1);
    a.store_reg(MemSize::Dw, 10, -16, 6);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -8);
    a.mov64_reg(3, 10);
    a.alu64_imm(AluOp::Add, 3, -16);
    a.mov64_imm(4, 0);
    a.call(BPF_MAP_UPDATE_ELEM);
    a.mov64_imm(0, 3);
    a.exit();
    Program::new(
        "counter",
        a.into_insns(),
        vec![MapDef::new(0, "cells", MapKind::Hash, 4, 8, capacity)],
    )
}

fn firewall_packets(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let flows = FlowSet::udp(32, seed);
    Workload::new(flows, Popularity::Uniform, 64, seed + 1).packets(n)
}

#[test]
fn reload_to_same_program_migrates_all_state() {
    let design = compile(&simple_firewall::program());
    let mut rt = runtime_for(&design);
    for p in firewall_packets(200, 71) {
        assert!(rt.enqueue(p));
    }
    rt.settle();
    let sessions_before = rt.maps().get(simple_firewall::SESSIONS_MAP).expect("sessions").len();
    assert!(sessions_before > 0, "traffic opened sessions");

    let report = rt.reload(&design);
    assert!(report.dropped_maps.is_empty());
    assert_eq!(report.dropped_entries, 0);
    assert!(report.migrated_entries > 0);
    assert_eq!(
        rt.maps().get(simple_firewall::SESSIONS_MAP).expect("sessions").len(),
        sessions_before,
        "every session survived the swap"
    );
    assert_eq!(rt.stats().epoch, 1);
    assert_eq!(rt.swap_history().len(), 1);
}

#[test]
fn downtime_is_drain_plus_reconfiguration_and_is_measured() {
    let design = compile(&simple_firewall::program());
    let mut rt = runtime_for(&design);
    // Leave work in flight so the drain phase is non-trivial.
    for p in firewall_packets(50, 72) {
        assert!(rt.enqueue(p));
    }
    rt.submit(HostOp::Dump { map: simple_firewall::SESSIONS_MAP }).expect("dump accepted");
    let report = rt.reload(&design);
    assert!(report.drain_cycles > 0, "in-flight packets take cycles to drain");
    assert!(report.config_cycles >= ehdl_runtime::RECONFIG_BASE_CYCLES);
    assert_eq!(report.downtime_cycles, report.drain_cycles + report.config_cycles);
    assert!(report.downtime_ns > 0.0);
    // The modeled reconfiguration ran on the new design's clock.
    assert!(rt.stats().cycle >= report.config_cycles);
}

#[test]
fn swap_preserves_undrained_outcomes_and_completions() {
    let design = compile(&simple_firewall::program());
    let mut rt = runtime_for(&design);
    for p in firewall_packets(30, 73) {
        assert!(rt.enqueue(p));
    }
    rt.submit(HostOp::Dump { map: simple_firewall::SESSIONS_MAP }).expect("dump accepted");
    // Swap WITHOUT draining first: retired work must carry across.
    rt.reload(&design);
    assert_eq!(rt.drain().len(), 30, "packet outcomes survive the swap");
    assert_eq!(rt.completions().len(), 1, "host completions survive the swap");
}

#[test]
fn incompatible_program_drops_maps() {
    let design = compile(&simple_firewall::program());
    let mut rt = runtime_for(&design);
    for p in firewall_packets(100, 74) {
        assert!(rt.enqueue(p));
    }
    rt.settle();
    rt.drain();
    let new_design = compile(&suricata::program());
    let report = rt.reload(&new_design);
    // No firewall map has a name+keyspec match in the IDS design.
    assert!(report.migrated_maps.is_empty());
    assert_eq!(report.dropped_maps.len(), design.maps.len());
    assert_eq!(report.migrated_entries, 0);
    // The new epoch starts with empty maps and still processes traffic.
    assert_eq!(rt.maps().get(suricata::ACL_MAP).expect("acl").len(), 0);
    let flows = FlowSet::tcp(8, 75);
    for p in Workload::new(flows, Popularity::Uniform, 64, 76).packets(50) {
        assert!(rt.enqueue(p));
    }
    rt.settle();
    assert_eq!(rt.drain().len(), 50);
}

#[test]
fn smaller_successor_map_counts_dropped_entries() {
    let big = compile(&counter_program(64));
    let small = compile(&counter_program(4));
    let mut rt = runtime_for(&big);
    for i in 0..10u8 {
        rt.submit(HostOp::Update {
            map: 0,
            key: vec![i, 0, 0, 0],
            value: vec![i, 0, 0, 0, 0, 0, 0, 0],
            flags: UpdateFlags::Any,
        })
        .expect("update accepted");
    }
    rt.settle();
    assert_eq!(rt.maps().get(0).expect("cells").len(), 10);

    let report = rt.reload(&small);
    assert_eq!(report.migrated_maps, vec![0], "same name+keyspec: still compatible");
    assert_eq!(report.migrated_entries + report.dropped_entries, 10);
    assert_eq!(report.migrated_entries, 4, "successor holds its capacity");
    assert_eq!(report.dropped_entries, 6);
    assert_eq!(rt.maps().get(0).expect("cells").len(), 4);
}

#[test]
fn traffic_flows_correctly_after_swap() {
    let design = compile(&counter_program(64));
    let mut rt = runtime_for(&design);
    let mk = |flow: u8| {
        let mut p = vec![0u8; 64];
        p[0] = flow;
        p
    };
    for _ in 0..5 {
        assert!(rt.enqueue(mk(1)));
    }
    rt.settle();
    rt.drain();
    let report = rt.reload(&design);
    assert_eq!(report.migrated_entries, 1);
    // Counting resumes from the migrated value: 5 before + 3 after = 8.
    for _ in 0..3 {
        assert!(rt.enqueue(mk(1)));
    }
    rt.settle();
    assert_eq!(rt.drain().len(), 3);
    rt.submit(HostOp::Lookup { map: 0, key: vec![1, 0, 0, 0] }).expect("lookup accepted");
    rt.settle();
    let comps = rt.completions();
    assert_eq!(comps.len(), 1);
    let Ok(HostOpResult::Value(Some(v))) = &comps[0].result else {
        panic!("expected a hit, got {:?}", comps[0].result);
    };
    assert_eq!(u64::from_le_bytes(v.as_slice().try_into().expect("8-byte value")), 8);
}

#[test]
fn repeated_swaps_accumulate_epochs_and_total_cycles() {
    let design = compile(&counter_program(16));
    let mut rt = runtime_for(&design);
    let mut last_total = 0;
    for epoch in 1..=3 {
        for i in 0..4u8 {
            let mut p = vec![0u8; 64];
            p[0] = i;
            assert!(rt.enqueue(p));
        }
        rt.settle();
        rt.reload(&design);
        let stats = rt.stats();
        assert_eq!(stats.epoch, epoch);
        assert!(stats.total_cycles > last_total, "clock is monotonic across swaps");
        last_total = stats.total_cycles;
    }
    assert_eq!(rt.swap_history().len(), 3);
    // State threaded through every swap: each flow was counted 3 times.
    rt.submit(HostOp::Dump { map: 0 }).expect("dump accepted");
    rt.settle();
    let comps = rt.completions();
    let Ok(HostOpResult::Entries(entries)) = &comps.last().expect("dump completion").result else {
        panic!("dump failed");
    };
    assert_eq!(entries.len(), 4);
    for (_, v) in entries.iter() {
        assert_eq!(u64::from_le_bytes(v.try_into().expect("8-byte value")), 3);
    }
}
