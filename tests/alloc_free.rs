//! Allocation-count regression test for the simulator hot loop.
//!
//! The zero-allocation claim for the enabled-stage fast path is enforced
//! directly: a counting global allocator observes every heap call, and a
//! steady-state `step()` that neither completes a packet nor fires a
//! hazard must perform exactly zero of them. The map storage under it is
//! held to the same standard: reusing, evicting and deleting make no heap
//! call, seeding makes O(log n), an array costs the same at any size.
//!
//! The count is per thread (a const-initialised `thread_local!` cell, as
//! in `perf/src/alloc.rs`): the harness runs these tests on parallel
//! threads, and a window measured on one thread must not see another
//! test's set-up allocating. No lock, so a failing test cannot poison its
//! siblings either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ehdl::core::Compiler;
use ehdl::ebpf::asm::Asm;
use ehdl::ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
use ehdl::ebpf::maps::{Map, MapDef, MapKind, MapStore, UpdateFlags};
use ehdl::ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl::ebpf::Program;
use ehdl::hwsim::{HostOpResult, PipelineSim};
use ehdl::programs::{simple_firewall, App};
use ehdl::serve::{Ack, ClientId, Reactor, ReactorOptions};
use ehdl::traffic::{ControlOp, ControlOpKind};
use ehdl_bench::{eval_packets, setup_app};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates (the cell is const-initialised) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::alloc`, forwarded as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as `GlobalAlloc::realloc`, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as `GlobalAlloc::dealloc`, forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A branchy, map-free packet transform: reads two bytes, takes one of
/// two ALU paths, writes the result back. Exercises predication and the
/// per-stage write set without any map traffic.
fn alu_program() -> Program {
    let mut a = Asm::new();
    let els = a.new_label();
    let join = a.new_label();
    a.load(MemSize::W, 7, 1, 0); // r7 = data
    a.load(MemSize::B, 2, 7, 0);
    a.load(MemSize::B, 3, 7, 1);
    a.jmp_imm(JmpOp::Jgt, 2, 0x40, els);
    a.alu64_reg(AluOp::Add, 2, 3);
    a.alu64_imm(AluOp::And, 2, 0xff);
    a.jmp(join);
    a.bind(els);
    a.alu64_imm(AluOp::Xor, 2, 0x5a);
    a.bind(join);
    a.store_reg(MemSize::B, 7, 2, 2);
    a.mov64_imm(0, 3); // XDP_TX
    a.exit();
    Program::from_insns(a.into_insns())
}

/// A write-only map program: key and value come straight from the packet,
/// `bpf_map_update_elem` stores them. No reads of the map means no FEB
/// and no WAR delay — the write commits immediately, exercising the
/// undelayed map-write path.
fn map_write_program() -> Program {
    let mut a = Asm::new();
    a.load(MemSize::W, 7, 1, 0); // r7 = data
    a.load(MemSize::W, 2, 7, 0); // key = bytes 0..4
    a.store_reg(MemSize::W, 10, -8, 2);
    a.load(MemSize::Dw, 3, 7, 4); // value = bytes 4..12
    a.store_reg(MemSize::Dw, 10, -16, 3);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -8);
    a.mov64_reg(3, 10);
    a.alu64_imm(AluOp::Add, 3, -16);
    a.mov64_imm(4, 0);
    a.call(BPF_MAP_UPDATE_ELEM);
    a.mov64_imm(0, 2); // XDP_PASS
    a.exit();
    Program::new("mapwrite", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 256)])
}

/// Warm `sim` with one batch of `packets`, then re-run the batch cycle by
/// cycle asserting every non-retiring `step()` performs zero heap calls.
/// (Retiring cycles push onto the outcome queue, whose growth is not
/// steady-state.)
fn assert_steady_state_alloc_free(sim: &mut PipelineSim, packets: &[Vec<u8>]) {
    // Two warm-up batches: the first grows the long-lived buffers, the
    // second lets pooled snapshot boxes and recycled frames reach their
    // high-water capacities (a box recycled early in batch one can carry
    // a smaller read-set vector than the packet it backs in batch two).
    for _ in 0..2 {
        for p in packets {
            assert!(sim.enqueue(p.clone()));
        }
        sim.settle(100_000);
    }
    let warm = sim.counters().completed;
    assert_eq!(warm, 2 * packets.len() as u64);

    for p in packets {
        assert!(sim.enqueue(p.clone()));
    }
    let target = warm + packets.len() as u64;
    let mut checked = 0u64;
    while sim.counters().completed < target {
        let completed_before = sim.counters().completed;
        let before = allocs();
        sim.step();
        let delta = allocs() - before;
        if sim.counters().completed == completed_before {
            assert_eq!(
                delta,
                0,
                "cycle {}: non-retiring step allocated {} time(s)",
                sim.cycle(),
                delta
            );
            checked += 1;
        }
        assert!(sim.cycle() < 1_000_000, "pipeline wedged");
    }
    assert!(checked > 0, "expected to measure at least one non-retiring cycle");
}

#[test]
fn enabled_stage_fast_path_is_allocation_free() {
    let design = Compiler::new().compile(&alu_program()).expect("compiles");
    let packets: Vec<Vec<u8>> = (0..32)
        .map(|i| {
            let mut p = vec![0u8; 64];
            p[0] = i as u8;
            p[1] = (i * 7) as u8;
            p
        })
        .collect();
    assert_steady_state_alloc_free(&mut PipelineSim::new(&design), &packets);
}

#[test]
fn map_write_steps_are_allocation_free() {
    let design = Compiler::new().compile(&map_write_program()).expect("compiles");
    // Distinct 4-byte keys so no two in-flight packets collide (not that
    // a write-only program could flush — there is no FEB to trip). The
    // warm-up batch inserts all 64 keys (first-touch inserts grow the
    // table's storage); the measured batch hits existing slots only.
    let packets: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let mut p = vec![0u8; 64];
            p[..4].copy_from_slice(&(i as u32).to_le_bytes());
            p[4..12].copy_from_slice(&(i as u64 * 3).to_le_bytes());
            p
        })
        .collect();
    let mut sim = PipelineSim::new(&design);
    assert_steady_state_alloc_free(&mut sim, &packets);
    assert_eq!(sim.counters().flushes, 0, "write-only program never flushes");
}

/// A session-tracking shape: look the key up, then update it. The lookup
/// leaves an unconfirmed-read record (pooled key + read-filter bit) and
/// the RAW window forces FEB checkpoints, so this covers the full hot
/// loop: fused lookup, snapshot pooling, WAR-delayed writes and
/// whole-frame recycling through `complete()`.
fn lookup_update_program() -> Program {
    let mut a = Asm::new();
    let skip = a.new_label();
    a.load(MemSize::W, 7, 1, 0); // r7 = data
    a.load(MemSize::W, 2, 7, 0); // key = bytes 0..4
    a.store_reg(MemSize::W, 10, -8, 2);
    a.load(MemSize::Dw, 3, 7, 4); // value = bytes 4..12
    a.store_reg(MemSize::Dw, 10, -16, 3);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -8);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
    a.load(MemSize::Dw, 4, 0, 0); // touch the found value
    a.bind(skip);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -8);
    a.mov64_reg(3, 10);
    a.alu64_imm(AluOp::Add, 3, -16);
    a.mov64_imm(4, 0);
    a.call(BPF_MAP_UPDATE_ELEM);
    a.mov64_imm(0, 2); // XDP_PASS
    a.exit();
    Program::new("lkup", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 256)])
}

#[test]
fn compiled_lookup_hot_loop_is_allocation_free() {
    let design = Compiler::new().compile(&lookup_update_program()).expect("compiles");
    let packets: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let mut p = vec![0u8; 64];
            p[..4].copy_from_slice(&(i as u32).to_le_bytes());
            p[4..12].copy_from_slice(&(i as u64 * 3).to_le_bytes());
            p
        })
        .collect();
    let mut sim = PipelineSim::new(&design);
    assert_steady_state_alloc_free(&mut sim, &packets);
    assert_eq!(sim.counters().flushes, 0, "distinct in-flight keys never collide");
}

/// The router's route lookup shares its stage with a packet store, which
/// runs first, in place. The lookup's read record comes from the key pool
/// there too.
#[test]
fn router_shared_stage_lookup_is_allocation_free() {
    let design = Compiler::new().compile(&App::Router.program()).expect("compiles");
    let mut sim = PipelineSim::new(&design);
    setup_app(App::Router, sim.maps_mut());
    let lookups_before: u64 = sim.map_lookups().iter().sum();
    assert_steady_state_alloc_free(&mut sim, &eval_packets(App::Router, 64));
    let lookups: u64 = sim.map_lookups().iter().sum();
    assert!(lookups > lookups_before, "the trace must reach the route lookup");
}

/// Once the frame pool is warm a packet costs no heap call from `enqueue`
/// to retirement: the outcome leaves in the buffer the packet arrived in
/// and the frame keeps its datapath buffer. What is left is the outcome
/// queue doubling, a handful of calls however many packets pass.
#[test]
fn a_warm_packet_costs_no_allocation() {
    const PACKETS: u64 = 512;
    let design = Compiler::new().compile(&alu_program()).expect("compiles");
    let mut sim = PipelineSim::new(&design);
    let batch = || (0..PACKETS).map(|i| vec![i as u8; 64]).collect::<Vec<_>>();
    for p in batch() {
        assert!(sim.enqueue(p));
        sim.step();
    }
    sim.settle(100_000);

    let measured = batch();
    let before = allocs();
    for p in measured {
        assert!(sim.enqueue(p));
        sim.step();
    }
    sim.settle(100_000);
    let spent = allocs() - before;
    assert_eq!(sim.counters().completed, 2 * PACKETS);
    assert!(spent <= 4, "{PACKETS} warm packets made {spent} heap calls");
    let outs = sim.drain();
    assert!(outs.iter().all(|o| o.packet.len() == 64 && o.packet.capacity() == 64));
}

/// Attaching a simulator lowers the design and sizes its per-stage and
/// per-map tables: a fixed number of heap calls whatever the maps' capacity
/// (map storage is allocated lazily, so the firewall's session table at
/// 2^20 entries costs what it does at 32,768). No copy of the design:
/// 113 heap calls while the simulator cloned it, 23 since.
#[test]
fn attaching_costs_heap_calls_independent_of_map_capacity() {
    let design = Compiler::new().compile(&simple_firewall::program()).expect("compiles");
    let mut big = design.clone();
    let sessions = big.maps.iter_mut().find(|m| m.id == simple_firewall::SESSIONS_MAP);
    sessions.expect("sessions map").max_entries = 1 << 20;
    let cost = |design| {
        let before = allocs();
        let sim = PipelineSim::new(design);
        let spent = allocs() - before;
        drop(sim);
        spent
    };
    let calls = cost(&design);
    println!("attach: {calls} heap calls");
    assert_eq!(cost(&big), calls, "attach heap calls grew with map capacity");
    assert!(calls <= 23, "attach made {calls} heap calls");
}

/// A session key of the firewall's table: `i` in its first four bytes.
fn session(i: u32) -> Vec<u8> {
    let mut key = vec![0u8; 13];
    key[..4].copy_from_slice(&i.to_le_bytes());
    key
}

/// A client op on the firewall's session table.
fn sessions_op(kind: ControlOpKind, key: Vec<u8>, value: Vec<u8>) -> ControlOp {
    ControlOp { kind, map: simple_firewall::SESSIONS_MAP, key, value }
}

/// A firewall reactor with two clients whose session table holds
/// `sessions` entries, session `i` valued `i`, every install acked.
fn firewall_reactor(no_coalesce: bool, sessions: u32) -> (Reactor, [ClientId; 2]) {
    let design = Compiler::new().compile(&simple_firewall::program()).expect("compiles");
    let mut reactor = Reactor::new(&design, ReactorOptions { no_coalesce, ..Default::default() });
    let clients = [reactor.connect(), reactor.connect()];
    for i in 0..sessions {
        let install =
            sessions_op(ControlOpKind::Update, session(i), u64::from(i).to_le_bytes().to_vec());
        reactor.submit_control(clients[0], &install).expect("admitted");
        if i % 32 == 31 {
            reactor.drain();
        }
    }
    reactor.drain();
    assert_eq!(reactor.take_acks().len(), sessions as usize);
    let table = reactor.runtime().maps().get(simple_firewall::SESSIONS_MAP).expect("sessions");
    assert_eq!(table.len(), sessions as usize);
    (reactor, clients)
}

/// Submit `ops` and turn the reactor until each is acked; returns the acks
/// and the heap calls spent from the first submit to the last ack.
fn serve(reactor: &mut Reactor, ops: &[(ClientId, ControlOp)]) -> (Vec<Ack>, u64) {
    let before = allocs();
    for (client, op) in ops {
        reactor.submit_control(*client, op).expect("admitted");
    }
    let mut acks = Vec::new();
    while acks.len() < ops.len() {
        reactor.turn(8);
        acks.append(&mut reactor.take_acks());
    }
    (acks, allocs() - before)
}

/// Two clients each look one session up in the same turn, against a
/// table holding 5,000. The reactor shares one frame between them, and
/// what that frame costs must follow the two keys it names, not the
/// table.
#[test]
fn shared_lookups_cost_their_keys_not_the_table() {
    const SESSIONS: u32 = 5_000;
    // The same two lookups — one hit, one miss — through a coalescing and
    // a verbatim reactor; returns the acks and the heap calls they cost.
    let run = |no_coalesce: bool| -> (Vec<Ack>, u64) {
        let (mut reactor, [a, b]) = firewall_reactor(no_coalesce, SESSIONS);
        let lookups = [
            (a, sessions_op(ControlOpKind::Lookup, session(4_321), Vec::new())),
            (b, sessions_op(ControlOpKind::Lookup, session(SESSIONS), Vec::new())),
        ];
        let device_ops = reactor.stats().device_ops;
        let (mut acks, spent) = serve(&mut reactor, &lookups);
        // Round-robin collection starts at either client.
        acks.sort_by_key(|ack| ack.client.index());
        let frames = reactor.stats().device_ops - device_ops;
        assert_eq!(frames, if no_coalesce { 2 } else { 1 }, "the two lookups share one frame");
        (acks, spent)
    };
    let (shared, spent) = run(false);
    let (verbatim, _) = run(true);
    assert_eq!(shared, verbatim, "sharing a frame changes no answer");
    assert_eq!(shared[0].result, Ok(HostOpResult::Value(Some(4_321u64.to_le_bytes().to_vec()))));
    assert_eq!(shared[1].result, Ok(HostOpResult::Value(None)));
    assert!(spent <= 64, "two shared lookups over {SESSIONS} sessions made {spent} heap calls");
}

/// A client's dump of a 5,000-session table, from submit to ack. The rows
/// are built once, as one key buffer and one value buffer, and moved to
/// the client, so the dump costs the same few heap calls at any table
/// size.
#[test]
fn a_client_dump_costs_heap_calls_independent_of_the_table() {
    const SESSIONS: u32 = 5_000;
    let (mut reactor, [a, _]) = firewall_reactor(false, SESSIONS);
    let dump = sessions_op(ControlOpKind::Dump, Vec::new(), Vec::new());
    let (acks, spent) = serve(&mut reactor, &[(a, dump)]);
    let Ok(HostOpResult::Entries(rows)) = &acks[0].result else {
        panic!("dump failed: {:?}", acks[0].result)
    };
    assert_eq!(rows.len(), SESSIONS as usize);
    for (key, value) in rows.iter() {
        let i = u32::from_le_bytes(key[..4].try_into().expect("4 bytes"));
        assert_eq!((key, value), (&session(i)[..], &u64::from(i).to_le_bytes()[..]));
    }
    assert!(spent <= 64, "a dump of {SESSIONS} sessions made {spent} heap calls");
}

/// A 13-byte flow key, the width of every bundled flow table's.
fn flow_key(i: u32) -> [u8; 13] {
    let mut key = [0u8; 13];
    key[..4].copy_from_slice(&i.to_le_bytes());
    key[12] = 17;
    key
}

/// Map storage is flat arrays and an index sized by the high-water mark,
/// so taking a freed slot, evicting and deleting write in place: churn at
/// a steady population makes no heap call, however many tombstone
/// rebuilds it runs through.
#[test]
fn map_churn_makes_no_heap_call() {
    const LIVE: u32 = 1_024;
    for kind in [MapKind::Hash, MapKind::LruHash] {
        let mut map = Map::new(MapDef::new(0, "flows", kind, 13, 8, LIVE));
        for i in 0..LIVE {
            map.update(&flow_key(i), &[0; 8], UpdateFlags::Any).expect("fits");
        }
        let before = allocs();
        for i in LIVE..20 * LIVE {
            // The LRU map evicts the oldest key itself; the hash map is told to.
            if kind == MapKind::Hash {
                map.delete(&flow_key(i - LIVE)).expect("live");
            }
            map.update(&flow_key(i), &u64::from(i).to_le_bytes(), UpdateFlags::Any).expect("fits");
        }
        let spent = allocs() - before;
        assert_eq!(spent, 0, "{kind}: churn made {spent} heap calls");
        assert_eq!(map.len(), LIVE as usize);
    }
}

/// Seeding a table grows its arrays and index by doubling: O(log n) heap
/// calls for n fresh keys (a heap-allocated entry per key once cost 3n).
#[test]
fn seeding_fresh_keys_costs_logarithmic_heap_calls() {
    const KEYS: u32 = 100_000;
    let mut map = Map::new(MapDef::new(0, "buckets", MapKind::Hash, 13, 16, 262_144));
    let before = allocs();
    for i in 0..KEYS {
        map.update(&flow_key(i), &[0; 16], UpdateFlags::NoExist).expect("fits");
    }
    let spent = allocs() - before;
    assert!(spent as f64 <= 6.0 * f64::from(KEYS).log2(), "{KEYS} inserts made {spent} heap calls");
    assert_eq!(map.len(), KEYS as usize);
}

/// An array map is two zero-filled allocations whatever its size.
#[test]
fn an_array_store_costs_the_same_heap_calls_at_any_size() {
    let cost = |max_entries: u32| {
        let defs = [MapDef::new(0, "stats", MapKind::Array, 4, 8, max_entries)];
        let before = allocs();
        let store = MapStore::new(&defs);
        let spent = allocs() - before;
        assert_eq!(store.get(0).expect("map 0").len(), max_entries as usize);
        spent
    };
    let one = cost(1);
    for max_entries in [1_000, 1_000_000] {
        assert_eq!(cost(max_entries), one, "{max_entries} entries");
    }
}

/// Emission writes one buffer: a fixed number of heap calls per design
/// (the buffer, the sanitized name, two scratch vectors, the growth of
/// the buffer) on top of what the control inventory it prints costs on
/// its own — never one per line or per formatted piece.
#[test]
fn vhdl_emission_costs_a_constant_number_of_heap_calls() {
    use ehdl::core::{control_inventory, vhdl};
    use ehdl::programs::{leaky_bucket, toy_counter};
    let mut zoo: Vec<Program> = App::ALL.iter().map(|a| a.program()).collect();
    zoo.push(toy_counter::program());
    zoo.push(leaky_bucket::program());
    for program in &zoo {
        let design = Compiler::new().compile(program).expect("zoo programs compile");
        let before = allocs();
        let inventory = control_inventory(&design);
        let inventory_calls = allocs() - before;
        drop(inventory);
        let before = allocs();
        let text = vhdl::emit(&design);
        let spent = allocs() - before;
        assert!(!text.is_empty());
        assert!(
            spent <= 8 + inventory_calls,
            "{}: emit made {spent} heap calls, the inventory {inventory_calls}",
            program.name
        );
    }
}

/// A compile builds each artifact once: one decode (the verifier's), one
/// CFG, ASAP levels once per block, each schedule row moved into its
/// stage, and no heap vector per op or per abstract state. Heap calls of
/// `Compiler::compile` per zoo program, before → after that rework:
/// firewall 1,036 → 356, router 991 → 317, tunnel 1,059 → 311, DNAT
/// 1,126 → 385, Suricata 1,683 → 566, toy counter 555 → 218, leaky
/// bucket 964 → 357; Σ 7,414 → 2,510.
#[test]
fn compiling_the_zoo_stays_under_its_heap_call_budget() {
    use ehdl::programs::{leaky_bucket, toy_counter};
    let mut zoo: Vec<Program> = App::ALL.iter().map(|a| a.program()).collect();
    zoo.push(toy_counter::program());
    zoo.push(leaky_bucket::program());
    let compiler = Compiler::new();
    let mut total = 0;
    for program in &zoo {
        let before = allocs();
        let design = compiler.compile(program).expect("zoo programs compile");
        let spent = allocs() - before;
        drop(design);
        println!("{}: {spent} heap calls", program.name);
        total += spent;
    }
    assert!(total <= 4_000, "the zoo's compiles made {total} heap calls");
}
