//! Differential testing harness: the generated hardware must behave
//! exactly like the reference interpreter.
//!
//! For a packet sequence, the pipeline (with all its parallelism, flushes
//! and buffered writes) must produce, per packet, the same XDP action and
//! the same output bytes as running the program *sequentially* on the VM —
//! and the final map contents must agree. This is the central correctness
//! property of eHDL's consistency machinery (§4.1): hazards may cost
//! cycles, never correctness.

use crate::batch::{coalesce_ops, expand_results, CoalescedOp, MapShape};
use crate::ctrl::{gather_values, read_value, CtrlOptions, HostOp, HostOpResult};
use crate::fault::{FaultConfig, FaultEvent, FaultStats, ReplicaFaultConfig};
use crate::shared::{check_linearizable, ShardedNic, SharedMapOptions};
use crate::sim::{PipelineSim, SimCounters, SimOptions};
use ehdl_core::{Compiler, CompilerOptions, PipelineDesign};
use ehdl_ebpf::maps::{MapError, MapKind, MapStore};
use ehdl_ebpf::vm::{Vm, XdpAction};
use ehdl_ebpf::Program;

/// A per-packet divergence between the VM and the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Actions differ.
    Action {
        /// Packet sequence number.
        seq: usize,
        /// VM verdict.
        vm: XdpAction,
        /// Pipeline verdict.
        hw: XdpAction,
    },
    /// Output bytes differ.
    Packet {
        /// Packet sequence number.
        seq: usize,
        /// First differing byte offset.
        at: usize,
    },
    /// Final contents of a map differ.
    Map {
        /// Map id.
        map: u32,
    },
    /// The pipeline produced a different number of packets.
    Count {
        /// VM packet count.
        vm: usize,
        /// Pipeline packet count.
        hw: usize,
    },
    /// A compile-time proof (packet-bounds fact or statically-decided
    /// branch from `ehdl_ebpf::absint`) contradicted by a concrete
    /// execution in either engine — an analysis-soundness bug.
    Proof {
        /// Human-readable description of the violated proof.
        detail: String,
    },
    /// A host control-channel op returned a different result than the
    /// same op applied at the same position of the sequential reference.
    HostOp {
        /// Submission id (op order in the event schedule).
        id: u64,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The shared-map access history of a sharded run is not per-key
    /// linearizable — a replica observed a value canonical storage never
    /// held at that point (fabric or swap-discipline bug).
    Coherence {
        /// Human-readable violation description.
        detail: String,
    },
    /// A replica-failure invariant broke: a packet was lost without
    /// being accounted, a failure went undetected or blew its detection
    /// budget, or a loss hit a flow that never belonged to a failed
    /// replica.
    Loss {
        /// Human-readable violation description.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Action { seq, vm, hw } => {
                write!(f, "packet {seq}: vm={vm} hw={hw}")
            }
            Divergence::Packet { seq, at } => {
                write!(f, "packet {seq}: output bytes differ at offset {at}")
            }
            Divergence::Map { map } => write!(f, "map {map}: final contents differ"),
            Divergence::Count { vm, hw } => write!(f, "packet counts differ: vm={vm} hw={hw}"),
            Divergence::Proof { detail } => write!(f, "violated proof: {detail}"),
            Divergence::HostOp { id, detail } => write!(f, "host op {id}: {detail}"),
            Divergence::Coherence { detail } => write!(f, "coherence: {detail}"),
            Divergence::Loss { detail } => write!(f, "loss: {detail}"),
        }
    }
}

/// One element of an interleaved packet / host-op schedule
/// ([`compare_with_ops`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// A packet arriving on the wire.
    Packet(Vec<u8>),
    /// A host op submitted at this position in the arrival order: it must
    /// behave as if it executed after every preceding packet and before
    /// every following one.
    Op(HostOp),
}

/// Apply `op` directly to a map store, returning the result the hardware
/// control channel is required to produce for the same op at the same
/// position — the sequential-reference semantics of a host op.
pub fn apply_host_op_to_store(maps: &mut MapStore, op: &HostOp) -> Result<HostOpResult, MapError> {
    match op {
        HostOp::Lookup { map, key } => {
            let m = maps.get_mut(*map).expect("host op targets a known map");
            read_value(m, key).map(HostOpResult::Value)
        }
        HostOp::Update { map, key, value, flags } => maps
            .get_mut(*map)
            .expect("host op targets a known map")
            .update(key, value, *flags)
            .map(|_| HostOpResult::Updated),
        HostOp::Delete { map, key } => maps
            .get_mut(*map)
            .expect("host op targets a known map")
            .delete(key)
            .map(|()| HostOpResult::Deleted),
        HostOp::Dump { map } => {
            let m = maps.get(*map).expect("host op targets a known map");
            Ok(HostOpResult::Entries(m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()))
        }
        HostOp::Gather { map, keys } => {
            gather_values(maps.get_mut(*map).expect("host op targets a known map"), keys)
        }
    }
}

/// Simulator options of the differential entry points: the clock frozen
/// at the VM's constant `ktime`, and every compile-time packet-bounds proof
/// rechecked against the concrete access.
pub(crate) fn harness_options() -> SimOptions {
    SimOptions { freeze_time_ns: Some(1000), check_proofs: true, ..Default::default() }
}

/// Compare VM and pipeline over a packet sequence. Returns all
/// divergences (empty = equivalent).
///
/// Packets that the VM *errors* on (e.g. out-of-bounds access guarded only
/// by an elided check) are expected to be dropped by the hardware.
pub fn compare(program: &Program, design: &PipelineDesign, packets: &[Vec<u8>]) -> Vec<Divergence> {
    compare_with(program, design, packets, |_| {})
}

/// Like [`compare`], applying `setup` (host-side control plane writes,
/// e.g. installing routes) to both engines' maps first.
pub fn compare_with(
    program: &Program,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
) -> Vec<Divergence> {
    compare_ignoring(program, design, packets, setup, &[])
}

/// Like [`compare_with`], skipping the final-content comparison for the
/// listed maps.
///
/// Intended for pure *allocator* state (e.g. DNAT's port counter): a
/// flushed packet's already-committed fetch-and-add is not replayed — the
/// allocation is simply skipped, exactly as in the real hardware — so the
/// counter legitimately runs ahead of the sequential reference while every
/// observable translation stays identical.
pub fn compare_ignoring(
    program: &Program,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
    ignore_maps: &[u32],
) -> Vec<Divergence> {
    compare_full(program, design, packets, setup, ignore_maps, harness_options())
}

/// Fully parameterized comparison (explicit simulator options, e.g. the
/// dead-state poisoning validation mode).
pub fn compare_full(
    program: &Program,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
    ignore_maps: &[u32],
    sim_options: SimOptions,
) -> Vec<Divergence> {
    let mut vm = Vm::new(program);
    vm.set_time_ns(sim_options.freeze_time_ns.unwrap_or(1000));
    // Soundness gate: every fact the abstract interpreter claims about the
    // program is rechecked against the reference execution.
    if let Ok(decoded) = program.decode() {
        vm.check_facts(ehdl_ebpf::absint::analyze(&decoded));
    }
    let mut sim = PipelineSim::with_options(design, sim_options);
    // Both map stores are configured before either engine runs, so the
    // two executions start from identical state.
    setup(vm.maps_mut());
    setup(sim.maps_mut());

    // The engines never communicate until both are drained: run the
    // cycle-level simulation on its own thread while the reference
    // interpreter processes the same trace here.
    let mut vm_actions = Vec::with_capacity(packets.len());
    let mut vm_packets = Vec::with_capacity(packets.len());
    let outs = std::thread::scope(|scope| {
        let sim = &mut sim;
        let hw = scope.spawn(move || {
            for p in packets {
                sim.enqueue(p.clone());
            }
            sim.settle(50_000_000);
            sim.drain()
        });
        for p in packets {
            let mut bytes = p.clone();
            match vm.run(&mut bytes, 0) {
                Ok(out) => {
                    vm_actions.push(out.action);
                    vm_packets.push(bytes);
                }
                Err(_) => {
                    // The hardware drops on access faults.
                    vm_actions.push(XdpAction::Drop);
                    vm_packets.push(p.clone());
                }
            }
        }
        hw.join().expect("simulator thread panicked")
    });

    let mut divs = Vec::new();
    if outs.len() != packets.len() {
        divs.push(Divergence::Count { vm: packets.len(), hw: outs.len() });
        return divs;
    }
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(out.seq as usize, i, "pipeline must preserve packet order");
        if out.action != vm_actions[i] {
            divs.push(Divergence::Action { seq: i, vm: vm_actions[i], hw: out.action });
            continue;
        }
        if out.action.forwards() && out.packet != vm_packets[i] {
            let at = out
                .packet
                .iter()
                .zip(&vm_packets[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(vm_packets[i].len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }

    // Compare final map contents as sorted key→value sets.
    for def in &program.maps {
        if ignore_maps.contains(&def.id) {
            continue;
        }
        let a = vm.maps().get(def.id).expect("vm map");
        let b = sim.maps().get(def.id).expect("sim map");
        let mut ea: Vec<_> = a.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        let mut eb: Vec<_> = b.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        ea.sort();
        eb.sort();
        if ea != eb {
            divs.push(Divergence::Map { map: def.id });
        }
    }

    for v in vm.proof_violations() {
        divs.push(Divergence::Proof { detail: format!("vm: {v}") });
    }
    let hw_violations = sim.counters().proof_violations;
    if hw_violations > 0 {
        divs.push(Divergence::Proof {
            detail: format!("pipeline: {hw_violations} unguarded accesses left proven bounds"),
        });
    }
    divs
}

/// How a map's final contents are reconstructed from N replicas for
/// comparison against the sequential reference ([`compare_sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Union of all replicas' entries, with exact duplicates collapsed.
    /// Correct for flow-partitioned hash-like maps: RSS guarantees each
    /// key is only ever *written* by one replica, so two replicas holding
    /// the same key with different values is itself a divergence.
    Union,
    /// Per-key, per-64-bit-word delta sum: `initial + Σ (replica −
    /// initial)`. Correct for private counter arrays updated with
    /// commutative atomic adds.
    SumDelta,
    /// Compare the canonical shared copy directly (maps listed in
    /// [`SharedMapOptions::shared_maps`] have exactly one storage copy).
    Direct,
    /// Skip the map (e.g. a per-replica allocator whose assignments are
    /// order-dependent by design).
    Ignore,
}

/// Little-endian u64 word `w` of a value, zero-padded at the tail.
fn value_word(v: &[u8], w: usize) -> u64 {
    let mut b = [0u8; 8];
    let at = w * 8;
    if at < v.len() {
        let n = (v.len() - at).min(8);
        b[..n].copy_from_slice(&v[at..at + n]);
    }
    u64::from_le_bytes(b)
}

/// Differential check of a [`ShardedNic`] run against the sequential
/// reference: the same trace run packet-by-packet on the VM, with host
/// ops applied at their schedule positions.
///
/// Per packet, the owning replica must produce the VM's action and
/// output bytes (RSS steering never changes verdicts — only which
/// replica renders them). Final map state is reconstructed per
/// [`MergeStrategy`] — callers override per map via `merge`; unlisted
/// maps default to [`MergeStrategy::Direct`] for shared maps,
/// [`MergeStrategy::SumDelta`] for arrays, and [`MergeStrategy::Union`]
/// otherwise. The shared-map access history is additionally checked for
/// per-key linearizability ([`check_linearizable`]), and host-op results
/// must match the reference. The run must also be lossless: any RX-queue
/// drop panics, since a silently shorter trace would vacuously pass.
///
/// # Panics
///
/// Panics if the sharded run drops a packet or the simulator thread
/// panics.
#[allow(clippy::too_many_arguments)]
pub fn compare_sharded(
    program: &Program,
    design: &PipelineDesign,
    replicas: usize,
    seed: u64,
    packets: &[Vec<u8>],
    ops: &[(usize, HostOp)],
    setup: impl Fn(&mut MapStore),
    merge: &[(u32, MergeStrategy)],
    fabric: SharedMapOptions,
    sim_options: SimOptions,
) -> Vec<Divergence> {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    let mut vm = Vm::new(program);
    vm.set_time_ns(sim_options.freeze_time_ns.unwrap_or(1000));
    if let Ok(decoded) = program.decode() {
        vm.check_facts(ehdl_ebpf::absint::analyze(&decoded));
    }
    let mut fabric = fabric;
    fabric.log_events = true;
    let shared_ids = fabric.shared_maps.clone();
    let mut nic = ShardedNic::new(design, replicas, seed, sim_options, fabric);
    setup(vm.maps_mut());
    nic.setup_maps(&setup);
    // Baseline for delta merging and the linearizability replay.
    let mut initial = MapStore::new(&design.maps);
    setup(&mut initial);

    // Sequential reference: packets in arrival order, each op applied
    // once the packets before its position have been processed.
    let mut sorted_ops: Vec<(usize, HostOp)> = ops.to_vec();
    sorted_ops.sort_by_key(|&(at, _)| at);
    let mut next_op = 0usize;
    let mut vm_actions = Vec::with_capacity(packets.len());
    let mut vm_packets = Vec::with_capacity(packets.len());
    let mut vm_op_results = Vec::with_capacity(sorted_ops.len());
    for (i, p) in packets.iter().enumerate() {
        while next_op < sorted_ops.len() && sorted_ops[next_op].0 <= i {
            vm_op_results.push(apply_host_op_to_store(vm.maps_mut(), &sorted_ops[next_op].1));
            next_op += 1;
        }
        let mut bytes = p.clone();
        match vm.run(&mut bytes, 0) {
            Ok(out) => {
                vm_actions.push(out.action);
                vm_packets.push(bytes);
            }
            Err(_) => {
                vm_actions.push(XdpAction::Drop);
                vm_packets.push(p.clone());
            }
        }
    }
    while next_op < sorted_ops.len() {
        vm_op_results.push(apply_host_op_to_store(vm.maps_mut(), &sorted_ops[next_op].1));
        next_op += 1;
    }

    let report = nic.run_with_ops(packets.iter().cloned(), &sorted_ops);
    assert_eq!(
        report.dropped,
        vec![0; replicas],
        "sharded differential runs must be lossless (RX overflow would shorten the trace)"
    );

    let mut divs = Vec::new();
    let total: usize = report.outcomes.len();
    if total != packets.len() {
        divs.push(Divergence::Count { vm: packets.len(), hw: total });
        return divs;
    }
    // Re-sequence per-replica completions into global arrival order.
    let mut hw = vec![None; packets.len()];
    for (_, g, out) in &report.outcomes {
        hw[*g as usize] = Some(out);
    }
    for (i, out) in hw.iter().enumerate() {
        let out = out.as_ref().expect("every arrival completes exactly once");
        if out.action != vm_actions[i] {
            divs.push(Divergence::Action { seq: i, vm: vm_actions[i], hw: out.action });
            continue;
        }
        if out.action.forwards() && out.packet != vm_packets[i] {
            let at = out
                .packet
                .iter()
                .zip(&vm_packets[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(vm_packets[i].len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }

    for (i, (res, vm_res)) in report.host_completions.iter().zip(&vm_op_results).enumerate() {
        if &res.result != vm_res {
            divs.push(Divergence::HostOp {
                id: i as u64,
                detail: format!("shared store returned {:?}, reference {:?}", res.result, vm_res),
            });
        }
    }

    for def in &design.maps {
        let strategy = merge.iter().find(|(m, _)| *m == def.id).map(|&(_, s)| s).unwrap_or(
            if shared_ids.contains(&def.id) {
                MergeStrategy::Direct
            } else {
                match def.kind {
                    MapKind::Array | MapKind::PerCpuArray => MergeStrategy::SumDelta,
                    _ => MergeStrategy::Union,
                }
            },
        );
        let vm_map = vm.maps().get(def.id).expect("vm map");
        let vm_entries = || -> BTreeMap<Vec<u8>, Vec<u8>> {
            vm_map.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()
        };
        let matches = match strategy {
            MergeStrategy::Ignore => true,
            MergeStrategy::Direct => {
                let m = nic.shared_store().get(def.id).expect("shared map");
                let merged: BTreeMap<Vec<u8>, Vec<u8>> =
                    m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
                merged == vm_entries()
            }
            MergeStrategy::Union => {
                let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut conflict = false;
                for r in 0..replicas {
                    let m = nic.sim(r).maps().get(def.id).expect("replica map");
                    for (_, k, v) in m.iter() {
                        match merged.entry(k.to_vec()) {
                            Entry::Occupied(e) => conflict |= e.get() != v,
                            Entry::Vacant(e) => {
                                e.insert(v.to_vec());
                            }
                        }
                    }
                }
                !conflict && merged == vm_entries()
            }
            MergeStrategy::SumDelta => {
                let init = initial.get(def.id).expect("initial map");
                let words = def.value_size.div_ceil(8) as usize;
                init.iter().all(|(slot, key, iv)| {
                    let vm_v = vm_map.iter().find(|(_, k, _)| *k == key).map(|(_, _, v)| v);
                    let Some(vm_v) = vm_v else { return false };
                    (0..words).all(|w| {
                        let mut acc = value_word(iv, w);
                        for r in 0..replicas {
                            let rv =
                                nic.sim(r).maps().get(def.id).expect("replica map").value(slot);
                            acc =
                                acc.wrapping_add(value_word(rv, w).wrapping_sub(value_word(iv, w)));
                        }
                        acc == value_word(vm_v, w)
                    })
                })
            }
        };
        if !matches {
            divs.push(Divergence::Map { map: def.id });
        }
    }

    if let Err(v) = check_linearizable(&initial, &shared_ids, &report.events) {
        divs.push(Divergence::Coherence { detail: v.to_string() });
    }

    for v in vm.proof_violations() {
        divs.push(Divergence::Proof { detail: format!("vm: {v}") });
    }
    replica_proof_divergences(&nic, replicas, &mut divs);
    divs
}

/// One [`Divergence::Proof`] per replica whose unguarded accesses left
/// their proven bounds.
fn replica_proof_divergences(nic: &ShardedNic, replicas: usize, divs: &mut Vec<Divergence>) {
    for r in 0..replicas {
        let hw_violations = nic.sim(r).counters().proof_violations;
        if hw_violations > 0 {
            divs.push(Divergence::Proof {
                detail: format!(
                    "replica {r}: {hw_violations} unguarded accesses left proven bounds"
                ),
            });
        }
    }
}

/// Assert that a sharded run is equivalent to the sequential reference
/// ([`compare_sharded`] with an empty divergence list), panicking with
/// every divergence otherwise.
#[allow(clippy::too_many_arguments)]
pub fn assert_equivalent_sharded(
    program: &Program,
    design: &PipelineDesign,
    replicas: usize,
    seed: u64,
    packets: &[Vec<u8>],
    ops: &[(usize, HostOp)],
    setup: impl Fn(&mut MapStore),
    merge: &[(u32, MergeStrategy)],
    fabric: SharedMapOptions,
) -> Vec<Divergence> {
    let divs = compare_sharded(
        program,
        design,
        replicas,
        seed,
        packets,
        ops,
        setup,
        merge,
        fabric,
        harness_options(),
    );
    assert!(
        divs.is_empty(),
        "sharded run diverged from the sequential reference:\n{}",
        divs.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
    divs
}

/// Result of a fail-over differential run ([`compare_sharded_failover`]).
#[derive(Debug)]
pub struct FailoverDiff {
    /// Divergences found (empty means the run passed every check).
    pub divergences: Vec<Divergence>,
    /// The sharded run's full report, including [`ShardReport::failover`](crate::shared::ShardReport::failover)
    /// stats, for callers that gate on availability or detection latency.
    pub report: crate::shared::ShardReport,
}

/// Differential check of a [`ShardedNic`] run *under replica failures*
/// against the fault-free sequential reference.
///
/// The reference VM processes every packet; the sharded run takes the
/// same trace with `schedule`'s replica faults injected. Correctness
/// under failure means:
///
/// * **Zero silent loss** — every offered packet is completed, drained,
///   discarded, or an accounted ingress drop; the sums must close.
/// * **Blast-radius containment** — every lost packet belongs to a flow
///   homed on a replica that failed ([`ShardReport::affected`](crate::shared::ShardReport::affected)); a loss
///   outside the affected set means the fail-over leaked into healthy
///   traffic.
/// * **Survivor equivalence** — every completed packet *outside* the
///   affected set must be bit-equivalent (action and output bytes) to
///   the sequential reference. Affected flows are exempt: losing part of
///   a session legitimately changes stateful verdicts downstream.
/// * **Bounded detection** — every injected (non-masked) failure is
///   detected, and never later than the watchdog budget.
/// * **Coherence** — the surviving shared-map history stays per-key
///   linearizable ([`check_linearizable`]).
///
/// Final map state is *not* compared: a failure legitimately loses
/// private state the [`MergeStrategy`] cannot reconstruct. Callers who
/// need map equivalence should use [`compare_sharded`] on a fault-free
/// run.
#[allow(clippy::too_many_arguments)]
pub fn compare_sharded_failover(
    program: &Program,
    design: &PipelineDesign,
    replicas: usize,
    seed: u64,
    packets: &[Vec<u8>],
    rfault: ReplicaFaultConfig,
    setup: impl Fn(&mut MapStore),
    merge: &[(u32, MergeStrategy)],
    fabric: SharedMapOptions,
) -> FailoverDiff {
    let mut vm = Vm::new(program);
    vm.set_time_ns(1000);
    let mut fabric = fabric;
    fabric.log_events = true;
    let shared_ids = fabric.shared_maps.clone();
    let mut nic = ShardedNic::new(design, replicas, seed, harness_options(), fabric);
    nic.attach_replica_faults(rfault.clone(), merge.to_vec());
    setup(vm.maps_mut());
    nic.setup_maps(&setup);
    let mut initial = MapStore::new(&design.maps);
    setup(&mut initial);

    // Fault-free sequential reference over the whole trace.
    let mut vm_actions = Vec::with_capacity(packets.len());
    let mut vm_packets = Vec::with_capacity(packets.len());
    for p in packets {
        let mut bytes = p.clone();
        match vm.run(&mut bytes, 0) {
            Ok(out) => {
                vm_actions.push(out.action);
                vm_packets.push(bytes);
            }
            Err(_) => {
                vm_actions.push(XdpAction::Drop);
                vm_packets.push(p.clone());
            }
        }
    }

    let report = nic.run(packets.iter().cloned());
    let mut divs = Vec::new();

    // Zero silent loss: the accounting must close exactly.
    let offered = packets.len() as u64;
    let completed: u64 = report.completed.iter().sum();
    let drained = report.drained.len() as u64;
    let discarded = report.discarded.len() as u64;
    let dropped: u64 = report.dropped.iter().sum();
    if offered != completed + drained + discarded + dropped {
        divs.push(Divergence::Loss {
            detail: format!(
                "accounting leak: offered {offered} != completed {completed} + drained {drained} \
                 + discarded {discarded} + dropped {dropped}"
            ),
        });
    }

    // Blast-radius containment: losses only inside the affected set.
    let affected: std::collections::BTreeSet<u64> = report.affected.iter().copied().collect();
    for g in report.drained.iter().chain(&report.discarded) {
        if !affected.contains(g) {
            divs.push(Divergence::Loss {
                detail: format!("packet {g} lost outside the affected flow set"),
            });
        }
    }

    // Bounded detection: every non-masked injection is caught in budget.
    let f = report.failover;
    if f.detected + f.masked_brownouts < f.injected {
        divs.push(Divergence::Loss {
            detail: format!(
                "undetected failures: injected {}, detected {}, masked {}",
                f.injected, f.detected, f.masked_brownouts
            ),
        });
    }
    if f.detection_latency_max > rfault.watchdog_budget {
        divs.push(Divergence::Loss {
            detail: format!(
                "detection latency {} blew the watchdog budget {}",
                f.detection_latency_max, rfault.watchdog_budget
            ),
        });
    }

    // Survivor equivalence: completed non-affected packets must be
    // bit-equivalent to the fault-free reference.
    for (_, g, out) in &report.outcomes {
        let i = *g as usize;
        if i >= packets.len() || affected.contains(g) {
            continue;
        }
        if out.action != vm_actions[i] {
            divs.push(Divergence::Action { seq: i, vm: vm_actions[i], hw: out.action });
            continue;
        }
        if out.action.forwards() && out.packet != vm_packets[i] {
            let at = out
                .packet
                .iter()
                .zip(&vm_packets[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(vm_packets[i].len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }

    if let Err(v) = check_linearizable(&initial, &shared_ids, &report.events) {
        divs.push(Divergence::Coherence { detail: v.to_string() });
    }
    replica_proof_divergences(&nic, replicas, &mut divs);

    FailoverDiff { divergences: divs, report }
}

/// Differential run with *live* host ops interleaved into the packet
/// stream.
///
/// The pipeline side attaches a control channel and submits each op at its
/// schedule position while packets are still in flight, so ops race the
/// pipeline's hazard machinery for real — including writes landing inside
/// open RAW windows. The reference side is strictly sequential: each op is
/// applied to the VM's map store between the packets it is scheduled
/// between. Divergences cover per-packet outcomes, per-op results, and
/// final map contents.
pub fn compare_with_ops(
    program: &Program,
    design: &PipelineDesign,
    events: &[HostEvent],
    setup: impl Fn(&mut MapStore),
    ignore_maps: &[u32],
    ctrl: CtrlOptions,
) -> Vec<Divergence> {
    compare_ops_core(program, design, events, events, &|r| r, &setup, ignore_maps, ctrl)
}

/// Like [`compare_with_ops`], but the pipeline executes the *coalesced*
/// rewrite of the schedule ([`crate::batch::coalesce_ops`] applied per op
/// train) while the sequential VM reference still executes the original
/// ops one by one. Carrier completions are expanded back to per-original
/// results via the recorded answer mapping, so a pass proves the serving
/// layer's batching is bit-equivalent to sequential submission — same
/// per-packet outcomes, same per-op results, same final maps.
pub fn compare_with_ops_coalesced(
    program: &Program,
    design: &PipelineDesign,
    events: &[HostEvent],
    setup: impl Fn(&mut MapStore),
    ignore_maps: &[u32],
    ctrl: CtrlOptions,
) -> Vec<Divergence> {
    let shapes: std::collections::BTreeMap<u32, MapShape> = program
        .maps
        .iter()
        .map(|d| {
            (d.id, MapShape { key_size: d.key_size as usize, value_size: d.value_size as usize })
        })
        .collect();
    let shape = |id: u32| shapes.get(&id).copied();

    // Rewrite each op train; carriers keep the train's barrier position.
    // `carriers` lines up with hw submission order (the ctrl channel is a
    // FIFO), `bases` records each train's offset into the original op
    // numbering so per-train answer indices can be scattered globally.
    let mut hw_events: Vec<HostEvent> = Vec::with_capacity(events.len());
    let mut carriers: Vec<CoalescedOp> = Vec::new();
    let mut carrier_train: Vec<usize> = Vec::new(); // carrier -> train id
    let mut bases: Vec<usize> = Vec::new(); // train id -> original-op base
    let mut train: Vec<HostOp> = Vec::new();
    let mut nops_original = 0usize;
    let mut flush = |train: &mut Vec<HostOp>, hw_events: &mut Vec<HostEvent>, base: usize| {
        if train.is_empty() {
            return;
        }
        let (coalesced, _) = coalesce_ops(train, shape);
        let tid = bases.len();
        bases.push(base);
        for c in coalesced {
            hw_events.push(HostEvent::Op(c.op.clone()));
            carriers.push(c);
            carrier_train.push(tid);
        }
        train.clear();
    };
    for ev in events {
        match ev {
            HostEvent::Packet(p) => {
                let base = nops_original - train.len();
                flush(&mut train, &mut hw_events, base);
                hw_events.push(HostEvent::Packet(p.clone()));
            }
            HostEvent::Op(op) => {
                train.push(op.clone());
                nops_original += 1;
            }
        }
    }
    let base = nops_original - train.len();
    flush(&mut train, &mut hw_events, base);

    // Expand carrier completions (in FIFO submission order) back to
    // original per-op results.
    let expand = move |results: Vec<Result<HostOpResult, MapError>>| {
        if results.len() != carriers.len() {
            // Signalled as a count divergence by the core; return the raw
            // results so the caller still reports the mismatch.
            return results;
        }
        let mut out: Vec<Option<Result<HostOpResult, MapError>>> = vec![None; nops_original];
        let mut i = 0usize;
        while i < carriers.len() {
            let tid = carrier_train[i];
            let mut j = i;
            while j < carriers.len() && carrier_train[j] == tid {
                j += 1;
            }
            let expanded = expand_results(&carriers[i..j], &results[i..j]);
            for (k, r) in expanded.into_iter().enumerate() {
                out[bases[tid] + k] = Some(r);
            }
            i = j;
        }
        out.into_iter()
            .map(|r| r.expect("every original op is answered by exactly one carrier"))
            .collect()
    };

    compare_ops_core(program, design, &hw_events, events, &expand, &setup, ignore_maps, ctrl)
}

/// Per-op results as the host sees them, in submit order.
type OpResults = Vec<Result<HostOpResult, MapError>>;

/// Shared engine of [`compare_with_ops`] / [`compare_with_ops_coalesced`]:
/// feed `hw_events` to the pipeline, run `ref_events` sequentially on the
/// VM, map the pipeline's op completions through `expand` (identity for
/// the uncoalesced harness), and diff outcomes, op results and final maps.
#[allow(clippy::too_many_arguments)]
fn compare_ops_core(
    program: &Program,
    design: &PipelineDesign,
    hw_events: &[HostEvent],
    ref_events: &[HostEvent],
    expand: &dyn Fn(OpResults) -> OpResults,
    setup: &dyn Fn(&mut MapStore),
    ignore_maps: &[u32],
    ctrl: CtrlOptions,
) -> Vec<Divergence> {
    let mut vm = Vm::new(program);
    vm.set_time_ns(1000);
    if let Ok(decoded) = program.decode() {
        vm.check_facts(ehdl_ebpf::absint::analyze(&decoded));
    }
    let mut sim = PipelineSim::with_options(design, harness_options());
    setup(vm.maps_mut());
    setup(sim.maps_mut());
    let nops = hw_events.iter().filter(|e| matches!(e, HostEvent::Op(_))).count();
    // The whole schedule is submitted up front, so the queue must hold
    // every op; arrival latency and fences still govern when each applies.
    sim.attach_ctrl(CtrlOptions { queue_depth: ctrl.queue_depth.max(nops), ..ctrl });

    let npackets = hw_events.len() - nops;
    let mut divs = Vec::new();

    // Pipeline side: feed the schedule in order (packets enqueue, ops
    // submit — each op's barrier is the sequence number of the next
    // packet), then let everything drain together.
    for ev in hw_events {
        match ev {
            HostEvent::Packet(p) => {
                let mut attempts = 0u32;
                while !sim.enqueue(p.clone()) {
                    sim.settle(1_000_000);
                    attempts += 1;
                    assert!(attempts < 64, "rx queue never drained");
                }
            }
            HostEvent::Op(op) => {
                if let Err(e) = sim.submit_host_op(op.clone()) {
                    divs.push(Divergence::HostOp {
                        id: u64::MAX,
                        detail: format!("submission rejected: {e}"),
                    });
                }
            }
        }
    }
    sim.settle(50_000_000);
    let outs = sim.drain();
    let completions = sim.host_completions();

    // Sequential reference: the *original* schedule, ops applied in place.
    let mut vm_actions = Vec::with_capacity(npackets);
    let mut vm_packets = Vec::with_capacity(npackets);
    let mut vm_ops = Vec::with_capacity(nops);
    for ev in ref_events {
        match ev {
            HostEvent::Packet(p) => {
                let mut bytes = p.clone();
                match vm.run(&mut bytes, 0) {
                    Ok(out) => {
                        vm_actions.push(out.action);
                        vm_packets.push(bytes);
                    }
                    Err(_) => {
                        vm_actions.push(XdpAction::Drop);
                        vm_packets.push(p.clone());
                    }
                }
            }
            HostEvent::Op(op) => vm_ops.push(apply_host_op_to_store(vm.maps_mut(), op)),
        }
    }

    if outs.len() != npackets {
        divs.push(Divergence::Count { vm: npackets, hw: outs.len() });
        return divs;
    }
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(out.seq as usize, i, "pipeline must preserve packet order");
        if out.action != vm_actions[i] {
            divs.push(Divergence::Action { seq: i, vm: vm_actions[i], hw: out.action });
            continue;
        }
        if out.action.forwards() && out.packet != vm_packets[i] {
            let at = out
                .packet
                .iter()
                .zip(&vm_packets[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(vm_packets[i].len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }

    // Host ops complete in submission order (the channel is a FIFO), so
    // completion `i` pairs with the i-th submitted op; `expand` maps the
    // submitted (possibly coalesced) results back onto the reference
    // schedule's op numbering.
    if completions.len() != nops {
        divs.push(Divergence::HostOp {
            id: u64::MAX,
            detail: format!("{} of {nops} submitted ops completed", completions.len()),
        });
    } else {
        let hw_ops = expand(completions.into_iter().map(|c| c.result).collect());
        if hw_ops.len() != vm_ops.len() {
            divs.push(Divergence::HostOp {
                id: u64::MAX,
                detail: format!("{} expanded results for {} ops", hw_ops.len(), vm_ops.len()),
            });
        } else {
            for (i, (hr, vr)) in hw_ops.iter().zip(&vm_ops).enumerate() {
                if hr != vr {
                    divs.push(Divergence::HostOp {
                        id: i as u64,
                        detail: format!("hw={hr:?} vm={vr:?}"),
                    });
                }
            }
        }
    }

    for def in &program.maps {
        if ignore_maps.contains(&def.id) {
            continue;
        }
        let a = vm.maps().get(def.id).expect("vm map");
        let b = sim.maps().get(def.id).expect("sim map");
        let mut ea: Vec<_> = a.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        let mut eb: Vec<_> = b.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        ea.sort();
        eb.sort();
        if ea != eb {
            divs.push(Divergence::Map { map: def.id });
        }
    }

    for v in vm.proof_violations() {
        divs.push(Divergence::Proof { detail: format!("vm: {v}") });
    }
    let hw_violations = sim.counters().proof_violations;
    if hw_violations > 0 {
        divs.push(Divergence::Proof {
            detail: format!("pipeline: {hw_violations} unguarded accesses left proven bounds"),
        });
    }
    divs
}

/// Compile `program` and run [`compare_with_ops`], panicking with a
/// readable report on divergence.
pub fn assert_equivalent_ops(
    program: &Program,
    options: CompilerOptions,
    events: &[HostEvent],
    setup: impl Fn(&mut MapStore),
    ignore_maps: &[u32],
    ctrl: CtrlOptions,
) {
    let design = Compiler::with_options(options)
        .compile(program)
        .unwrap_or_else(|e| panic!("compile {}: {e}", program.name));
    let divs = compare_with_ops(program, &design, events, setup, ignore_maps, ctrl);
    if !divs.is_empty() {
        let report: Vec<String> = divs.iter().take(8).map(|d| d.to_string()).collect();
        panic!(
            "pipeline diverges from VM for `{}` under live host ops ({} issues):\n  {}",
            program.name,
            divs.len(),
            report.join("\n  ")
        );
    }
}

/// Compile `program` and run [`compare_with_ops_coalesced`], panicking
/// with a readable report on divergence.
pub fn assert_equivalent_ops_coalesced(
    program: &Program,
    options: CompilerOptions,
    events: &[HostEvent],
    setup: impl Fn(&mut MapStore),
    ignore_maps: &[u32],
    ctrl: CtrlOptions,
) {
    let design = Compiler::with_options(options)
        .compile(program)
        .unwrap_or_else(|e| panic!("compile {}: {e}", program.name));
    let divs = compare_with_ops_coalesced(program, &design, events, setup, ignore_maps, ctrl);
    if !divs.is_empty() {
        let report: Vec<String> = divs.iter().take(8).map(|d| d.to_string()).collect();
        panic!(
            "coalesced schedule diverges from the sequential oracle for `{}` ({} issues):\n  {}",
            program.name,
            divs.len(),
            report.join("\n  ")
        );
    }
}

/// Result of a fault-injection differential run ([`compare_under_faults`]).
///
/// Equivalence is judged only on *non-fault* packets: a protected design
/// must keep every packet the faults never touched bit-identical to the
/// sequential reference, while fault-affected packets (silently corrupted,
/// or sacrificed by the watchdog) are reported but not counted as
/// divergences.
#[derive(Debug, Clone)]
pub struct FaultCompareReport {
    /// Divergences among packets no fault touched.
    pub divergences: Vec<Divergence>,
    /// Map ids whose final contents differ from the reference. Meaningful
    /// only when no fault reached map state (`affected` empty and
    /// `map_storage_corrupted` false); otherwise expected to be non-empty.
    pub map_divergences: Vec<u32>,
    /// Sequence numbers of packets a fault corrupted or killed.
    pub affected: Vec<u64>,
    /// Non-affected packets that never completed (pipeline wedged without
    /// a watchdog).
    pub missing: u64,
    /// Whether map backing storage took an unrecovered upset.
    pub map_storage_corrupted: bool,
    /// Fault engine tallies for the run.
    pub stats: FaultStats,
    /// Full fault event log (cycle/site/kind/outcome per injection).
    pub log: Vec<FaultEvent>,
    /// Simulator counters (fault replays, watchdog resets, ...).
    pub counters: SimCounters,
    /// Fraction of cycles the pipeline was not wedged.
    pub availability: f64,
}

/// Differential VM-vs-pipeline run with a fault-injection engine attached.
///
/// Runs the sequential reference fault-free, runs the pipeline under the
/// seeded campaign `fault`, and compares per packet — excluding the
/// packets the engine reports as fault-affected. Outcomes are matched by
/// sequence number (watchdog recovery can retire packets out of order).
pub fn compare_under_faults(
    program: &Program,
    design: &PipelineDesign,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
    ignore_maps: &[u32],
    fault: FaultConfig,
) -> FaultCompareReport {
    // Proof rechecks stay off: an injected bit flip may legitimately push
    // an address outside its proof.
    let sim_options = SimOptions { freeze_time_ns: Some(1000), ..Default::default() };
    let mut vm = Vm::new(program);
    vm.set_time_ns(1000);
    let mut sim = PipelineSim::with_options(design, sim_options);
    setup(vm.maps_mut());
    setup(sim.maps_mut());
    sim.attach_faults(fault);

    let mut vm_actions = Vec::with_capacity(packets.len());
    let mut vm_packets = Vec::with_capacity(packets.len());
    for p in packets {
        let mut bytes = p.clone();
        match vm.run(&mut bytes, 0) {
            Ok(out) => {
                vm_actions.push(out.action);
                vm_packets.push(bytes);
            }
            Err(_) => {
                vm_actions.push(XdpAction::Drop);
                vm_packets.push(p.clone());
            }
        }
    }

    for p in packets {
        sim.enqueue(p.clone());
    }
    sim.settle(50_000_000);
    let mut outs = sim.drain();
    outs.sort_by_key(|o| o.seq);
    sim.finalize_faults();

    let (affected, map_storage_corrupted, stats, log) = match sim.fault_engine() {
        Some(e) => {
            (e.affected_seqs().to_vec(), e.map_storage_corrupted(), *e.stats(), e.log().to_vec())
        }
        None => (Vec::new(), false, FaultStats::default(), Vec::new()),
    };

    let mut divs = Vec::new();
    let mut missing = 0u64;
    let mut next = outs.iter().peekable();
    for seq in 0..packets.len() as u64 {
        let out = match next.peek() {
            Some(o) if o.seq == seq => next.next().expect("peeked"),
            _ => {
                if affected.binary_search(&seq).is_err() {
                    missing += 1;
                }
                continue;
            }
        };
        if affected.binary_search(&seq).is_ok() {
            continue;
        }
        let i = seq as usize;
        if out.action != vm_actions[i] {
            divs.push(Divergence::Action { seq: i, vm: vm_actions[i], hw: out.action });
            continue;
        }
        if out.action.forwards() && out.packet != vm_packets[i] {
            let at = out
                .packet
                .iter()
                .zip(&vm_packets[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| out.packet.len().min(vm_packets[i].len()));
            divs.push(Divergence::Packet { seq: i, at });
        }
    }

    let mut map_divergences = Vec::new();
    for def in &program.maps {
        if ignore_maps.contains(&def.id) {
            continue;
        }
        let (Some(a), Some(b)) = (vm.maps().get(def.id), sim.maps().get(def.id)) else {
            continue;
        };
        let mut ea: Vec<_> = a.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        let mut eb: Vec<_> = b.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
        ea.sort();
        eb.sort();
        if ea != eb {
            map_divergences.push(def.id);
        }
    }

    FaultCompareReport {
        divergences: divs,
        map_divergences,
        affected,
        missing,
        map_storage_corrupted,
        stats,
        log,
        counters: *sim.counters(),
        availability: sim.availability(),
    }
}

/// Compile `program` with `options` and differentially test it on
/// `packets`, panicking with a readable report on divergence.
pub fn assert_equivalent(program: &Program, options: CompilerOptions, packets: &[Vec<u8>]) {
    assert_equivalent_with(program, options, packets, |_| {});
}

/// [`assert_equivalent`] with host-side map setup.
pub fn assert_equivalent_with(
    program: &Program,
    options: CompilerOptions,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
) {
    assert_equivalent_ignoring(program, options, packets, setup, &[]);
}

/// [`assert_equivalent_with`] with an allocator-map ignore list.
pub fn assert_equivalent_ignoring(
    program: &Program,
    options: CompilerOptions,
    packets: &[Vec<u8>],
    setup: impl Fn(&mut ehdl_ebpf::maps::MapStore),
    ignore_maps: &[u32],
) {
    let design = Compiler::with_options(options)
        .compile(program)
        .unwrap_or_else(|e| panic!("compile {}: {e}", program.name));
    let divs = compare_ignoring(program, &design, packets, setup, ignore_maps);
    if !divs.is_empty() {
        let report: Vec<String> = divs.iter().take(5).map(|d| d.to_string()).collect();
        panic!(
            "pipeline diverges from VM for `{}` ({} issues):\n  {}",
            program.name,
            divs.len(),
            report.join("\n  ")
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};

    #[test]
    fn branching_program_equivalent() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 3, 7, 12);
        a.jmp_imm(JmpOp::Jeq, 3, 8, drop);
        a.mov64_imm(0, 3);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let mut packets: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 64]).collect();
        packets.push(vec![0; 10]); // short packet exercises the elided check
        assert_equivalent(&p, CompilerOptions::default(), &packets);
    }

    #[test]
    fn packet_rewrite_equivalent() {
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::H, 2, 7, 0);
        a.load(MemSize::H, 3, 7, 6);
        a.store_reg(MemSize::H, 7, 0, 3);
        a.store_reg(MemSize::H, 7, 6, 2);
        a.mov64_imm(0, 3);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let packets: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                let mut v = vec![0u8; 64];
                v[0] = i;
                v[6] = 0xf0 | i;
                v
            })
            .collect();
        assert_equivalent(&p, CompilerOptions::default(), &packets);
    }

    mod live_ops {
        use super::*;
        use crate::sim::hazard_timing_tests::{pkt, rmw_program};
        use ehdl_ebpf::maps::UpdateFlags;

        fn key(flow: u8) -> Vec<u8> {
            vec![flow, 0, 0, 0]
        }

        fn update(flow: u8, v: u64) -> HostEvent {
            HostEvent::Op(HostOp::Update {
                map: 0,
                key: key(flow),
                value: v.to_le_bytes().to_vec(),
                flags: UpdateFlags::Any,
            })
        }

        #[test]
        fn interleaved_ops_match_sequential_reference() {
            // Ops hammer the same hot key the packets are incrementing,
            // at several barrier positions — including back-to-back with
            // same-flow packets so writes land inside open RAW windows.
            let program = rmw_program();
            let mut events = Vec::new();
            for round in 0..4u64 {
                for _ in 0..3 {
                    events.push(HostEvent::Packet(pkt(1)));
                }
                events.push(update(1, round * 1000));
                events.push(HostEvent::Op(HostOp::Lookup { map: 0, key: key(1) }));
                events.push(HostEvent::Packet(pkt(1)));
                events.push(HostEvent::Op(HostOp::Delete { map: 0, key: key(2) }));
                events.push(HostEvent::Packet(pkt(2)));
                events.push(HostEvent::Op(HostOp::Dump { map: 0 }));
            }
            assert_equivalent_ops(
                &program,
                CompilerOptions::default(),
                &events,
                |_| {},
                &[],
                CtrlOptions { latency_cycles: 1, queue_depth: 64 },
            );
        }

        #[test]
        fn op_results_cover_errors_and_misses() {
            let program = rmw_program();
            let events = vec![
                HostEvent::Op(HostOp::Lookup { map: 0, key: key(9) }), // miss
                HostEvent::Op(HostOp::Delete { map: 0, key: key(9) }), // NoSuchKey
                HostEvent::Packet(pkt(9)),
                HostEvent::Op(HostOp::Update {
                    map: 0,
                    key: key(9),
                    value: 7u64.to_le_bytes().to_vec(),
                    flags: UpdateFlags::NoExist, // KeyExists
                }),
                HostEvent::Op(HostOp::Lookup { map: 0, key: key(9) }), // hit
            ];
            assert_equivalent_ops(
                &program,
                CompilerOptions::default(),
                &events,
                |_| {},
                &[],
                CtrlOptions::default(),
            );
        }

        #[test]
        fn high_latency_channel_still_barrier_ordered() {
            let program = rmw_program();
            let mut events = Vec::new();
            for i in 0..12u8 {
                events.push(HostEvent::Packet(pkt(i % 2)));
                if i % 3 == 0 {
                    events.push(update(i % 2, u64::from(i) * 11));
                }
            }
            assert_equivalent_ops(
                &program,
                CompilerOptions::default(),
                &events,
                |_| {},
                &[],
                CtrlOptions { latency_cycles: 400, queue_depth: 8 },
            );
        }

        #[test]
        fn mismatched_op_result_is_reported() {
            // Sanity-check the harness actually compares op results: an
            // op on a key only the *setup* of one side has must diverge.
            let program = rmw_program();
            let design = Compiler::new().compile(&program).unwrap();
            let events = [HostEvent::Op(HostOp::Lookup { map: 0, key: key(3) })];
            // Divergence is manufactured by mutating the sim store only —
            // run compare manually with asymmetric setup.
            let mut vm = Vm::new(&program);
            vm.set_time_ns(1000);
            let mut sim = crate::sim::PipelineSim::with_options(
                &design,
                SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
            );
            sim.maps_mut()
                .get_mut(0)
                .unwrap()
                .update(&key(3), &5u64.to_le_bytes(), UpdateFlags::Any)
                .unwrap();
            sim.attach_ctrl(CtrlOptions::default());
            let HostEvent::Op(op) = &events[0] else { unreachable!() };
            sim.submit_host_op(op.clone()).unwrap();
            sim.settle(10_000);
            let hw = sim.host_completions()[0].result.clone();
            let vmr = apply_host_op_to_store(vm.maps_mut(), op);
            assert_ne!(hw, vmr, "asymmetric state must surface in op results");
        }
    }

    mod sharded {
        use super::*;
        use crate::shared::Arbitration;
        use ehdl_ebpf::maps::UpdateFlags;
        use ehdl_net::{FiveTuple, IPPROTO_UDP};
        use ehdl_programs::{dnat, simple_firewall};
        use ehdl_traffic::build_flow_packet;

        fn flow(i: usize) -> FiveTuple {
            FiveTuple {
                saddr: [10, 1, (i >> 8) as u8, i as u8],
                daddr: [203, 0, 113, 9],
                sport: 40000 + i as u16,
                dport: 53,
                proto: IPPROTO_UDP,
            }
        }

        /// Bidirectional trace: each flow opens from inside, then the
        /// peer answers, then both directions keep talking — the
        /// symmetric RSS hash must keep every packet of a flow on one
        /// replica or the session state tears apart.
        fn bidirectional_trace(flows: usize, rounds: usize) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            for i in 0..flows {
                out.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64));
            }
            for _ in 0..rounds {
                for i in 0..flows {
                    out.push(build_flow_packet(&flow(i).reversed(), [2; 6], [1; 6], 64));
                    out.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64));
                }
            }
            out
        }

        #[test]
        fn firewall_bit_equivalent_across_replicas_and_seeds() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(48, 2);
            for replicas in [1, 2, 4] {
                for seed in [1, 7] {
                    assert_equivalent_sharded(
                        &program,
                        &design,
                        replicas,
                        seed,
                        &packets,
                        &[],
                        |_| {},
                        &[],
                        SharedMapOptions::default(),
                    );
                }
            }
        }

        #[test]
        fn firewall_shared_stats_with_host_ops() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(32, 2);
            // Host traffic against the *shared* stats array mid-trace:
            // a fenced read must observe the exact sequential-reference
            // count, and a fenced write must serialize into the shared
            // history ahead of all later packets.
            let ops = vec![
                (
                    30usize,
                    HostOp::Lookup {
                        map: simple_firewall::STATS_MAP,
                        key: 0u32.to_le_bytes().to_vec(),
                    },
                ),
                (
                    60usize,
                    HostOp::Update {
                        map: simple_firewall::STATS_MAP,
                        key: 3u32.to_le_bytes().to_vec(),
                        value: 7u64.to_le_bytes().to_vec(),
                        flags: UpdateFlags::Any,
                    },
                ),
            ];
            assert_equivalent_sharded(
                &program,
                &design,
                4,
                9,
                &packets,
                &ops,
                |_| {},
                &[],
                SharedMapOptions {
                    shared_maps: vec![simple_firewall::STATS_MAP],
                    ..Default::default()
                },
            );
        }

        #[test]
        fn contended_fabric_and_caches_never_change_results() {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(24, 3);
            // Worst-case timing pressure: one bank, multi-cycle latency,
            // fixed priority (replica 3 starves), read caches on. Timing
            // may crawl; results may not move.
            assert_equivalent_sharded(
                &program,
                &design,
                4,
                5,
                &packets,
                &[],
                |_| {},
                &[],
                SharedMapOptions {
                    banks: 1,
                    latency: 4,
                    arbitration: Arbitration::FixedPriority,
                    read_cache: true,
                    cache_lines: 64,
                    shared_maps: vec![simple_firewall::STATS_MAP],
                    ..Default::default()
                },
            );
        }

        #[test]
        fn dnat_prebound_bit_equivalent() {
            let program = dnat::program();
            let design = Compiler::new().compile(&program).unwrap();
            let flows = 40;
            let mut packets = Vec::new();
            for r in 0..3 {
                for i in 0..flows {
                    packets.push(build_flow_packet(&flow(i), [1; 6], [2; 6], 64 + r * 16));
                }
            }
            // Pre-bind every flow so the order-dependent port allocator
            // never runs: with static bindings the conn table is pure
            // flow-partitioned state and must merge bit-exactly.
            let setup = move |maps: &mut MapStore| {
                let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
                for i in 0..flows {
                    let port = dnat::PORT_BASE + i as u16;
                    let mut val = [0u8; 8];
                    val[..4].copy_from_slice(&dnat::NAT_ADDR);
                    val[4..6].copy_from_slice(&port.to_be_bytes());
                    conn.update(&flow(i).to_key(), &val, UpdateFlags::Any).expect("bind");
                }
            };
            assert_equivalent_sharded(
                &program,
                &design,
                4,
                11,
                &packets,
                &[],
                setup,
                &[],
                SharedMapOptions::default(),
            );
        }

        #[test]
        fn firewall_survivors_bit_equivalent_under_replica_kill() {
            use crate::fault::{ReplicaFault, ReplicaFaultConfig, ReplicaFaultKind};
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(48, 3);
            let diff = compare_sharded_failover(
                &program,
                &design,
                4,
                7,
                &packets,
                ReplicaFaultConfig {
                    schedule: vec![ReplicaFault {
                        at: 80,
                        replica: 2,
                        kind: ReplicaFaultKind::Kill,
                    }],
                    watchdog_budget: 64,
                    reset_cycles: 0,
                },
                |_| {},
                &[(simple_firewall::SESSIONS_MAP, MergeStrategy::Union)],
                SharedMapOptions {
                    shared_maps: vec![simple_firewall::STATS_MAP],
                    ..Default::default()
                },
            );
            assert!(
                diff.divergences.is_empty(),
                "fail-over run violated an invariant:\n{}",
                diff.divergences.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
            );
            let f = diff.report.failover;
            assert_eq!(f.detected, 1, "the kill must be caught");
            assert!(
                !diff.report.affected.is_empty(),
                "a mid-trace kill on a uniform workload must affect some flows"
            );
            assert!(
                f.availability(4, diff.report.cycles) >= 0.75 - 0.05,
                "availability below the (N-1)/N - 5% floor"
            );
        }

        #[test]
        fn failover_harness_flags_fabricated_silent_loss() {
            use crate::fault::{ReplicaFault, ReplicaFaultConfig, ReplicaFaultKind};
            // Negative control: a hang that never fires keeps all
            // replicas healthy, so the harness must find zero losses and
            // zero detections — then a fabricated undetected injection
            // must be representable as a Loss divergence.
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            let packets = bidirectional_trace(16, 1);
            let diff = compare_sharded_failover(
                &program,
                &design,
                2,
                3,
                &packets,
                ReplicaFaultConfig {
                    schedule: vec![ReplicaFault {
                        at: 10_000_000, // far past the trace
                        replica: 0,
                        kind: ReplicaFaultKind::Hang,
                    }],
                    watchdog_budget: 32,
                    reset_cycles: 64,
                },
                |_| {},
                &[],
                SharedMapOptions::default(),
            );
            assert!(diff.divergences.is_empty());
            assert_eq!(diff.report.failover.injected, 0, "the fault never fired");
            let loss = Divergence::Loss { detail: "packet 3 lost outside the affected set".into() };
            assert!(loss.to_string().contains("loss:"), "Loss divergences render distinctly");
        }
    }
}
