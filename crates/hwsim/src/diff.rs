//! Differential testing harness: the generated hardware must behave
//! exactly like the reference interpreter.
//!
//! For a packet sequence, the pipeline (with all its parallelism, flushes
//! and buffered writes) must produce, per packet, the same XDP action and
//! the same output bytes as running the program *sequentially* on the VM —
//! and the final map contents must agree. This is the central correctness
//! property of eHDL's consistency machinery (§4.1): hazards may cost
//! cycles, never correctness.
//!
//! A [`Scenario`] describes one run: program and design, one schedule of
//! packets and host ops, the map setup, simulator options, the [`Device`]
//! (one pipeline, or N replicas behind RSS steering), whether op trains are
//! coalesced, injected faults, and what is exempt from exact comparison.
//! [`check`] replays the schedule on the sequential VM once, runs the
//! device, and applies every checker the scenario admits:
//!
//! | checker | pipeline | pipeline + faults | replicas | replicas + faults |
//! |---|---|---|---|---|
//! | outcomes: action, bytes, [`AllocatedField`] | every packet | packets no fault touched | every packet | packets of surviving flows |
//! | packet count | [`Divergence::Count`] | [`Report::missing`] | [`Divergence::Count`] | loss accounting |
//! | op acks | exact | all completed | exact | all completed |
//! | final maps | sorted entries | sorted entries | per [`MergePolicy`] | — |
//! | per-key linearizability | — | — | [`Divergence::Coherence`] | [`Divergence::Coherence`] |
//! | loss accounting, blast radius, detection bound | — | — | — | [`Divergence::Loss`] |
//! | proof violations | [`Divergence::Proof`] | — | [`Divergence::Proof`] | [`Divergence::Proof`] |
//!
//! Under faults the final maps of replicas are not compared (a failure
//! legitimately loses private state no merge can reconstruct), op acks
//! are only required to complete (lost packets legitimately change what a
//! read observes), and proofs are not rechecked under pipeline faults (an
//! injected bit flip may legitimately push an address outside its proof).

use crate::batch::{coalesce_ops, expand_results, CoalescedOp, MapShape, OpAnswer};
use crate::ctrl::{CtrlOptions, HostOp, HostOpResult};
use crate::fault::{FaultConfig, FaultEvent, FaultStats, ReplicaFaultConfig};
use crate::shared::{check_linearizable, ShardReport, ShardedNic, SharedMapOptions};
use crate::sim::{PipelineSim, SimCounters, SimError, SimOptions, SimOutcome};
use ehdl_core::shardcheck::MergePolicy;
use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::{Map, MapError, MapKind, MapStore};
use ehdl_ebpf::vm::{Vm, XdpAction};
use ehdl_ebpf::Program;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A divergence between the sequential reference and the device.
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
    /// A packet broke the invariant of the scenario's [`AllocatedField`]
    /// (the NAT invariant, for a translated source port).
    Nat {
        /// Packet sequence number.
        seq: usize,
        /// Which part of the invariant broke.
        detail: String,
    },
    /// Final contents of a map differ.
    Map {
        /// Map id.
        map: u32,
    },
    /// The device produced a different number of packets.
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
            Divergence::Action { seq, vm, hw } => write!(f, "packet {seq}: vm={vm} hw={hw}"),
            Divergence::Packet { seq, at } => {
                write!(f, "packet {seq}: bytes differ at offset {at}")
            }
            Divergence::Nat { seq, detail } => write!(f, "packet {seq}: allocated field: {detail}"),
            Divergence::Map { map } => write!(f, "map {map}: final contents differ"),
            Divergence::Count { vm, hw } => write!(f, "packet counts differ: vm={vm} hw={hw}"),
            Divergence::Proof { detail } => write!(f, "violated proof: {detail}"),
            Divergence::HostOp { id, detail } => write!(f, "host op {id}: {detail}"),
            Divergence::Coherence { detail } => write!(f, "coherence: {detail}"),
            Divergence::Loss { detail } => write!(f, "loss: {detail}"),
        }
    }
}

/// One element of a [`Scenario`]'s interleaved packet / host-op schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// A packet arriving on the wire.
    Packet(Vec<u8>),
    /// A host op submitted at this position in the arrival order: it must
    /// behave as if it executed after every preceding packet and before
    /// every following one.
    Op(HostOp),
}

/// An output field whose value the program *allocates* from shared state
/// — DNAT's translated source port. A flushed packet's committed
/// fetch-and-add is not replayed (the hardware skips the value, as the
/// paper's design would) and replicas race for the allocator, so the value
/// may legitimately differ from the sequential reference's. What must
/// hold instead: the value is in range, a flow keeps one value, no value
/// serves two flows, and every other byte is exact.
#[derive(Debug, Clone)]
pub struct AllocatedField {
    /// Output bytes holding the value, big-endian.
    pub bytes: Range<usize>,
    /// Values the allocator may hand out.
    pub values: Range<u64>,
    /// The flow a sent packet belongs to, or `None` when the program
    /// allocates nothing for it (its bytes are then compared exactly).
    pub flow: fn(&[u8]) -> Option<Vec<u8>>,
}

/// What runs a [`Scenario`]'s schedule.
#[derive(Debug, Clone)]
pub enum Device {
    /// One pipeline; host ops go over its control channel.
    Pipeline {
        /// Control-channel configuration (attached only when the schedule
        /// has ops; the queue is deepened to hold all of them).
        ctrl: CtrlOptions,
        /// Seeded fault campaign on the pipeline.
        faults: Option<FaultConfig>,
    },
    /// Replicas behind RSS steering and the banked fabric ([`ShardedNic`]);
    /// host ops are fenced against canonical storage, so they must target
    /// shared maps.
    Replicas {
        /// Replica count.
        n: usize,
        /// RSS steering seed.
        seed: u64,
        /// Fabric configuration (event logging is always on).
        fabric: SharedMapOptions,
        /// Per-map reconstruction of final state; unlisted maps default to
        /// [`MergePolicy::Direct`] when shared, [`MergePolicy::SumDelta`]
        /// for arrays and [`MergePolicy::Union`] otherwise. Also the
        /// reconciliation policy at fail-over.
        merge: Vec<(u32, MergePolicy)>,
        /// Replica failure schedule and watchdog.
        faults: Option<ReplicaFaultConfig>,
    },
}

/// One differential run, checked by [`check`].
pub struct Scenario<'a> {
    /// The program the VM interprets.
    pub program: &'a Program,
    /// Its compiled design, which the device runs.
    pub design: &'a PipelineDesign,
    /// Packets and host ops in arrival order.
    pub events: Vec<HostEvent>,
    /// Host-side control-plane writes (routes, rules) applied to every
    /// store before either engine runs.
    pub setup: &'a dyn Fn(&mut MapStore),
    /// Simulator options; the VM's clock reads `freeze_time_ns` (1000 ns
    /// when unset).
    pub sim: SimOptions,
    /// What runs the schedule.
    pub device: Device,
    /// Submit each op train (ops with no packet between them) as
    /// [`coalesce_ops`] rewrites it, while the VM runs the originals; acks
    /// are expanded back per original op.
    pub coalesce: bool,
    /// Maps whose final contents are not compared (pure allocator state,
    /// e.g. DNAT's port counter and the bindings that store its ports).
    pub ignore_maps: Vec<u32>,
    /// An allocated output field checked by its invariant instead of byte
    /// for byte.
    pub allocated: Option<AllocatedField>,
}

fn no_setup(_: &mut MapStore) {}

impl<'a> Scenario<'a> {
    /// `packets` on one fault-free pipeline with no setup and no
    /// exemptions, under the harness options: the clock frozen at the VM's
    /// constant `ktime`, and every compile-time packet-bounds proof
    /// rechecked against the concrete access.
    pub fn new(program: &'a Program, design: &'a PipelineDesign, packets: &[Vec<u8>]) -> Self {
        Scenario {
            program,
            design,
            events: packets.iter().cloned().map(HostEvent::Packet).collect(),
            setup: &no_setup,
            sim: SimOptions {
                freeze_time_ns: Some(1000),
                check_proofs: true,
                ..Default::default()
            },
            device: Device::Pipeline { ctrl: CtrlOptions::default(), faults: None },
            coalesce: false,
            ignore_maps: Vec::new(),
            allocated: None,
        }
    }
}

/// What [`check`] found, with the device's run summaries.
#[derive(Debug, Default)]
pub struct Report {
    /// Every divergence found (empty = equivalent).
    pub divergences: Vec<Divergence>,
    /// Packets outside the exempt set the device never retired (a wedged
    /// pipeline); a [`Divergence::Count`] as well unless faults are
    /// injected.
    pub missing: u64,
    /// Pipeline counters (default for replicas).
    pub counters: SimCounters,
    /// Fraction of (replica-)cycles the device was in service.
    pub availability: f64,
    /// Pipeline fault-engine tallies (default without a campaign).
    pub fault_stats: FaultStats,
    /// Pipeline fault log: cycle, site, kind and outcome per injection.
    pub fault_log: Vec<FaultEvent>,
    /// Whether pipeline map storage took an unrecovered upset.
    pub map_storage_corrupted: bool,
    /// The sharded run's report (replica devices).
    pub shard: Option<ShardReport>,
    program: String,
}

impl Report {
    /// Panic with the first divergences unless the run was equivalent.
    pub fn assert_clean(self) -> Report {
        if !self.divergences.is_empty() {
            let shown: Vec<String> =
                self.divergences.iter().take(8).map(|d| d.to_string()).collect();
            panic!(
                "`{}` diverges from the sequential reference ({} issues):\n  {}",
                self.program,
                self.divergences.len(),
                shown.join("\n  ")
            );
        }
        self
    }
}

/// Per-op result as the host sees it.
type OpResult = Result<HostOpResult, MapError>;

/// What the device did, indexed the way the reference's outcomes and acks
/// are.
struct Trace {
    /// Per packet, in arrival order: the outcome, if the device retired one.
    outcomes: Vec<Option<SimOutcome>>,
    /// Completions of the submitted (possibly coalesced) ops, in order.
    acks: Vec<OpResult>,
    /// Packets exempt from equivalence: touched by a fault, or of a flow
    /// homed on a failed replica. Sorted.
    exempt: Vec<u64>,
    /// The sharded run's report.
    shard: Option<ShardReport>,
}

/// The device under test.
enum Dut {
    Pipeline(PipelineSim),
    Replicas(ShardedNic),
}

/// Run `s` on the sequential VM and on its device and apply every checker
/// the scenario admits (see the module docs).
///
/// # Panics
///
/// Panics if the device thread panics, a pipeline's RX queue never
/// drains, or an op targets a map the design lacks.
pub fn check(s: &Scenario) -> Report {
    let (packets, ops, trains) = schedule(s);
    let pipeline_faults = matches!(s.device, Device::Pipeline { faults: Some(_), .. });
    let replica_faults = match &s.device {
        Device::Replicas { faults, .. } => faults.as_ref(),
        Device::Pipeline { .. } => None,
    };

    let mut vm = Vm::new(s.program);
    vm.set_time_ns(s.sim.freeze_time_ns.unwrap_or(1000));
    // Soundness gate: every fact the abstract interpreter claims about the
    // program is rechecked against the reference execution.
    if let Ok(decoded) = s.program.decode() {
        vm.check_facts(ehdl_ebpf::absint::analyze(&decoded));
    }
    (s.setup)(vm.maps_mut());
    let mut dut = Dut::new(s, ops.len());
    // The engines never communicate until both are drained: the device
    // runs on its own thread while the reference replays the schedule here.
    let ((outcomes, acks), trace) = std::thread::scope(|scope| {
        let device = scope.spawn(|| dut.run(&packets, &ops));
        let reference = replay(&mut vm, &s.events);
        (reference, device.join().expect("device thread panicked"))
    });

    // Baseline for delta merging and the linearizability replay.
    let mut initial = MapStore::new(&s.design.maps);
    (s.setup)(&mut initial);
    let mut divs = Vec::new();
    let missing = check_outcomes(&packets, &outcomes, &trace, s.allocated.as_ref(), &mut divs);
    let faulted = pipeline_faults || replica_faults.is_some();
    if missing > 0 && !faulted {
        divs.push(Divergence::Count { vm: packets.len(), hw: packets.len() - missing as usize });
    }
    check_acks(&acks, &trace.acks, &trains, !faulted, &mut divs);
    if replica_faults.is_none() {
        check_maps(s, vm.maps(), &dut, &initial, &mut divs);
    }
    if let (Device::Replicas { fabric, .. }, Some(report)) = (&s.device, &trace.shard) {
        let failover = replica_faults.map(|f| (packets.len() as u64, f.watchdog_budget));
        check_replicas(report, &initial, &fabric.shared_maps, failover, &mut divs);
    }
    if !pipeline_faults {
        let vm_proofs = vm.proof_violations().iter().map(|v| format!("vm: {v}"));
        let hw_proofs = dut.sims().into_iter().filter_map(|(name, sim)| {
            let n = sim.counters().proof_violations;
            (n > 0).then(|| format!("{name}: {n} unguarded accesses left proven bounds"))
        });
        divs.extend(vm_proofs.chain(hw_proofs).map(|detail| Divergence::Proof { detail }));
    }

    let program = s.program.name.clone();
    let mut report =
        Report { divergences: divs, missing, shard: trace.shard, program, ..Default::default() };
    match &dut {
        Dut::Pipeline(sim) => {
            report.counters = *sim.counters();
            report.availability = sim.availability();
            if let Some(e) = sim.fault_engine() {
                report.fault_stats = *e.stats();
                report.fault_log = e.log().to_vec();
                report.map_storage_corrupted = e.map_storage_corrupted();
            }
        }
        Dut::Replicas(nic) => {
            let r = report.shard.as_ref().expect("a sharded run reports");
            report.availability = r.failover.availability(nic.replicas(), r.cycles);
        }
    }
    report
}

/// What the device is handed: the packets, and the ops at their arrival
/// positions (packets before them) — and per op train the answer routing
/// of its carriers: the train verbatim, or as [`coalesce_ops`] rewrites it
/// when the scenario coalesces.
#[allow(clippy::type_complexity)]
fn schedule<'s>(s: &'s Scenario) -> (Vec<&'s [u8]>, Vec<(usize, HostOp)>, Vec<Vec<Vec<OpAnswer>>>) {
    let shape = |id: u32| {
        let d = s.design.maps.get(id as usize)?;
        Some(MapShape { key_size: d.key_size as usize, value_size: d.value_size as usize })
    };
    let (mut packets, mut ops, mut trains) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = s.events.iter().peekable();
    while let Some(event) = events.next() {
        let first = match event {
            HostEvent::Packet(p) => {
                packets.push(&p[..]);
                continue;
            }
            HostEvent::Op(op) => op,
        };
        let mut train = vec![first.clone()];
        while let Some(HostEvent::Op(op)) = events.next_if(|e| matches!(e, HostEvent::Op(_))) {
            train.push(op.clone());
        }
        let carriers = if s.coalesce {
            coalesce_ops(&train, shape).0
        } else {
            let direct = |(orig, op): (usize, HostOp)| CoalescedOp {
                op,
                answers: vec![OpAnswer::Direct { orig }],
            };
            train.into_iter().enumerate().map(direct).collect()
        };
        let mut routing = Vec::with_capacity(carriers.len());
        for c in carriers {
            ops.push((packets.len(), c.op));
            routing.push(c.answers);
        }
        trains.push(routing);
    }
    (packets, ops, trains)
}

/// The sequential reference: packets in arrival order, each op applied
/// between the packets it is scheduled between. Per packet the verdict and
/// output bytes (a VM fault is a drop of the unmodified packet — the
/// hardware drops on access faults), per op its result.
fn replay(vm: &mut Vm, events: &[HostEvent]) -> (Vec<(XdpAction, Vec<u8>)>, Vec<OpResult>) {
    let (mut outcomes, mut acks) = (Vec::with_capacity(events.len()), Vec::new());
    for event in events {
        match event {
            HostEvent::Packet(p) => {
                let mut bytes = p.clone();
                outcomes.push(match vm.run(&mut bytes, 0) {
                    Ok(out) => (out.action, bytes),
                    Err(_) => (XdpAction::Drop, p.clone()),
                });
            }
            HostEvent::Op(op) => acks.push(op.apply(vm.maps_mut())),
        }
    }
    (outcomes, acks)
}

impl Dut {
    /// Instantiate `s`'s device with its maps set up and its faults armed.
    fn new(s: &Scenario, nops: usize) -> Dut {
        match &s.device {
            Device::Pipeline { ctrl, faults } => {
                let mut sim = PipelineSim::with_options(s.design, s.sim);
                (s.setup)(sim.maps_mut());
                if nops > 0 {
                    // The whole schedule is submitted up front, so the queue
                    // must hold every op; arrival latency and fences still
                    // govern when each applies.
                    sim.attach_ctrl(CtrlOptions {
                        queue_depth: ctrl.queue_depth.max(nops),
                        ..*ctrl
                    });
                }
                if let Some(f) = faults {
                    sim.attach_faults(*f);
                }
                Dut::Pipeline(sim)
            }
            Device::Replicas { n, seed, fabric, merge, faults } => {
                let fabric = SharedMapOptions { log_events: true, ..fabric.clone() };
                let mut nic = ShardedNic::new(s.design, *n, *seed, s.sim, fabric);
                nic.setup_maps(s.setup);
                if let Some(f) = faults {
                    nic.attach_replica_faults(f.clone(), merge.clone());
                }
                Dut::Replicas(nic)
            }
        }
    }

    /// Feed the schedule, drain, and collect what came out.
    fn run(&mut self, packets: &[&[u8]], ops: &[(usize, HostOp)]) -> Trace {
        let nic = match self {
            Dut::Pipeline(sim) => return run_pipeline(sim, packets, ops),
            Dut::Replicas(nic) => nic,
        };
        let report = nic.run_with_ops(packets.iter().map(|p| p.to_vec()), ops);
        let outs = report.outcomes.iter().map(|(_, g, out)| (*g, out.clone()));
        Trace {
            outcomes: by_arrival(packets.len(), outs),
            acks: report.host_completions.iter().map(|c| c.result.clone()).collect(),
            exempt: report.affected.clone(),
            shard: Some(report),
        }
    }

    /// Every pipeline of the device, named.
    fn sims(&self) -> Vec<(String, &PipelineSim)> {
        match self {
            Dut::Pipeline(sim) => vec![("pipeline".into(), sim)],
            Dut::Replicas(nic) => {
                (0..nic.replicas()).map(|r| (format!("replica {r}"), nic.sim(r))).collect()
            }
        }
    }
}

/// Feed one pipeline: each op is submitted once the packets before it
/// are enqueued (its barrier is the next packet's sequence number), then
/// everything drains together.
fn run_pipeline(sim: &mut PipelineSim, packets: &[&[u8]], ops: &[(usize, HostOp)]) -> Trace {
    // The reference has checked every op's map id, and the queue holds
    // the whole schedule.
    let submit = |sim: &mut PipelineSim, op: &HostOp| {
        sim.submit_host_op(op.clone()).expect("the channel takes every op");
    };
    let mut ops = ops.iter().peekable();
    for (i, p) in packets.iter().enumerate() {
        while let Some((_, op)) = ops.next_if(|(at, _)| *at <= i) {
            submit(sim, op);
        }
        let mut attempts = 0u32;
        while let Err(SimError::QueueFull { .. }) = sim.try_enqueue(p.to_vec()) {
            sim.settle(1_000_000);
            attempts += 1;
            assert!(attempts < 64, "rx queue never drained");
        }
    }
    for (_, op) in ops {
        submit(sim, op);
    }
    sim.settle(50_000_000);
    let outs = sim.drain();
    sim.finalize_faults();
    let exempt = sim.fault_engine().map(|e| e.affected_seqs().to_vec());
    // Watchdog recovery may retire out of order; nothing else may.
    assert!(
        exempt.is_some() || outs.windows(2).all(|w| w[0].seq < w[1].seq),
        "pipeline must preserve packet order"
    );
    Trace {
        outcomes: by_arrival(packets.len(), outs.into_iter().map(|out| (out.seq, out))),
        acks: sim.host_completions().into_iter().map(|c| c.result).collect(),
        exempt: exempt.unwrap_or_default(),
        shard: None,
    }
}

/// Outcomes indexed by arrival (global packet index).
fn by_arrival(n: usize, outs: impl Iterator<Item = (u64, SimOutcome)>) -> Vec<Option<SimOutcome>> {
    let mut by = vec![None; n];
    for (at, out) in outs {
        if let Some(slot) = by.get_mut(at as usize) {
            *slot = Some(out);
        }
    }
    by
}

/// Per packet outside the trace's exempt set: the device's verdict must equal the
/// reference's and, when it forwards, so must its bytes — or, for a packet
/// the program allocates a field for, the field's invariant. Returns how
/// many such packets the device never retired.
fn check_outcomes(
    sent: &[&[u8]],
    reference: &[(XdpAction, Vec<u8>)],
    device: &Trace,
    allocated: Option<&AllocatedField>,
    divs: &mut Vec<Divergence>,
) -> u64 {
    let mut seen = Seen::default();
    let mut missing = 0;
    let outcomes = sent.iter().zip(reference).zip(&device.outcomes);
    for (seq, ((sent, (action, bytes)), out)) in outcomes.enumerate() {
        if device.exempt.binary_search(&(seq as u64)).is_ok() {
            continue;
        }
        let Some(out) = out else {
            missing += 1;
            continue;
        };
        if out.action != *action {
            divs.push(Divergence::Action { seq, vm: *action, hw: out.action });
            continue;
        }
        if !out.action.forwards() {
            continue;
        }
        match allocated.and_then(|field| Some((field, (field.flow)(sent)?))) {
            Some((field, flow)) => {
                if let Err(detail) = field.admit(flow, bytes, &out.packet, &mut seen) {
                    divs.push(Divergence::Nat { seq, detail });
                }
            }
            None if out.packet != *bytes => {
                let at = out
                    .packet
                    .iter()
                    .zip(bytes)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| out.packet.len().min(bytes.len()));
                divs.push(Divergence::Packet { seq, at });
            }
            None => {}
        }
    }
    missing
}

/// The value each flow holds and the flow each value serves, so far.
type Seen = (HashMap<Vec<u8>, u64>, HashMap<u64, Vec<u8>>);

impl AllocatedField {
    /// Admit one forwarded packet of `flow` whose reference output is
    /// `want` and device output `got`.
    fn admit(&self, flow: Vec<u8>, want: &[u8], got: &[u8], seen: &mut Seen) -> Result<(), String> {
        let len = got.len().max(want.len());
        let mut outside = (0..len).filter(|i| !self.bytes.contains(i));
        if let Some(at) = outside.find(|&i| got.get(i) != want.get(i)) {
            return Err(format!("byte {at} differs outside the field"));
        }
        let Some(field) = got.get(self.bytes.clone()) else {
            return Err(format!("{} bytes cannot hold the field", got.len()));
        };
        let value = field.iter().fold(0u64, |v, &byte| v << 8 | u64::from(byte));
        if !self.values.contains(&value) {
            return Err(format!("value {value} outside {:?}", self.values));
        }
        let held = *seen.0.entry(flow.clone()).or_insert(value);
        if held != value {
            return Err(format!("flow moved from value {held} to {value}"));
        }
        if *seen.1.entry(value).or_insert_with(|| flow.clone()) != flow {
            return Err(format!("value {value} already serves another flow"));
        }
        Ok(())
    }
}

/// The device's op completions against the reference's, after expanding
/// each train's carriers back to per-original results; `exact` compares
/// the results, otherwise every submitted op must merely complete.
fn check_acks(
    reference: &[OpResult],
    device: &[OpResult],
    trains: &[Vec<Vec<OpAnswer>>],
    exact: bool,
    divs: &mut Vec<Divergence>,
) {
    let submitted: usize = trains.iter().map(Vec::len).sum();
    if device.len() != submitted {
        let detail = format!("{} of {submitted} submitted ops completed", device.len());
        divs.push(Divergence::HostOp { id: u64::MAX, detail });
        return;
    }
    if !exact {
        return;
    }
    // Ops complete in submission order (both devices apply a FIFO).
    let mut rest = device;
    let expanded = trains.iter().flat_map(|train| {
        let (head, tail) = rest.split_at(train.len());
        rest = tail;
        expand_results(train, head.to_vec())
    });
    for (id, (hw, vm)) in expanded.zip(reference).enumerate() {
        if hw != *vm {
            let detail = format!("device {hw:?}, reference {vm:?}");
            divs.push(Divergence::HostOp { id: id as u64, detail });
        }
    }
}

/// Sorted key → value contents of a map.
type Entries = BTreeMap<Vec<u8>, Vec<u8>>;

fn entries(store: &MapStore, id: u32) -> Entries {
    map(store, id).iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect()
}

fn map(store: &MapStore, id: u32) -> &Map {
    store.get(id).expect("every store instantiates the design's maps")
}

/// Final map contents: a pipeline's directly, replicas' reconstructed per
/// merge policy, against the reference's.
fn check_maps(
    s: &Scenario,
    reference: &MapStore,
    dut: &Dut,
    initial: &MapStore,
    divs: &mut Vec<Divergence>,
) {
    for def in &s.design.maps {
        let policy = match &s.device {
            Device::Replicas { fabric, merge, .. } => {
                let listed = merge.iter().find(|(m, _)| *m == def.id).map(|&(_, p)| p);
                listed.unwrap_or(if fabric.shared_maps.contains(&def.id) {
                    MergePolicy::Direct
                } else if matches!(def.kind, MapKind::Array | MapKind::PerCpuArray) {
                    MergePolicy::SumDelta
                } else {
                    MergePolicy::Union
                })
            }
            Device::Pipeline { .. } => MergePolicy::Union,
        };
        if policy == MergePolicy::Ignore || s.ignore_maps.contains(&def.id) {
            continue;
        }
        let device = match dut {
            Dut::Pipeline(sim) => Some(entries(sim.maps(), def.id)),
            Dut::Replicas(nic) => merged(policy, def.id, nic, initial),
        };
        if device.as_ref() != Some(&entries(reference, def.id)) {
            divs.push(Divergence::Map { map: def.id });
        }
    }
}

/// Map `id`'s final contents reconstructed from every replica, or `None`
/// when a union finds two replicas holding one key with different values.
fn merged(policy: MergePolicy, id: u32, nic: &ShardedNic, initial: &MapStore) -> Option<Entries> {
    let replicas: Vec<&Map> = (0..nic.replicas()).map(|r| map(nic.sim(r).maps(), id)).collect();
    match policy {
        MergePolicy::Direct | MergePolicy::Ignore => Some(entries(nic.shared_store(), id)),
        // Correct for flow-partitioned maps: RSS guarantees each key is
        // only ever *written* by one replica.
        MergePolicy::Union => {
            let mut union = Entries::new();
            for (_, k, v) in replicas.iter().flat_map(|m| m.iter()) {
                if union.insert(k.to_vec(), v.to_vec()).is_some_and(|old| old != v) {
                    return None;
                }
            }
            Some(union)
        }
        // Correct for counters updated with commutative atomic adds:
        // `initial + Σ (replica − initial)` per little-endian u64 word.
        MergePolicy::SumDelta => {
            let merge = |(slot, k, init): (usize, &[u8], &[u8])| {
                let mut sum = init.to_vec();
                for m in &replicas {
                    add_delta(&mut sum, init, m.value(slot));
                }
                (k.to_vec(), sum)
            };
            Some(map(initial, id).iter().map(merge).collect())
        }
    }
}

/// `sum += value − init` per little-endian u64 word (a short tail word
/// wraps at its own width).
fn add_delta(sum: &mut [u8], init: &[u8], value: &[u8]) {
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    for ((s, i), v) in sum.chunks_mut(8).zip(init.chunks(8)).zip(value.chunks(8)) {
        let total = word(s).wrapping_add(word(v).wrapping_sub(word(i)));
        s.copy_from_slice(&total.to_le_bytes()[..s.len()]);
    }
}

/// The sharded run's own invariants: the shared-map history is per-key
/// linearizable and, under replica failures (`failover` = packets offered
/// and the watchdog budget), no packet vanishes unaccounted, every loss
/// stays inside the failed replicas' flows, and every failure is detected
/// within the budget.
fn check_replicas(
    report: &ShardReport,
    initial: &MapStore,
    shared: &[u32],
    failover: Option<(u64, u64)>,
    divs: &mut Vec<Divergence>,
) {
    if let Err(v) = check_linearizable(initial, shared, &report.events) {
        divs.push(Divergence::Coherence { detail: v.to_string() });
    }
    let Some((offered, budget)) = failover else { return };
    let mut loss = |detail| divs.push(Divergence::Loss { detail });
    let completed: u64 = report.completed.iter().sum();
    let dropped: u64 = report.dropped.iter().sum();
    let (drained, discarded) = (report.drained.len() as u64, report.discarded.len() as u64);
    if offered != completed + drained + discarded + dropped {
        loss(format!(
            "accounting leak: offered {offered} != completed {completed} + drained {drained} \
             + discarded {discarded} + dropped {dropped}"
        ));
    }
    for g in report.drained.iter().chain(&report.discarded) {
        if report.affected.binary_search(g).is_err() {
            loss(format!("packet {g} lost outside the affected flow set"));
        }
    }
    let f = report.failover;
    if f.detected + f.masked_brownouts < f.injected {
        loss(format!(
            "undetected failures: injected {}, detected {}, masked {}",
            f.injected, f.detected, f.masked_brownouts
        ));
    }
    if f.detection_latency_max > budget {
        loss(format!(
            "detection latency {} blew the watchdog budget {budget}",
            f.detection_latency_max
        ));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_core::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};

    /// Compile `program` and demand `packets` run clean on one pipeline.
    fn equivalent(program: &Program, packets: &[Vec<u8>]) {
        let design = Compiler::new().compile(program).unwrap();
        check(&Scenario::new(program, &design, packets)).assert_clean();
    }

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
        equivalent(&p, &packets);
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
        equivalent(&p, &packets);
    }

    /// A NAT-style field at bytes 34..36 keyed by bytes 26..38, values
    /// 100..200.
    fn port_field() -> AllocatedField {
        AllocatedField {
            bytes: 34..36,
            values: 100..200,
            flow: |p| p.get(26..38).map(<[u8]>::to_vec),
        }
    }

    /// `port` written into a copy of `sent` at 34..36.
    fn with_port(sent: &[u8], port: u16) -> Vec<u8> {
        let mut p = sent.to_vec();
        p[34..36].copy_from_slice(&port.to_be_bytes());
        p
    }

    #[test]
    fn allocated_field_checker_flags_range_collision_and_a_second_byte() {
        // Flows A, A, B; the reference hands out 100, 100, 101.
        let a = vec![1u8; 64];
        let b = vec![2u8; 64];
        let sent: Vec<&[u8]> = vec![&a, &a, &b];
        let reference: Vec<(XdpAction, Vec<u8>)> =
            [(&a, 100), (&a, 100), (&b, 101)].map(|(p, v)| (XdpAction::Tx, with_port(p, v))).into();
        let run =
            |ports: [u16; 3], plant: Option<(usize, usize)>, field: Option<&AllocatedField>| {
                let mut outs: Vec<Vec<u8>> =
                    ports.iter().zip(&sent).map(|(&v, p)| with_port(p, v)).collect();
                if let Some((i, at)) = plant {
                    outs[i][at] ^= 0xff;
                }
                let outcomes = outs
                    .into_iter()
                    .enumerate()
                    .map(|(seq, packet)| {
                        let action = XdpAction::Tx;
                        let (redirect_ifindex, latency_cycles, latency_ns) = (None, 0, 0.0);
                        Some(SimOutcome {
                            seq: seq as u64,
                            action,
                            redirect_ifindex,
                            packet,
                            latency_cycles,
                            latency_ns,
                        })
                    })
                    .collect();
                let trace = Trace { outcomes, acks: Vec::new(), exempt: Vec::new(), shard: None };
                let mut divs = Vec::new();
                assert_eq!(check_outcomes(&sent, &reference, &trace, field, &mut divs), 0);
                divs
            };
        let field = Some(&port_field());
        // Other values than the reference's, but a valid allocation.
        assert_eq!(run([150, 150, 120], None, field), vec![]);
        let nat = |divs: Vec<Divergence>| match &divs[..] {
            [Divergence::Nat { seq, detail }] => (*seq, detail.clone()),
            other => panic!("expected one NAT divergence, got {other:?}"),
        };
        let out_of_range = nat(run([150, 150, 200], None, field));
        assert_eq!(out_of_range, (2, "value 200 outside 100..200".into()));
        let collision = nat(run([150, 150, 150], None, field));
        assert_eq!(collision, (2, "value 150 already serves another flow".into()));
        let moved = nat(run([150, 151, 120], None, field));
        assert_eq!(moved, (1, "flow moved from value 150 to 151".into()));
        // A second differing byte after the field: a first-difference view
        // sees only offset 35, inside the field; the field checker names
        // the byte outside it.
        let planted = Some((1, 50));
        assert_eq!(run([150, 150, 120], planted, None)[1], Divergence::Packet { seq: 1, at: 35 });
        let second = nat(run([150, 150, 120], planted, field));
        assert_eq!(second, (1, "byte 50 differs outside the field".into()));
    }

    #[test]
    fn exempt_packets_are_skipped_and_the_rest_counted_missing() {
        let sent: Vec<&[u8]> = vec![&[0; 64]; 3];
        let reference = vec![(XdpAction::Pass, vec![0; 64]); 3];
        let trace =
            Trace { outcomes: vec![None; 3], acks: Vec::new(), exempt: vec![0, 2], shard: None };
        let mut divs = Vec::new();
        assert_eq!(check_outcomes(&sent, &reference, &trace, None, &mut divs), 1);
        assert!(divs.is_empty());
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

        /// `events` on the read-modify-write program over a channel.
        fn run(events: Vec<HostEvent>, ctrl: CtrlOptions, setup: &dyn Fn(&mut MapStore)) -> Report {
            let program = rmw_program();
            let design = Compiler::new().compile(&program).unwrap();
            check(&Scenario {
                events,
                setup,
                device: Device::Pipeline { ctrl, faults: None },
                ..Scenario::new(&program, &design, &[])
            })
        }

        #[test]
        fn interleaved_ops_match_sequential_reference() {
            // Ops hammer the same hot key the packets are incrementing,
            // at several barrier positions — including back-to-back with
            // same-flow packets so writes land inside open RAW windows.
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
            run(events, CtrlOptions { latency_cycles: 1, queue_depth: 64 }, &no_setup)
                .assert_clean();
        }

        #[test]
        fn op_results_cover_errors_and_misses() {
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
            run(events, CtrlOptions::default(), &no_setup).assert_clean();
        }

        #[test]
        fn high_latency_channel_still_barrier_ordered() {
            let mut events = Vec::new();
            for i in 0..12u8 {
                events.push(HostEvent::Packet(pkt(i % 2)));
                if i % 3 == 0 {
                    events.push(update(i % 2, u64::from(i) * 11));
                }
            }
            run(events, CtrlOptions { latency_cycles: 400, queue_depth: 8 }, &no_setup)
                .assert_clean();
        }

        #[test]
        fn asymmetric_setup_gives_map_and_host_op_divergences() {
            // Negative control: a setup that installs a key on its first
            // call only leaves one engine holding it, whichever is set up
            // first — the op reading it and the final maps must both say so.
            let first = std::cell::Cell::new(true);
            let setup = |maps: &mut MapStore| {
                if first.replace(false) {
                    let m = maps.get_mut(0).unwrap();
                    m.update(&key(3), &5u64.to_le_bytes(), UpdateFlags::Any).unwrap();
                }
            };
            let events = vec![HostEvent::Op(HostOp::Lookup { map: 0, key: key(3) })];
            let report = run(events, CtrlOptions::default(), &setup);
            assert!(
                matches!(
                    &report.divergences[..],
                    [Divergence::HostOp { id: 0, .. }, Divergence::Map { map: 0 },]
                ),
                "{:?}",
                report.divergences
            );
        }
    }

    mod sharded {
        use super::*;
        use crate::fault::{ReplicaFault, ReplicaFaultKind};
        use crate::shared::{MapEventKind, HOST_REPLICA};
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

        /// `n` firewall replicas with `shared` behind the fabric.
        fn replicas(n: usize, seed: u64, shared: Vec<u32>) -> Device {
            let fabric = SharedMapOptions { shared_maps: shared, ..Default::default() };
            Device::Replicas { n, seed, fabric, merge: Vec::new(), faults: None }
        }

        fn firewall() -> (Program, PipelineDesign) {
            let program = simple_firewall::program();
            let design = Compiler::new().compile(&program).unwrap();
            (program, design)
        }

        #[test]
        fn firewall_bit_equivalent_across_replicas_and_seeds() {
            let (program, design) = firewall();
            let packets = bidirectional_trace(48, 2);
            for n in [1, 2, 4] {
                for seed in [1, 7] {
                    check(&Scenario {
                        device: replicas(n, seed, Vec::new()),
                        ..Scenario::new(&program, &design, &packets)
                    })
                    .assert_clean();
                }
            }
        }

        fn stats_op(at: u32) -> HostOp {
            HostOp::Lookup { map: simple_firewall::STATS_MAP, key: at.to_le_bytes().to_vec() }
        }

        fn stats_write(at: u32, v: u64) -> HostOp {
            HostOp::Update {
                map: simple_firewall::STATS_MAP,
                key: at.to_le_bytes().to_vec(),
                value: v.to_le_bytes().to_vec(),
                flags: UpdateFlags::Any,
            }
        }

        #[test]
        fn firewall_shared_stats_with_host_ops() {
            let (program, design) = firewall();
            // Host traffic against the *shared* stats array mid-trace:
            // a fenced read must observe the exact sequential-reference
            // count, and a fenced write must serialize into the shared
            // history ahead of all later packets.
            let mut events: Vec<HostEvent> =
                bidirectional_trace(32, 2).into_iter().map(HostEvent::Packet).collect();
            events.insert(60, HostEvent::Op(stats_write(3, 7)));
            events.insert(30, HostEvent::Op(stats_op(0)));
            check(&Scenario {
                events,
                device: replicas(4, 9, vec![simple_firewall::STATS_MAP]),
                ..Scenario::new(&program, &design, &[])
            })
            .assert_clean();
        }

        #[test]
        fn contended_fabric_never_changes_results() {
            let (program, design) = firewall();
            // Worst-case timing pressure: every replica on one bank with
            // multi-cycle latency. Timing may crawl; results may not move.
            let fabric = SharedMapOptions {
                banks: 1,
                latency: 4,
                shared_maps: vec![simple_firewall::STATS_MAP],
                ..Default::default()
            };
            check(&Scenario {
                device: Device::Replicas { n: 4, seed: 5, fabric, merge: Vec::new(), faults: None },
                ..Scenario::new(&program, &design, &bidirectional_trace(24, 3))
            })
            .assert_clean();
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
            let setup = |maps: &mut MapStore| {
                let conn = maps.get_mut(dnat::CONN_MAP).expect("conn map");
                for i in 0..flows {
                    let port = dnat::PORT_BASE + i as u16;
                    let mut val = [0u8; 8];
                    val[..4].copy_from_slice(&dnat::NAT_ADDR);
                    val[4..6].copy_from_slice(&port.to_be_bytes());
                    conn.update(&flow(i).to_key(), &val, UpdateFlags::Any).expect("bind");
                }
            };
            check(&Scenario {
                setup: &setup,
                device: replicas(4, 11, Vec::new()),
                ..Scenario::new(&program, &design, &packets)
            })
            .assert_clean();
        }

        /// The firewall trace with coalescible host-op trains on the shared
        /// stats array every 20 packets: same-key updates collapse, lookup
        /// runs become gathers, a dump absorbs the lookups after it.
        fn stats_trains(packets: Vec<Vec<u8>>) -> Vec<HostEvent> {
            let mut events = Vec::new();
            for (i, p) in packets.into_iter().enumerate() {
                if i % 20 == 10 {
                    let round = i as u64;
                    events.extend(
                        [
                            stats_write(3, round),
                            stats_write(3, round + 1),
                            stats_op(0),
                            stats_op(3),
                            stats_op(1),
                            HostOp::Dump { map: simple_firewall::STATS_MAP },
                            stats_op(2),
                        ]
                        .map(HostEvent::Op),
                    );
                }
                events.push(HostEvent::Packet(p));
            }
            events
        }

        /// Four firewall replicas, stats shared, coalesced trains.
        fn composed<'a>(program: &'a Program, design: &'a PipelineDesign) -> Scenario<'a> {
            Scenario {
                events: stats_trains(bidirectional_trace(48, 3)),
                device: replicas(4, 7, vec![simple_firewall::STATS_MAP]),
                coalesce: true,
                ..Scenario::new(program, design, &[])
            }
        }

        #[test]
        fn sharded_firewall_with_coalesced_op_trains_is_exact() {
            let (program, design) = firewall();
            let scenario = composed(&program, &design);
            let ops = scenario.events.iter().filter(|e| matches!(e, HostEvent::Op(_))).count();
            let report = check(&scenario).assert_clean();
            let applied = report.shard.unwrap().fabric.host_ops as usize;
            assert!(applied < ops, "the trains must coalesce: {applied} carriers for {ops} ops");
        }

        fn kill(at: u64, replica: usize) -> ReplicaFaultConfig {
            ReplicaFaultConfig {
                schedule: vec![ReplicaFault { at, replica, kind: ReplicaFaultKind::Kill }],
                watchdog_budget: 64,
                reset_cycles: 0,
            }
        }

        /// The composed scenario with replica 2 killed mid-trace.
        fn killed<'a>(program: &'a Program, design: &'a PipelineDesign) -> Report {
            let mut scenario = composed(program, design);
            if let Device::Replicas { faults, merge, .. } = &mut scenario.device {
                *faults = Some(kill(80, 2));
                *merge = vec![(simple_firewall::SESSIONS_MAP, MergePolicy::Union)];
            }
            check(&scenario)
        }

        #[test]
        fn sharded_coalesced_op_trains_survive_a_replica_kill() {
            let (program, design) = firewall();
            let report = killed(&program, &design).assert_clean();
            let shard = report.shard.unwrap();
            assert_eq!(shard.failover.detected, 1, "the kill must be caught");
            assert!(
                !shard.drained.is_empty() || !shard.discarded.is_empty(),
                "the kill loses packets"
            );
            assert!(shard.host_completions.iter().all(|c| c.result.is_ok()));
        }

        #[test]
        fn firewall_survivors_bit_equivalent_under_replica_kill() {
            let (program, design) = firewall();
            let merge = vec![(simple_firewall::SESSIONS_MAP, MergePolicy::Union)];
            let fabric = SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                ..Default::default()
            };
            let report = check(&Scenario {
                device: Device::Replicas {
                    n: 4,
                    seed: 7,
                    fabric,
                    merge,
                    faults: Some(kill(80, 2)),
                },
                ..Scenario::new(&program, &design, &bidirectional_trace(48, 3))
            })
            .assert_clean();
            let shard = report.shard.unwrap();
            assert_eq!(shard.failover.detected, 1, "the kill must be caught");
            assert!(
                !shard.affected.is_empty(),
                "a mid-trace kill on a uniform workload must affect some flows"
            );
            assert!(
                report.availability >= 0.75 - 0.05,
                "availability below the (N-1)/N - 5% floor"
            );
        }

        #[test]
        fn sum_delta_on_a_session_table_gives_a_map_divergence() {
            // Negative control: sessions are flow-partitioned entries, not
            // counters; summing deltas over an empty baseline loses them.
            let (program, design) = firewall();
            let mut device = replicas(2, 7, Vec::new());
            if let Device::Replicas { merge, .. } = &mut device {
                *merge = vec![(simple_firewall::SESSIONS_MAP, MergePolicy::SumDelta)];
            }
            let report = check(&Scenario {
                device,
                ..Scenario::new(&program, &design, &bidirectional_trace(16, 1))
            });
            assert_eq!(
                report.divergences,
                vec![Divergence::Map { map: simple_firewall::SESSIONS_MAP }]
            );
        }

        #[test]
        fn corrupted_event_log_gives_a_coherence_divergence() {
            // Negative control: a host read that observed a value storage
            // never held breaks the per-key history.
            let (program, design) = firewall();
            let mut report = check(&composed(&program, &design)).assert_clean().shard.unwrap();
            let read = report
                .events
                .iter()
                .rposition(|e| {
                    e.replica == HOST_REPLICA && e.event.kind == MapEventKind::Read { hit: true }
                })
                .unwrap();
            let initial = MapStore::new(&design.maps);
            let coherence = |report: &ShardReport| {
                let mut divs = Vec::new();
                check_replicas(report, &initial, &[simple_firewall::STATS_MAP], None, &mut divs);
                divs
            };
            assert!(coherence(&report).is_empty());
            report.events[read].event.value[0] ^= 1;
            let divs = coherence(&report);
            assert!(matches!(&divs[..], [Divergence::Coherence { .. }]), "{divs:?}");
        }

        #[test]
        fn failover_checker_flags_leaks_strays_and_late_detection() {
            // Negative controls on a real fail-over report: each planted
            // defect must surface as exactly one loss divergence.
            let (program, design) = firewall();
            let clean = killed(&program, &design).assert_clean().shard.unwrap();
            let initial = MapStore::new(&design.maps);
            let offered = clean.outcomes.len() as u64
                + clean.drained.len() as u64
                + clean.discarded.len() as u64;
            let losses = |plant: &dyn Fn(&mut ShardReport)| {
                let mut report = clean.clone();
                plant(&mut report);
                let mut divs = Vec::new();
                check_replicas(
                    &report,
                    &initial,
                    &[simple_firewall::STATS_MAP],
                    Some((offered, 64)),
                    &mut divs,
                );
                divs
            };
            assert!(losses(&|_| {}).is_empty());
            let lost = *clean
                .drained
                .iter()
                .chain(&clean.discarded)
                .next()
                .expect("the kill loses packets");
            let one_loss = |divs: Vec<Divergence>, what: &str| match &divs[..] {
                [Divergence::Loss { detail }] => assert!(detail.contains(what), "{detail}"),
                other => panic!("expected one loss naming {what:?}, got {other:?}"),
            };
            // A leaked packet: lost, but nowhere accounted.
            one_loss(
                losses(&|r| {
                    r.drained.retain(|&g| g != lost);
                    r.discarded.retain(|&g| g != lost);
                }),
                "accounting leak",
            );
            // A loss outside the failed replica's flows.
            one_loss(
                losses(&|r| r.affected.retain(|&g| g != lost)),
                "outside the affected flow set",
            );
            // A detection later than the watchdog budget.
            one_loss(
                losses(&|r| r.failover.detection_latency_max = 65),
                "blew the watchdog budget",
            );
            // A failure never detected.
            one_loss(losses(&|r| r.failover.detected = 0), "undetected failures");
        }
    }
}
