//! Many-pipeline scale-out: N replicas of one generated pipeline behind
//! an RSS flow-steering front end, sharing map state through a banked
//! memory interconnect (ROADMAP item 2; VeBPF's many-core architecture).
//!
//! The model has three layers:
//!
//! * **Steering** — [`rss_flow_hash`] shards flows across
//!   replicas; both directions of a flow land on the same replica, so
//!   flow-local map state (firewall sessions, NAT bindings) never
//!   migrates and stays *partitioned* by construction.
//! * **Storage** — one canonical copy of every map. Replicas run in
//!   single-threaded lockstep; each replica's cycle executes against the
//!   canonical store (shared maps are swapped in for exactly that
//!   replica's cycle), so cross-replica reads and writes interleave in a
//!   fixed global order: replica 0's cycle, replica 1's, … — the
//!   sequential consistency a real arbiter serializing one winner per
//!   bank port would give, which makes every run deterministic and the
//!   access history per-key linearizable by construction. The attached
//!   memory-port tap ([`crate::sim::PipelineSim::attach_shared_port`])
//!   records the history so [`check_linearizable`] can *verify* that
//!   instead of assuming it.
//! * **Timing** — every *shared-map* access is routed to a bank
//!   (`hash(map, key) % banks`, one access per bank per cycle); private
//!   maps are replica-local BRAM and never touch the interconnect. When
//!   several replicas hit one bank in the same cycle, a round-robin
//!   arbiter (the grant pointer rotates every cycle, so no replica
//!   starves) picks the winner and each loser's pipeline is frozen for
//!   its queue position; access latency beyond 1 cycle stalls the
//!   requester too. The stall back-pressures the whole replica exactly
//!   like the FEB reload bubble: its clock is gated, packets sit in
//!   their stages, and the RX queue absorbs arrivals. Timing never
//!   touches storage, so it can change stalls, never results.
//!
//! Host ops against shared maps reuse the barrier-fence discipline of
//! the `ehdl-runtime` control plane (PR 5): an op submitted at global
//! arrival position `B` waits until every replica has retired all its
//! pre-`B` arrivals, then executes against canonical storage between two
//! global cycles — exactly the sequential-reference position.

use crate::ctrl::{HostOp, HostOpResult};
use crate::fault::{ReplicaFaultConfig, ReplicaFaultKind, ReplicaFaultStats};
use crate::sim::{PipelineSim, SimOptions, SimOutcome};
use ehdl_core::shardcheck::MergePolicy;
use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::{MapError, MapStore, UpdateFlags};
use ehdl_net::FiveTuple;
use std::collections::VecDeque;

/// Symmetric RSS hash over the parsed 5-tuple, with an Ethernet-header
/// fallback for non-tuple-steered traffic.
///
/// Endpoints are canonically ordered before mixing, so a flow and its
/// reverse direction produce the same hash — required by stateful
/// programs (the firewall looks sessions up by the *reverse* tuple on
/// return traffic; both directions must shard to the same replica).
/// Mixing is `ehdl-rng`-style (splitmix64 finalizer), fully determined
/// by `(packet bytes, seed)`. Uses [`FiveTuple::parse_for_steering`]:
/// the hash must key off exactly the bytes XDP programs guard, even on
/// packets that are not well-formed IPv4.
pub fn rss_flow_hash(packet: &[u8], seed: u64) -> u64 {
    match FiveTuple::parse_for_steering(packet) {
        Some(t) => {
            let a = (u64::from(u32::from_be_bytes(t.saddr)) << 16) | u64::from(t.sport);
            let b = (u64::from(u32::from_be_bytes(t.daddr)) << 16) | u64::from(t.dport);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            mix64(seed ^ lo ^ hi.rotate_left(23) ^ (u64::from(t.proto) << 56))
        }
        None => {
            // FNV-1a over the Ethernet header (or whatever bytes exist).
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
            for &b in packet.iter().take(14) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            mix64(h)
        }
    }
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The RSS front end as a standalone dispatch structure: a symmetric flow
/// hash modulo a replica list, the same assignment [`ShardedNic`] makes
/// while every replica serves.
///
/// RSS is the only steering policy, but this stays an enum with one
/// variant: the repository benchmark builds `CompiledSteering::RssFlowHash
/// { .. }` by name to time the hash on its own.
#[derive(Debug, Clone)]
pub enum CompiledSteering {
    /// RSS: symmetric flow hash modulo the replica list.
    RssFlowHash {
        /// Replica pipeline indices (typically `0..n`).
        replicas: Box<[usize]>,
        /// Hash seed (Toeplitz-key analogue); same seed + same trace
        /// gives the identical shard assignment on every run.
        seed: u64,
    },
}

impl CompiledSteering {
    /// Choose a replica for a packet.
    pub fn steer(&self, packet: &[u8]) -> usize {
        let CompiledSteering::RssFlowHash { replicas, seed } = self;
        replicas[(rss_flow_hash(packet, *seed) % replicas.len() as u64) as usize]
    }
}

/// Rewrite an RSS indirection table in place after a replica-set change.
///
/// `table[slot]` is the replica currently serving hash bucket `slot`, and
/// `home[slot]` its original owner. Slots whose current owner stopped
/// serving are redistributed round-robin across the serving set; slots
/// whose *home* returned to service get their home back. The table length
/// — and therefore the hash modulus — never changes, so flows hashed to
/// healthy replicas never migrate during a fail-over: exactly how a real
/// NIC reprograms its RSS indirection table.
///
/// Returns the number of slots rewritten; the table is left untouched
/// (and 0 returned) when no replica serves.
fn resteer_rss_table(table: &mut [usize], home: &[usize], serving: &[bool]) -> usize {
    let heirs: Vec<usize> = (0..serving.len()).filter(|&r| serving[r]).collect();
    if heirs.is_empty() {
        return 0;
    }
    let mut next = 0usize;
    let mut rewritten = 0usize;
    for (slot, cur) in table.iter_mut().enumerate() {
        let h = home.get(slot).copied().unwrap_or(*cur);
        let want = if serving.get(h).copied().unwrap_or(false) {
            h
        } else {
            let heir = heirs[next % heirs.len()];
            next += 1;
            heir
        };
        if *cur != want {
            *cur = want;
            rewritten += 1;
        }
    }
    rewritten
}

/// One traced shared-map access, as seen by the banked fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapAccess {
    /// Mixed hash of `(map, key)`; the bank index derives from it.
    pub key_hash: u64,
}

/// What a shared-map event did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapEventKind {
    /// A lookup; `hit` records whether the key was present.
    Read {
        /// Key was present.
        hit: bool,
    },
    /// An insert/replace (or an atomic, logged with its post-update
    /// value) — `value` holds the bytes now in storage.
    Write,
    /// A delete.
    Delete,
}

/// One fully-described access to a *shared* map, for the
/// linearizability checker. Recorded at the moment storage actually
/// changed (or was read), so log order equals storage order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEvent {
    /// Target map id.
    pub map: u32,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Read: the value observed (empty on miss). Write: the value now
    /// stored (for atomics, the full post-update value). Delete: empty.
    pub value: Vec<u8>,
    /// Access kind.
    pub kind: MapEventKind,
}

/// A [`MapEvent`] in the global (cross-replica) history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedEvent {
    /// Global cycle at which the access happened.
    pub cycle: u64,
    /// Issuing replica, or [`HOST_REPLICA`] for a host control op.
    pub replica: usize,
    /// The access itself.
    pub event: MapEvent,
}

/// `replica` tag for host-issued events in the shared history.
pub const HOST_REPLICA: usize = usize::MAX;

/// Mixed hash of `(map, key)` used for banking: FNV-1a
/// over the key bytes folded with the map id, splitmix-finalized so the
/// low bits (bank index) avalanche.
pub fn map_key_hash(map: u32, key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(map).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    mix64(h)
}

/// Banked shared-map fabric configuration.
#[derive(Debug, Clone)]
pub struct SharedMapOptions {
    /// Number of memory banks (1 access per bank per cycle, granted
    /// round-robin across replicas).
    pub banks: usize,
    /// Access latency in cycles; every fabric access stalls its
    /// requester `latency - 1` cycles on top of conflict serialization.
    pub latency: u64,
    /// Map ids with one storage copy shared by *all* replicas (e.g. a
    /// global stats array). Unlisted maps are per-replica private —
    /// correct for flow-local state under RSS sharding.
    pub shared_maps: Vec<u32>,
    /// Log full [`SharedEvent`]s on shared maps (linearizability
    /// checking; costs allocations, so off for pure benches).
    pub log_events: bool,
}

impl Default for SharedMapOptions {
    fn default() -> SharedMapOptions {
        SharedMapOptions { banks: 8, latency: 1, shared_maps: Vec::new(), log_events: false }
    }
}

/// Fabric telemetry for one sharded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedMapStats {
    /// Shared-map accesses, all replicas (private maps are replica-local
    /// BRAM and never reach the interconnect).
    pub fabric_accesses: u64,
    /// Fabric accesses that lost arbitration for at least one cycle.
    pub conflicts: u64,
    /// Stall cycles levied on each replica (conflicts + latency).
    pub stall_cycles: Vec<u64>,
    /// Host ops applied to shared storage.
    pub host_ops: u64,
}

impl SharedMapStats {
    /// Fraction of fabric accesses that lost arbitration at least once.
    pub fn conflict_rate(&self) -> f64 {
        if self.fabric_accesses == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.fabric_accesses as f64
        }
    }
}

/// A completed host op against shared storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedOpCompletion {
    /// Submission id (order of [`ShardedNic::run_with_ops`] schedule).
    pub id: u64,
    /// What the op returned.
    pub result: Result<HostOpResult, MapError>,
}

/// Result of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Packets steered to each replica (accepted into its RX queue).
    pub steered: Vec<u64>,
    /// Packets completed by each replica.
    pub completed: Vec<u64>,
    /// Frames the replica's ingress MAC rejected (oversized). RX-queue
    /// overflow cannot drop here: the steering front end applies
    /// head-of-line backpressure instead.
    pub dropped: Vec<u64>,
    /// Global cycles the run took (feed through drain).
    pub cycles: u64,
    /// `(replica, global packet index, outcome)` in per-replica
    /// completion order.
    pub outcomes: Vec<(usize, u64, SimOutcome)>,
    /// Fabric telemetry.
    pub fabric: SharedMapStats,
    /// Global shared-map access history (empty unless
    /// [`SharedMapOptions::log_events`]).
    pub events: Vec<SharedEvent>,
    /// Host-op completions, in application order.
    pub host_completions: Vec<SharedOpCompletion>,
    /// Replica-failure campaign counters (zeroes without an attached
    /// [`ReplicaFaultConfig`]).
    pub failover: ReplicaFaultStats,
    /// Global packet indices drained (punted back to the host) from dead
    /// replicas' ingress FIFOs during this run. Sorted.
    pub drained: Vec<u64>,
    /// Global packet indices discarded mid-pipeline with a dead replica's
    /// clock domain during this run. Sorted.
    pub discarded: Vec<u64>,
    /// Global packet indices whose flow was homed on a replica that
    /// failed (detected) at any point: their results may legitimately
    /// diverge from a failure-free reference. Sorted. The complement —
    /// the *surviving* flows — must stay bit-equivalent to the
    /// sequential oracle.
    pub affected: Vec<u64>,
}

impl ShardReport {
    /// Aggregate throughput: completed packets per global cycle.
    pub fn aggregate_pkts_per_cycle(&self) -> f64 {
        let done: u64 = self.completed.iter().sum();
        if self.cycles == 0 {
            0.0
        } else {
            done as f64 / self.cycles as f64
        }
    }

    /// p99 packet latency in cycles (0 for an empty run).
    pub fn p99_latency_cycles(&self) -> u64 {
        let mut lat: Vec<u64> = self.outcomes.iter().map(|(_, _, o)| o.latency_cycles).collect();
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)]
    }

    /// Steering imbalance: hottest replica's arrivals over the mean
    /// (1.0 = perfectly balanced; 1.0 by convention for an empty run).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.steered.iter().sum();
        if total == 0 || self.steered.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.steered.len() as f64;
        self.steered.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// A host op waiting for its cross-replica fence.
#[derive(Debug)]
struct PendingSharedOp {
    id: u64,
    op: HostOp,
    /// Per replica: arrivals accepted before submission. The op applies
    /// once every replica has *completed* at least this many packets —
    /// the sequential-reference position of the PR 5 barrier, extended
    /// across replicas.
    barrier: Vec<u64>,
}

/// Service state of one replica, driven by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Clock running, packets flowing.
    Serving,
    /// Clock gone, not yet detected: the ingress FIFO still accepts
    /// frames, nothing retires, the heartbeat deadline is counting down.
    Dark {
        /// Global cycle the clock died.
        since: u64,
        /// Failure mode.
        kind: ReplicaFaultKind,
    },
    /// Detected and fail-stopped: in-flight packets accounted, state
    /// reconciled, flows re-steered to survivors.
    Failed {
        /// Global cycle at which the replica is re-admitted (`None` for
        /// a permanent kill).
        returns_at: Option<u64>,
    },
}

impl Health {
    fn serving(self) -> bool {
        matches!(self, Health::Serving)
    }
}

/// N replicas of one pipeline behind RSS steering and the banked
/// shared-map fabric.
#[derive(Debug)]
pub struct ShardedNic {
    sims: Vec<PipelineSim>,
    fabric: SharedMapOptions,
    /// Canonical storage for shared maps; private maps live in each
    /// replica's own store.
    shared_store: MapStore,
    shared_ids: Vec<u32>,
    stats: SharedMapStats,
    events: Vec<SharedEvent>,
    /// Per replica: local arrival seq → global packet index.
    seq_map: Vec<Vec<u64>>,
    cycle: u64,
    next_op_id: u64,
    pending_ops: VecDeque<PendingSharedOp>,
    completions: Vec<SharedOpCompletion>,
    /// Per-replica per-cycle access scratch (recycled).
    acc_scratch: Vec<Vec<MapAccess>>,
    ev_scratch: Vec<MapEvent>,
    /// Flattened per-cycle arbitration worklist (recycled).
    bank_order: Vec<(usize, usize)>,
    /// RSS hash seed (the indirection tables below index by
    /// `hash % home_table.len()`).
    rss_seed: u64,
    /// Original RSS indirection table: `home_table[slot]` is slot's owner
    /// when every replica serves. Fixed for the NIC's lifetime.
    home_table: Vec<usize>,
    /// Live indirection table the front end steers by; rewritten on
    /// fail-over and re-admission. Same length as `home_table`, so the
    /// hash modulus — and therefore every healthy flow's binding — is
    /// stable across re-steers.
    live_table: Vec<usize>,
    /// Per-replica service state.
    health: Vec<Health>,
    /// Replica failure schedule + watchdog parameters (schedule sorted by
    /// cycle; `None` = no failure injection).
    rfault: Option<ReplicaFaultConfig>,
    next_rfault: usize,
    /// Private-map reconciliation policy applied at fail-over.
    merge: Vec<(u32, MergePolicy)>,
    fstats: ReplicaFaultStats,
    /// Replicas that ever fail-stopped (masked brown-outs excluded):
    /// flows homed there are permanently "affected".
    ever_failed: Vec<bool>,
    /// Per-replica packets lost to fail-stops (drained + discarded),
    /// credited against host-op fences so an op barrier can still clear
    /// when some of its pre-submission arrivals died with a replica.
    lost_accounted: Vec<u64>,
    /// Global indices of drained / discarded packets (all runs).
    drained_glob: Vec<u64>,
    discarded_glob: Vec<u64>,
}

/// Derive the shared-map fabric configuration a design's verified
/// [`ShardPlan`](ehdl_core::shardcheck::ShardPlan) prescribes: maps the
/// pass proved genuinely cross-replica go behind the fabric, with the
/// statically pre-assigned bank count (constant-keyed shared state gets a
/// single bank — more cannot spread one hot key).
pub fn fabric_from_plan(plan: &ehdl_core::shardcheck::ShardPlan) -> SharedMapOptions {
    SharedMapOptions {
        shared_maps: plan.shared_map_ids(),
        banks: plan.fabric_banks() as usize,
        ..SharedMapOptions::default()
    }
}

impl ShardedNic {
    /// Instantiate a sharded NIC from the design's own verified
    /// [`ShardPlan`](ehdl_core::shardcheck::ShardPlan): shared-map set,
    /// bank count and merge semantics all come from the static analysis
    /// instead of a hand-written [`SharedMapOptions`].
    ///
    /// # Errors
    ///
    /// The plan's [`ShardError`](ehdl_core::shardcheck::ShardError)s when
    /// the design cannot be proven sound at `replicas` — an unfenced
    /// cross-replica read-modify-write, or a design compiled without the
    /// value analysis.
    ///
    /// # Panics
    ///
    /// As [`ShardedNic::new`].
    pub fn from_shard_plan(
        design: &PipelineDesign,
        replicas: usize,
        seed: u64,
        sim_options: SimOptions,
    ) -> Result<ShardedNic, Vec<ehdl_core::shardcheck::ShardError>> {
        design.shard.require_sound(replicas)?;
        Ok(ShardedNic::new(design, replicas, seed, sim_options, fabric_from_plan(&design.shard)))
    }

    /// Instantiate `replicas` copies of `design` sharing maps per
    /// `fabric`, with RSS steering seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0, `fabric.banks` is 0, `fabric.latency`
    /// is 0, or a shared map id does not exist in the design.
    pub fn new(
        design: &PipelineDesign,
        replicas: usize,
        seed: u64,
        sim_options: SimOptions,
        fabric: SharedMapOptions,
    ) -> ShardedNic {
        assert!(replicas > 0, "at least one replica");
        assert!(fabric.banks > 0, "at least one memory bank");
        assert!(fabric.latency > 0, "access latency is at least one cycle");
        for &m in &fabric.shared_maps {
            assert!(
                design.maps.iter().any(|d| d.id == m),
                "shared map {m} does not exist in the design"
            );
        }
        let mut shared_ids = fabric.shared_maps.clone();
        shared_ids.sort_unstable();
        shared_ids.dedup();
        let mut sims: Vec<PipelineSim> =
            (0..replicas).map(|_| PipelineSim::with_options(design, sim_options)).collect();
        for sim in &mut sims {
            sim.attach_shared_port(&shared_ids, fabric.log_events);
        }
        ShardedNic {
            sims,
            shared_store: MapStore::new(&design.maps),
            shared_ids,
            stats: SharedMapStats { stall_cycles: vec![0; replicas], ..Default::default() },
            events: Vec::new(),
            seq_map: vec![Vec::new(); replicas],
            cycle: 0,
            next_op_id: 0,
            pending_ops: VecDeque::new(),
            completions: Vec::new(),
            acc_scratch: vec![Vec::new(); replicas],
            ev_scratch: Vec::new(),
            bank_order: Vec::new(),
            fabric,
            rss_seed: seed,
            home_table: (0..replicas).collect(),
            live_table: (0..replicas).collect(),
            health: vec![Health::Serving; replicas],
            rfault: None,
            next_rfault: 0,
            merge: Vec::new(),
            fstats: ReplicaFaultStats::default(),
            ever_failed: vec![false; replicas],
            lost_accounted: vec![0; replicas],
            drained_glob: Vec::new(),
            discarded_glob: Vec::new(),
        }
    }

    /// Attach a replica-failure schedule (cycles are on the NIC's global
    /// clock, counted from construction) and the private-map
    /// reconciliation policy applied at each fail-over:
    /// [`MergePolicy::Union`] copies the dead replica's entries into
    /// the canonical store where absent (flow/session tables),
    /// [`MergePolicy::SumDelta`] adds its counter words into the
    /// canonical copy (zero-initialized stats arrays);
    /// [`MergePolicy::Direct`]/[`MergePolicy::Ignore`] skip the map.
    /// Shared maps already live canonically and are never reconciled.
    pub fn attach_replica_faults(
        &mut self,
        mut cfg: ReplicaFaultConfig,
        merge: Vec<(u32, MergePolicy)>,
    ) {
        cfg.schedule.sort_by_key(|f| f.at);
        self.rfault = Some(cfg);
        self.next_rfault = 0;
        self.merge = merge;
    }

    /// Is replica `r` currently in service?
    pub fn replica_serving(&self, r: usize) -> bool {
        self.health.get(r).copied().is_some_and(Health::serving)
    }

    /// The live RSS indirection table (slot → serving replica).
    pub fn live_rss_table(&self) -> &[usize] {
        &self.live_table
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.sims.len()
    }

    /// Apply `setup` to every replica's private store *and* canonical
    /// shared storage, so all copies start identical (the private copy
    /// of a shared map is masked during execution, but keeping it
    /// consistent costs nothing and avoids surprises in post-run dumps).
    pub fn setup_maps(&mut self, setup: impl Fn(&mut MapStore)) {
        for sim in &mut self.sims {
            setup(sim.maps_mut());
        }
        setup(&mut self.shared_store);
    }

    /// Replica `r`'s simulator (post-run counters, private maps).
    pub fn sim(&self, r: usize) -> &PipelineSim {
        &self.sims[r]
    }

    /// Mutable access to replica `r`'s simulator.
    pub fn sim_mut(&mut self, r: usize) -> &mut PipelineSim {
        &mut self.sims[r]
    }

    /// Canonical storage of the shared maps (host view).
    pub fn shared_store(&self) -> &MapStore {
        &self.shared_store
    }

    /// Run a packet burst to completion. Up to `replicas` packets enter
    /// the steering front end per global cycle — the scaled line rate a
    /// wider ingress provides — and the run drains fully before
    /// returning.
    pub fn run(&mut self, packets: impl IntoIterator<Item = Vec<u8>>) -> ShardReport {
        self.run_with_ops(packets, &[])
    }

    /// Like [`ShardedNic::run`], with host ops against shared maps
    /// interleaved into the arrival stream: `(at, op)` submits `op` when
    /// `at` packets have entered the NIC. The op fences behind every
    /// replica's pre-`at` arrivals (the PR 5 barrier, cross-replica) and
    /// applies to canonical storage between two global cycles.
    pub fn run_with_ops(
        &mut self,
        packets: impl IntoIterator<Item = Vec<u8>>,
        ops: &[(usize, HostOp)],
    ) -> ShardReport {
        let mut packets: Vec<Vec<u8>> = packets.into_iter().collect();
        let n = self.sims.len();
        let mut ops: VecDeque<(usize, HostOp)> = {
            let mut v = ops.to_vec();
            v.sort_by_key(|&(at, _)| at);
            v.into()
        };
        let mut steered = vec![0u64; n];
        let mut dropped = vec![0u64; n];
        // Home replica of each fed packet, for the affected set.
        let mut orig_targets: Vec<usize> = Vec::with_capacity(packets.len());
        let start_cycle = self.cycle;
        let drained0 = self.drained_glob.len();
        let discarded0 = self.discarded_glob.len();
        let before_completed: Vec<u64> = self.sims.iter().map(|s| s.counters().completed).collect();
        let mut fed = 0usize;
        // Generous budget: a hung run is a bug, not a workload property.
        let mut budget: u64 = 100_000_000;
        loop {
            // Host ops whose submission point has been reached enter the
            // fence queue with the current per-replica arrival snapshot.
            while ops.front().is_some_and(|&(at, _)| at <= fed) {
                let (_, op) = ops.pop_front().expect("front checked");
                self.submit_shared_op(op);
            }
            self.apply_fenced_ops();

            // Feed: up to `n` arrivals per global cycle. Feeding holds
            // while an op is fenced: the op must land after every
            // pre-submission arrival and before every later one (the
            // drain-and-apply discipline of the PR 5 control plane), so
            // later packets stay on the wire until the fence clears.
            // Steering is *live*: the slot is looked up in the current
            // indirection table at feed time, so a re-steer redirects the
            // dead replica's flows from the very next frame.
            for _ in 0..n {
                if fed >= packets.len() || !self.pending_ops.is_empty() {
                    break;
                }
                if ops.front().is_some_and(|&(at, _)| at <= fed) {
                    break; // Submit the op before feeding past its slot.
                }
                let slot = self.steer_slot(&packets[fed]);
                let t = self.live_table[slot];
                if !self.sims[t].rx_has_space() {
                    // Head-of-line backpressure: the ingress holds the
                    // frame (and everything behind it) until the hot
                    // replica's queue drains — RSS imbalance costs
                    // aggregate throughput rather than silently losing
                    // packets. A dark (undetected-dead) replica blocks
                    // here at most a watchdog budget before its flows are
                    // re-steered.
                    break;
                }
                // Fed frames are never read again: move, don't copy. A frame
                // blocked above stays in place for the next cycle's retry.
                if self.sims[t].try_enqueue(std::mem::take(&mut packets[fed])).is_ok() {
                    steered[t] += 1;
                    self.seq_map[t].push(fed as u64);
                } else {
                    // Only oversized frames reach here; the MAC drops
                    // them at ingress and the loss is surfaced, never
                    // silent.
                    dropped[t] += 1;
                }
                orig_targets.push(self.home_table[slot]);
                fed += 1;
            }

            self.step_all();

            if fed >= packets.len()
                && ops.is_empty()
                && self.pending_ops.is_empty()
                && self.all_settled()
            {
                break;
            }
            budget -= 1;
            assert!(budget > 0, "sharded run did not settle");
        }
        let completed: Vec<u64> = self
            .sims
            .iter()
            .zip(&before_completed)
            .map(|(s, &c0)| s.counters().completed - c0)
            .collect();
        let mut outcomes = Vec::new();
        for r in 0..n {
            for o in self.sims[r].drain() {
                let g = self.seq_map[r].get(o.seq as usize).copied().unwrap_or(u64::MAX);
                outcomes.push((r, g, o));
            }
        }
        let mut drained = self.drained_glob[drained0..].to_vec();
        drained.sort_unstable();
        let mut discarded = self.discarded_glob[discarded0..].to_vec();
        discarded.sort_unstable();
        let affected: Vec<u64> = orig_targets
            .iter()
            .enumerate()
            .filter(|&(_, &t)| self.ever_failed[t])
            .map(|(i, _)| i as u64)
            .collect();
        ShardReport {
            steered,
            completed,
            dropped,
            cycles: self.cycle - start_cycle,
            outcomes,
            fabric: self.stats.clone(),
            events: std::mem::take(&mut self.events),
            host_completions: std::mem::take(&mut self.completions),
            failover: self.fstats,
            drained,
            discarded,
            affected,
        }
    }

    /// RSS indirection slot for a packet.
    fn steer_slot(&self, packet: &[u8]) -> usize {
        (rss_flow_hash(packet, self.rss_seed) % self.home_table.len() as u64) as usize
    }

    /// Every replica accounted for: serving replicas idle, fail-stopped
    /// replicas permanently down. Dark replicas and pending re-admissions
    /// keep the run alive until the watchdog (or the returning clock)
    /// resolves them.
    fn all_settled(&self) -> bool {
        self.health.iter().zip(&self.sims).all(|(h, s)| match h {
            Health::Serving => s.is_idle(),
            Health::Dark { .. } => false,
            Health::Failed { returns_at } => returns_at.is_none(),
        })
    }

    /// Queue a host op against shared storage, fenced behind every
    /// replica's arrivals so far. Returns the submission id.
    fn submit_shared_op(&mut self, op: HostOp) -> u64 {
        let id = self.next_op_id;
        self.next_op_id += 1;
        let barrier = self.seq_map.iter().map(|s| s.len() as u64).collect();
        self.pending_ops.push_back(PendingSharedOp { id, op, barrier });
        id
    }

    /// Apply every head-of-queue op whose fence holds (all replicas have
    /// retired their pre-submission arrivals). Ops stay ordered among
    /// themselves.
    fn apply_fenced_ops(&mut self) {
        while let Some(p) = self.pending_ops.front() {
            // Packets lost to a replica failure are accounted (drained or
            // discarded) rather than completed; they credit the fence so a
            // host op is never wedged behind a dead replica's arrivals.
            let fenced = p
                .barrier
                .iter()
                .enumerate()
                .all(|(r, &b)| self.sims[r].counters().completed + self.lost_accounted[r] >= b);
            if !fenced {
                return;
            }
            let p = self.pending_ops.pop_front().expect("front checked");
            let result = p.op.apply(&mut self.shared_store);
            self.stats.host_ops += 1;
            if self.fabric.log_events {
                self.log_host_event(&p.op, &result);
            }
            self.completions.push(SharedOpCompletion { id: p.id, result });
        }
    }

    /// Mirror a host op into the shared event history: one event per key
    /// it read or wrote. A failed op (or failed key of a gather) touched
    /// nothing, and a dump names no key to check.
    fn log_host_event(&mut self, op: &HostOp, result: &Result<HostOpResult, MapError>) {
        let map = op.map();
        if self.shared_ids.binary_search(&map).is_err() {
            return;
        }
        let cycle = self.cycle;
        let mut log = |key: &[u8], value: Vec<u8>, kind| {
            let event = MapEvent { map, key: key.to_vec(), value, kind };
            self.events.push(SharedEvent { cycle, replica: HOST_REPLICA, event });
        };
        let read = |v: &Option<Vec<u8>>| {
            (v.clone().unwrap_or_default(), MapEventKind::Read { hit: v.is_some() })
        };
        match (op, result) {
            (HostOp::Update { key, value, .. }, Ok(HostOpResult::Updated)) => {
                log(key, value.clone(), MapEventKind::Write);
            }
            (HostOp::Delete { key, .. }, Ok(HostOpResult::Deleted)) => {
                log(key, Vec::new(), MapEventKind::Delete);
            }
            (HostOp::Lookup { key, .. }, Ok(HostOpResult::Value(v))) => {
                let (value, kind) = read(v);
                log(key, value, kind);
            }
            (HostOp::Gather { keys, .. }, Ok(HostOpResult::Values(vs))) => {
                for (key, v) in keys.iter().zip(vs) {
                    if let Ok(v) = v {
                        let (value, kind) = read(v);
                        log(key, value, kind);
                    }
                }
            }
            (HostOp::Dump { .. }, _) | (_, Err(_)) => {}
            (
                HostOp::Update { .. }
                | HostOp::Delete { .. }
                | HostOp::Lookup { .. }
                | HostOp::Gather { .. },
                Ok(other),
            ) => unreachable!("{op:?} completed with {other:?}"),
        }
    }

    /// One global cycle: run the replica watchdog, step every serving
    /// replica against canonical storage, then arbitrate the cycle's
    /// accesses and levy stalls.
    fn step_all(&mut self) {
        self.replica_fault_cycle();
        let n = self.sims.len();
        for r in 0..n {
            // A dark or failed replica's clock is gone: it executes
            // nothing, touches no storage, and issues no accesses until
            // the watchdog resolves it (brown-out return or fail-over).
            if !self.health[r].serving() {
                continue;
            }
            // A frozen replica touches nothing — skip the swaps.
            if self.sims[r].mem_stall_pending() > 0 {
                self.sims[r].step();
                continue;
            }
            self.swap_shared(r);
            self.sims[r].step();
            self.swap_shared(r);
            let mut acc = std::mem::take(&mut self.acc_scratch[r]);
            self.sims[r].drain_map_accesses(&mut acc);
            self.acc_scratch[r] = acc;
            if self.fabric.log_events {
                let mut evs = std::mem::take(&mut self.ev_scratch);
                self.sims[r].drain_map_events(&mut evs);
                for event in evs.drain(..) {
                    self.events.push(SharedEvent { cycle: self.cycle, replica: r, event });
                }
                self.ev_scratch = evs;
            }
        }
        self.arbitrate();
        let down = self.health.iter().filter(|h| !h.serving()).count();
        if down > 0 {
            self.fstats.degraded_cycles += 1;
            self.fstats.replica_down_cycles += down as u64;
        }
        self.cycle += 1;
    }

    /// Replica watchdog: inject scheduled faults, detect expired budgets,
    /// mask short brown-outs, and re-admit returned replicas.
    fn replica_fault_cycle(&mut self) {
        let Some(cfg) = &self.rfault else { return };
        let (watchdog_budget, reset_cycles) = (cfg.watchdog_budget, cfg.reset_cycles);
        // Inject faults whose cycle has come. A fault aimed at a replica
        // that is already dark or failed is skipped (and not counted as
        // injected), so `detected == injected` stays a meaningful gate.
        while let Some(&f) = cfg.schedule.get(self.next_rfault).filter(|f| f.at <= self.cycle) {
            self.next_rfault += 1;
            if f.replica >= self.sims.len() || !self.health[f.replica].serving() {
                continue;
            }
            self.fstats.injected += 1;
            self.health[f.replica] = Health::Dark { since: self.cycle, kind: f.kind };
        }
        for r in 0..self.sims.len() {
            match self.health[r] {
                Health::Dark { since, kind } => {
                    let elapsed = self.cycle - since;
                    if let ReplicaFaultKind::BrownOut { duration } = kind {
                        if duration < watchdog_budget && elapsed >= duration {
                            // Short brown-out: the replica returns before
                            // the watchdog fires. In-flight packets simply
                            // resume — the stall is absorbed, no fail-over.
                            self.health[r] = Health::Serving;
                            self.fstats.masked_brownouts += 1;
                            continue;
                        }
                    }
                    if elapsed >= watchdog_budget {
                        self.fail_over(r, since, kind, reset_cycles);
                    }
                }
                Health::Failed { returns_at: Some(rc) } if rc <= self.cycle => {
                    self.readmit(r);
                }
                _ => {}
            }
        }
    }

    /// The watchdog has declared replica `r` dead: account every in-flight
    /// packet, reconcile its private maps into canonical storage, and
    /// re-steer its flows across the survivors.
    fn fail_over(&mut self, r: usize, since: u64, kind: ReplicaFaultKind, reset_cycles: u64) {
        self.fstats.detected += 1;
        let latency = self.cycle - since;
        self.fstats.detection_latency_total += latency;
        self.fstats.detection_latency_max = self.fstats.detection_latency_max.max(latency);
        self.ever_failed[r] = true;
        // Fail-stop with the canonical store swapped in, so retired
        // packets' force-committed writes land in canonical storage and
        // not in the replica's stale local copy.
        self.swap_shared(r);
        let (drained, discarded) = self.sims[r].fail_stop();
        self.swap_shared(r);
        // The dying replica's traced accesses never reach the fabric.
        self.acc_scratch[r].clear();
        self.sims[r].drain_map_accesses(&mut self.acc_scratch[r]);
        self.acc_scratch[r].clear();
        if self.fabric.log_events {
            let mut evs = std::mem::take(&mut self.ev_scratch);
            self.sims[r].drain_map_events(&mut evs);
            for event in evs.drain(..) {
                self.events.push(SharedEvent { cycle: self.cycle, replica: r, event });
            }
            self.ev_scratch = evs;
        }
        self.lost_accounted[r] += (drained.len() + discarded.len()) as u64;
        self.fstats.drained += drained.len() as u64;
        self.fstats.discarded += discarded.len() as u64;
        for s in drained {
            if let Some(&g) = self.seq_map[r].get(s as usize) {
                self.drained_glob.push(g);
            }
        }
        for s in discarded {
            if let Some(&g) = self.seq_map[r].get(s as usize) {
                self.discarded_glob.push(g);
            }
        }
        self.reconcile(r);
        let returns_at = match kind {
            ReplicaFaultKind::Kill => None,
            ReplicaFaultKind::Hang => Some(self.cycle + reset_cycles),
            // A long brown-out is handled as a fail-over; the replica
            // returns when its clock does (never before the next cycle).
            ReplicaFaultKind::BrownOut { duration } => Some((since + duration).max(self.cycle + 1)),
        };
        self.health[r] = Health::Failed { returns_at };
        self.resteer();
    }

    /// A hung (reset) or browned-out replica's clock is back: resume
    /// serving and give it its home RSS slots back.
    fn readmit(&mut self, r: usize) {
        self.health[r] = Health::Serving;
        self.fstats.readmissions += 1;
        self.resteer();
    }

    /// Rewrite the live RSS indirection table against current health.
    fn resteer(&mut self) {
        let serving: Vec<bool> = self.health.iter().map(|h| h.serving()).collect();
        let rewritten = resteer_rss_table(&mut self.live_table, &self.home_table, &serving);
        self.fstats.resteered_slots += rewritten as u64;
    }

    /// Salvage replica `r`'s private-map state into canonical storage
    /// where the configured `MergePolicy` permits. Union adopts entries
    /// canonical storage lacks (session tables); SumDelta folds counter
    /// words in (zero-initialised accumulators). Direct and Ignore leave
    /// the canonical copy untouched.
    fn reconcile(&mut self, r: usize) {
        for &(map, strat) in &self.merge {
            if self.shared_ids.binary_search(&map).is_ok() {
                continue; // Shared maps are already canonical.
            }
            let Some(src) = self.sims[r].maps().get(map) else { continue };
            let Some(dst) = self.shared_store.get_mut(map) else { continue };
            for (_, k, v) in src.iter() {
                match strat {
                    MergePolicy::Union => {
                        if matches!(dst.lookup(k), Ok(None))
                            && dst.update(k, v, UpdateFlags::Any).is_ok()
                        {
                            self.fstats.reconciled_entries += 1;
                        }
                    }
                    MergePolicy::SumDelta => {
                        let merged = match dst.lookup(k) {
                            Ok(Some(slot)) => add_words(dst.try_value(slot).unwrap_or(&[]), v),
                            _ => v.to_vec(),
                        };
                        if dst.update(k, &merged, UpdateFlags::Any).is_ok() {
                            self.fstats.reconciled_entries += 1;
                        }
                    }
                    MergePolicy::Direct | MergePolicy::Ignore => {}
                }
            }
        }
    }

    /// Exchange the shared maps between replica `r`'s store and the
    /// canonical store. Called before and after the replica's cycle, so
    /// the replica always executes against the single canonical copy.
    fn swap_shared(&mut self, r: usize) {
        let sim_store = self.sims[r].maps_mut();
        for &m in &self.shared_ids {
            if let (Some(a), Some(b)) = (sim_store.get_mut(m), self.shared_store.get_mut(m)) {
                std::mem::swap(a, b);
            }
        }
    }

    /// Bank arbitration for the cycle's traced accesses: per-bank winner
    /// selection and stall assignment.
    fn arbitrate(&mut self) {
        let n = self.sims.len();
        let nb = self.fabric.banks as u64;
        let lat_extra = self.fabric.latency - 1;
        // Round-robin: the replica granted first rotates every cycle.
        let rr = (self.cycle as usize) % n;
        self.bank_order.clear();
        if self.acc_scratch.iter().all(Vec::is_empty) {
            return;
        }
        // Serve replicas in priority order; within a replica, program
        // order. `bank_order` collects (bank, priority-rank) pairs so a
        // later access's queue position is the number of earlier grants
        // on its bank this cycle.
        for rank in 0..n {
            let r = (rr + rank) % n;
            let accs = std::mem::take(&mut self.acc_scratch[r]);
            let mut stall = 0u64;
            for a in &accs {
                let bank = (a.key_hash % nb) as usize;
                self.stats.fabric_accesses += 1;
                let pos = self.bank_order.iter().filter(|&&(b, _)| b == bank).count() as u64;
                self.bank_order.push((bank, rank));
                if pos > 0 {
                    self.stats.conflicts += 1;
                }
                stall += pos + lat_extra;
            }
            let mut accs = accs;
            accs.clear();
            self.acc_scratch[r] = accs;
            if stall > 0 {
                self.sims[r].add_mem_stall(stall);
                self.stats.stall_cycles[r] += stall;
            }
        }
    }
}

/// Why the shared-map history is not per-key linearizable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearizabilityViolation {
    /// Index of the offending event in the history.
    pub index: usize,
    /// Map id.
    pub map: u32,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for LinearizabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: map {} key {:02x?}: {}", self.index, self.map, self.key, self.detail)
    }
}

/// Word-wise little-endian `u64` addition of two equal-length values —
/// the SumDelta reconciliation primitive for zero-initialised counter
/// maps. Values whose lengths differ or are not a multiple of 8 cannot
/// be folded; the replica's copy wins unchanged.
fn add_words(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.len() != b.len() || !a.len().is_multiple_of(8) {
        return b.to_vec();
    }
    let mut out = Vec::with_capacity(a.len());
    for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes([wa[0], wa[1], wa[2], wa[3], wa[4], wa[5], wa[6], wa[7]]);
        let y = u64::from_le_bytes([wb[0], wb[1], wb[2], wb[3], wb[4], wb[5], wb[6], wb[7]]);
        out.extend_from_slice(&x.wrapping_add(y).to_le_bytes());
    }
    out
}

/// Check the shared-map history for per-key linearizability at
/// read/write granularity: replaying writes and deletes in log order
/// from `initial`, every read must observe exactly the current value
/// (and misses must be genuine absences). A violation means a replica
/// saw a value canonical storage never held at that point — a coherence
/// bug in the fabric or swap discipline.
///
/// # Errors
///
/// The first violation found, if any.
pub fn check_linearizable(
    initial: &MapStore,
    shared: &[u32],
    events: &[SharedEvent],
) -> Result<(), LinearizabilityViolation> {
    use std::collections::HashMap;
    let mut state: HashMap<(u32, Vec<u8>), Vec<u8>> = HashMap::new();
    for &m in shared {
        if let Some(map) = initial.get(m) {
            for (_, k, v) in map.iter() {
                state.insert((m, k.to_vec()), v.to_vec());
            }
        }
    }
    for (i, e) in events.iter().enumerate() {
        let ev = &e.event;
        let slot = (ev.map, ev.key.clone());
        match &ev.kind {
            MapEventKind::Write => {
                state.insert(slot, ev.value.clone());
            }
            MapEventKind::Delete => {
                state.remove(&slot);
            }
            MapEventKind::Read { hit } => match (state.get(&slot), hit) {
                (Some(cur), true) => {
                    if cur != &ev.value {
                        return Err(LinearizabilityViolation {
                            index: i,
                            map: ev.map,
                            key: ev.key.clone(),
                            detail: format!(
                                "read observed {:02x?}, storage holds {:02x?}",
                                ev.value, cur
                            ),
                        });
                    }
                }
                (None, true) => {
                    return Err(LinearizabilityViolation {
                        index: i,
                        map: ev.map,
                        key: ev.key.clone(),
                        detail: "read hit a key that is absent in storage".into(),
                    });
                }
                (Some(_), false) => {
                    return Err(LinearizabilityViolation {
                        index: i,
                        map: ev.map,
                        key: ev.key.clone(),
                        detail: "read missed a key that is present in storage".into(),
                    });
                }
                (None, false) => {}
            },
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fault::ReplicaFault;
    use ehdl_core::Compiler;
    use ehdl_net::{FiveTuple, IPPROTO_UDP};
    use ehdl_programs::simple_firewall;
    use ehdl_traffic::build_flow_packet;

    fn firewall_design() -> PipelineDesign {
        Compiler::new().compile(&simple_firewall::program()).unwrap()
    }

    fn opts() -> SimOptions {
        SimOptions { freeze_time_ns: Some(1000), ..Default::default() }
    }

    fn flow_packets(flows: usize, per_flow: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for i in 0..flows {
            let t = FiveTuple {
                saddr: [10, 0, (i >> 8) as u8, i as u8],
                daddr: [192, 168, 1, 1],
                sport: 1000 + i as u16,
                dport: 53,
                proto: IPPROTO_UDP,
            };
            for _ in 0..per_flow {
                out.push(build_flow_packet(&t, [1; 6], [2; 6], 64));
            }
        }
        out
    }

    #[test]
    fn rss_hash_is_symmetric_and_spreads() {
        let seed = 0xfeed_beef;
        let mut per_replica = [0u32; 4];
        for i in 0..256u32 {
            let t = FiveTuple {
                saddr: [10, 0, (i >> 8) as u8, i as u8],
                daddr: [192, 168, 1, 1],
                sport: 1000 + i as u16,
                dport: 53,
                proto: IPPROTO_UDP,
            };
            let fwd = build_flow_packet(&t, [1; 6], [2; 6], 64);
            let rev = build_flow_packet(&t.reversed(), [2; 6], [1; 6], 64);
            assert_eq!(
                rss_flow_hash(&fwd, seed),
                rss_flow_hash(&rev, seed),
                "flow {i}: both directions must shard identically"
            );
            per_replica[(rss_flow_hash(&fwd, seed) % 4) as usize] += 1;
        }
        // A decent mix: no replica starves or hogs (256 flows over 4).
        for (r, &n) in per_replica.iter().enumerate() {
            assert!((24..=104).contains(&n), "replica {r} got {n}/256 flows");
        }
        // Non-IP frames hash too (Ethernet fallback), deterministically.
        let arp = vec![0x08u8; 60];
        assert_eq!(rss_flow_hash(&arp, seed), rss_flow_hash(&arp, seed));
        assert_ne!(rss_flow_hash(&arp, seed), rss_flow_hash(&arp, seed ^ 1));
    }

    #[test]
    fn resteer_moves_only_dead_slots_and_gives_them_back() {
        // Twelve slots over four replicas: replica r homes slots r, r+4, r+8.
        let home: Vec<usize> = (0..12).map(|s| s % 4).collect();
        let mut table = home.clone();

        // Replica 1 dies: its three slots go round-robin to 0, 2, 3, and
        // no healthy replica's slot moves.
        assert_eq!(resteer_rss_table(&mut table, &home, &[true, false, true, true]), 3);
        for (slot, (&cur, &h)) in table.iter().zip(&home).enumerate() {
            if h != 1 {
                assert_eq!(cur, h, "healthy slot {slot} moved");
            }
        }
        assert_eq!([table[1], table[5], table[9]], [0, 2, 3]);

        // Nobody serves: nothing to steer to, so nothing is rewritten.
        let degraded = table.clone();
        assert_eq!(resteer_rss_table(&mut table, &home, &[false; 4]), 0);
        assert_eq!(table, degraded);

        // Replica 1 returns: exactly its three slots come home.
        assert_eq!(resteer_rss_table(&mut table, &home, &[true; 4]), 3);
        assert_eq!(table, home);
        assert_eq!(resteer_rss_table(&mut table, &home, &[true; 4]), 0, "idempotent");
    }

    #[test]
    fn sharded_firewall_completes_and_shares_stats() {
        let d = firewall_design();
        let mut nic = ShardedNic::new(
            &d,
            4,
            7,
            opts(),
            SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                log_events: true,
                ..Default::default()
            },
        );
        let packets = flow_packets(64, 4);
        let report = nic.run(packets.clone());
        assert_eq!(report.dropped, vec![0; 4], "no silent drops");
        assert_eq!(report.completed.iter().sum::<u64>(), packets.len() as u64);
        // The shared stats array counted every packet exactly once,
        // across all four replicas writing through the fabric.
        let stats = simple_firewall::read_stats(nic.shared_store());
        assert_eq!(stats[0], packets.len() as u64);
        // And the access history is per-key linearizable.
        let initial = MapStore::new(&d.maps);
        check_linearizable(&initial, &[simple_firewall::STATS_MAP], &report.events)
            .expect("shared history must be linearizable");
        assert!(!report.events.is_empty(), "event log recorded shared accesses");
    }

    #[test]
    fn single_bank_serializes_and_stalls() {
        let d = firewall_design();
        let run = |banks: usize, latency: u64| {
            let mut nic = ShardedNic::new(
                &d,
                4,
                7,
                opts(),
                SharedMapOptions {
                    banks,
                    latency,
                    shared_maps: vec![simple_firewall::SESSIONS_MAP, simple_firewall::STATS_MAP],
                    ..Default::default()
                },
            );
            nic.run(flow_packets(64, 4))
        };
        let wide = run(64, 1);
        let narrow = run(1, 1);
        assert!(narrow.fabric.conflicts > wide.fabric.conflicts);
        assert!(narrow.fabric.conflict_rate() > 0.2, "one bank must thrash");
        assert!(narrow.cycles > wide.cycles, "conflicts cost cycles");
        let slow = run(64, 4);
        assert!(slow.cycles > wide.cycles, "latency costs cycles");
        // Timing never changes results: same per-packet completion count.
        assert_eq!(narrow.completed.iter().sum::<u64>(), wide.completed.iter().sum::<u64>());
    }

    #[test]
    fn host_ops_fence_behind_arrivals() {
        let d = firewall_design();
        let mut nic = ShardedNic::new(
            &d,
            2,
            9,
            opts(),
            SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                log_events: true,
                ..Default::default()
            },
        );
        let packets = flow_packets(16, 4);
        let key = 3u32.to_le_bytes().to_vec();
        let report = nic.run_with_ops(
            packets,
            &[(
                32,
                HostOp::Update {
                    map: simple_firewall::STATS_MAP,
                    key: key.clone(),
                    value: 42u64.to_le_bytes().to_vec(),
                    flags: ehdl_ebpf::maps::UpdateFlags::Any,
                },
            )],
        );
        assert_eq!(report.host_completions.len(), 1);
        assert_eq!(report.host_completions[0].result, Ok(HostOpResult::Updated));
        let stats = nic.shared_store().get(simple_firewall::STATS_MAP).expect("stats map");
        assert_eq!(stats.value(3), 42u64.to_le_bytes());
        // The host write is part of the linearizable history.
        let initial = MapStore::new(&d.maps);
        check_linearizable(&initial, &[simple_firewall::STATS_MAP], &report.events)
            .expect("host ops must serialize into the shared history");
        assert!(report.events.iter().any(|e| e.replica == HOST_REPLICA));
    }

    #[test]
    fn gathered_reads_join_the_shared_history() {
        let d = firewall_design();
        let mut nic = ShardedNic::new(
            &d,
            2,
            9,
            opts(),
            SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                log_events: true,
                ..Default::default()
            },
        );
        let map = simple_firewall::STATS_MAP;
        let key = |k: u32| k.to_le_bytes().to_vec();
        let update = HostOp::Update {
            map,
            key: key(3),
            value: 42u64.to_le_bytes().to_vec(),
            flags: ehdl_ebpf::maps::UpdateFlags::Any,
        };
        // Index 4 is out of the 4-entry array's range: that key fails, its
        // neighbours are answered, and it reads nothing to log.
        let gather = HostOp::Gather { map, keys: vec![key(3), key(0), key(4), key(3)] };
        // A gather on a private map leaves no trace in the shared history.
        let private =
            HostOp::Gather { map: simple_firewall::SESSIONS_MAP, keys: vec![vec![0; 13]] };
        let report =
            nic.run_with_ops(flow_packets(16, 4), &[(32, update), (32, gather), (40, private)]);
        let Ok(HostOpResult::Values(values)) = &report.host_completions[1].result else {
            panic!("gather completed with {:?}", report.host_completions[1].result);
        };
        assert_eq!(values[0], Ok(Some(42u64.to_le_bytes().to_vec())));
        assert_eq!(values[2], Err(MapError::IndexOutOfBounds { index: 4, max: 4 }));
        assert_eq!(values[3], values[0]);
        assert_eq!(report.host_completions[2].result, Ok(HostOpResult::Values(vec![Ok(None)])));
        // One read event per gathered key, in key order, after the write.
        let host: Vec<&MapEvent> =
            report.events.iter().filter(|e| e.replica == HOST_REPLICA).map(|e| &e.event).collect();
        assert_eq!(host.len(), 4, "{host:?}");
        assert_eq!(host[0].kind, MapEventKind::Write);
        let hits = [(3u32, &values[0]), (0, &values[1]), (3, &values[3])];
        for (e, (k, v)) in host[1..].iter().zip(hits) {
            let want = MapEvent {
                map,
                key: key(k),
                value: v.clone().unwrap().expect("in-range array keys always hit"),
                kind: MapEventKind::Read { hit: true },
            };
            assert_eq!(**e, want);
        }
        let initial = MapStore::new(&d.maps);
        check_linearizable(&initial, &[map], &report.events)
            .expect("gathered reads must serialize into the shared history");
        // A gathered value that storage never held is caught.
        let mut events = report.events.clone();
        let at = events.iter().rposition(|e| e.replica == HOST_REPLICA).unwrap();
        events[at].event.value[0] ^= 1;
        let err = check_linearizable(&initial, &[map], &events).unwrap_err();
        assert_eq!((err.index, err.key), (at, key(3)));
    }

    #[test]
    fn checker_rejects_a_corrupted_history() {
        let d = firewall_design();
        let initial = MapStore::new(&d.maps);
        let key = vec![0, 0, 0, 0];
        let mk = |kind: MapEventKind, value: Vec<u8>| SharedEvent {
            cycle: 0,
            replica: 0,
            event: MapEvent { map: 1, key: key.clone(), value, kind },
        };
        let good = vec![
            mk(MapEventKind::Write, vec![1; 8]),
            mk(MapEventKind::Read { hit: true }, vec![1; 8]),
        ];
        check_linearizable(&initial, &[99], &good).unwrap();
        let stale = vec![
            mk(MapEventKind::Write, vec![1; 8]),
            mk(MapEventKind::Read { hit: true }, vec![2; 8]),
        ];
        let err = check_linearizable(&initial, &[99], &stale).unwrap_err();
        assert!(err.detail.contains("read observed"));
        let ghost = vec![mk(MapEventKind::Read { hit: true }, vec![2; 8])];
        assert!(check_linearizable(&initial, &[99], &ghost).is_err());
    }

    #[test]
    fn four_replicas_scale_aggregate_throughput() {
        let d = firewall_design();
        let run = |replicas: usize| {
            let mut nic = ShardedNic::new(&d, replicas, 7, opts(), SharedMapOptions::default());
            nic.run(flow_packets(256, 2)).aggregate_pkts_per_cycle()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four >= 2.5 * one,
            "4 replicas must scale ≥2.5x on a uniform workload: 1→{one:.4}, 4→{four:.4}"
        );
    }

    fn faulted_nic(schedule: Vec<ReplicaFault>, budget: u64, reset: u64) -> ShardedNic {
        let d = firewall_design();
        let mut nic = ShardedNic::new(
            &d,
            4,
            7,
            opts(),
            SharedMapOptions {
                shared_maps: vec![simple_firewall::STATS_MAP],
                log_events: true,
                ..Default::default()
            },
        );
        nic.attach_replica_faults(
            ReplicaFaultConfig { schedule, watchdog_budget: budget, reset_cycles: reset },
            vec![(simple_firewall::SESSIONS_MAP, MergePolicy::Union)],
        );
        nic
    }

    #[test]
    fn killed_replica_is_detected_drained_and_resteered() {
        let mut nic = faulted_nic(
            vec![ReplicaFault { at: 40, replica: 1, kind: ReplicaFaultKind::Kill }],
            64,
            0,
        );
        let packets = flow_packets(64, 8);
        let offered = packets.len() as u64;
        let report = nic.run(packets);
        let f = report.failover;
        assert_eq!(f.injected, 1);
        assert_eq!(f.detected, 1, "watchdog must catch the kill");
        assert!(f.detection_latency_max <= 64, "detection within the budget");
        assert!(!nic.replica_serving(1), "a killed replica stays down");
        assert!(!nic.live_rss_table().contains(&1), "no slot steers to the corpse");
        // Zero silent loss: every offered packet is completed, drained,
        // discarded, or counted as an ingress drop.
        let completed: u64 = report.completed.iter().sum();
        let lost = report.drained.len() as u64 + report.discarded.len() as u64;
        let dropped: u64 = report.dropped.iter().sum();
        assert_eq!(offered, completed + lost + dropped, "no packet vanishes silently");
        assert!(lost > 0, "a mid-run kill must catch packets in flight");
        // Every lost packet belonged to the dead replica's flows.
        for g in report.drained.iter().chain(&report.discarded) {
            assert!(report.affected.contains(g), "lost packet {g} outside the affected set");
        }
        // Availability floor under a single kill: ≥ (N−1)/N − 5%.
        let avail = f.availability(4, report.cycles);
        assert!(avail >= 0.75 - 0.05, "availability {avail:.3} below the degraded floor");
        // Surviving history is still linearizable.
        let initial = MapStore::new(&firewall_design().maps);
        check_linearizable(&initial, &[simple_firewall::STATS_MAP], &report.events)
            .expect("failure history must stay linearizable");
    }

    #[test]
    fn hung_replica_resets_and_is_readmitted() {
        let mut nic = faulted_nic(
            vec![ReplicaFault { at: 60, replica: 2, kind: ReplicaFaultKind::Hang }],
            32,
            128,
        );
        let report = nic.run(flow_packets(64, 8));
        let f = report.failover;
        assert_eq!(f.detected, 1);
        assert_eq!(f.readmissions, 1, "a reset replica must come back");
        assert!(nic.replica_serving(2), "serving again after the reset");
        assert!(nic.live_rss_table().contains(&2), "home slots restored on re-admission");
        let completed: u64 = report.completed.iter().sum();
        let lost = report.drained.len() as u64 + report.discarded.len() as u64;
        assert_eq!(completed + lost + report.dropped.iter().sum::<u64>(), 64 * 8);
    }

    #[test]
    fn short_brownout_is_masked_and_bit_equivalent() {
        let packets = flow_packets(48, 6);
        let mut clean = faulted_nic(vec![], 256, 0);
        let clean_report = clean.run(packets.clone());
        let mut nic = faulted_nic(
            vec![ReplicaFault {
                at: 50,
                replica: 0,
                kind: ReplicaFaultKind::BrownOut { duration: 30 },
            }],
            256,
            0,
        );
        let report = nic.run(packets);
        let f = report.failover;
        assert_eq!(f.masked_brownouts, 1, "short brown-out absorbed by the watchdog budget");
        assert_eq!(f.detected, 0, "no fail-over for a masked brown-out");
        assert!(report.drained.is_empty() && report.discarded.is_empty(), "nothing lost");
        assert!(report.affected.is_empty(), "no flow is affected by a masked brown-out");
        // Results are bit-equivalent to the fault-free run.
        let verdicts = |r: &ShardReport| {
            let mut v: Vec<_> =
                r.outcomes.iter().map(|(_, g, o)| (*g, o.action, o.packet.clone())).collect();
            v.sort_by_key(|&(g, _, _)| g);
            v
        };
        assert_eq!(verdicts(&report), verdicts(&clean_report));
        assert!(report.cycles > clean_report.cycles, "the stall still costs cycles");
    }

    #[test]
    fn long_brownout_fails_over_then_returns() {
        let mut nic = faulted_nic(
            vec![ReplicaFault {
                at: 60,
                replica: 3,
                kind: ReplicaFaultKind::BrownOut { duration: 400 },
            }],
            48,
            0,
        );
        let report = nic.run(flow_packets(64, 8));
        let f = report.failover;
        assert_eq!(f.detected, 1, "a brown-out past the budget is a fail-over");
        assert_eq!(f.readmissions, 1, "and the replica returns when its clock does");
        assert!(nic.replica_serving(3));
    }

    #[test]
    fn dead_replica_sessions_reconcile_into_canonical_store() {
        // Let replica 1 build private session state, then kill it late so
        // the reconciler has something to salvage.
        let mut nic = faulted_nic(
            vec![ReplicaFault { at: 200, replica: 1, kind: ReplicaFaultKind::Kill }],
            32,
            0,
        );
        let report = nic.run(flow_packets(64, 8));
        assert_eq!(report.failover.detected, 1);
        assert!(
            report.failover.reconciled_entries > 0,
            "the dead replica's session table must merge into canonical storage"
        );
        let canon = nic.shared_store().get(simple_firewall::SESSIONS_MAP).expect("sessions map");
        assert!(canon.iter().next().is_some(), "canonical store holds salvaged sessions");
    }

    #[test]
    fn reconcile_merges_a_dead_replicas_maps_by_policy() {
        // Canonical and every replica start with session k(1) and
        // counter 0 at 100; replica 1 then diverges: k(1) rebound, k(2)
        // opened, counters 0 and 1 bumped. Killing it merges its private
        // copies under the attached policies.
        use simple_firewall::{SESSIONS_MAP, STATS_MAP};
        let k = |b: u8| vec![b; 13];
        let word = |x: u64| x.to_le_bytes().to_vec();
        let idx = |i: u32| i.to_le_bytes().to_vec();
        let contents = |nic: &ShardedNic, map: u32| {
            let m = nic.shared_store().get(map).expect("map present");
            let mut rows: Vec<(Vec<u8>, Vec<u8>)> =
                m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
            rows.sort();
            rows
        };
        let run = |sessions: MergePolicy, stats: MergePolicy| {
            let d = firewall_design();
            let mut nic = ShardedNic::new(&d, 4, 7, opts(), SharedMapOptions::default());
            nic.setup_maps(|s| {
                let sess = s.get_mut(SESSIONS_MAP).expect("sessions");
                sess.update(&k(1), &word(10), UpdateFlags::Any).expect("seed session");
                let st = s.get_mut(STATS_MAP).expect("stats");
                st.update(&idx(0), &word(100), UpdateFlags::Any).expect("seed counter");
            });
            let own = nic.sim_mut(1).maps_mut();
            let sess = own.get_mut(SESSIONS_MAP).expect("sessions");
            sess.update(&k(1), &word(11), UpdateFlags::Any).expect("rebind");
            sess.update(&k(2), &word(20), UpdateFlags::Any).expect("open");
            let st = own.get_mut(STATS_MAP).expect("stats");
            st.update(&idx(0), &word(105), UpdateFlags::Any).expect("bump");
            st.update(&idx(1), &word(7), UpdateFlags::Any).expect("bump");
            let kill = ReplicaFault { at: 0, replica: 1, kind: ReplicaFaultKind::Kill };
            nic.attach_replica_faults(
                ReplicaFaultConfig { schedule: vec![kill], watchdog_budget: 8, reset_cycles: 0 },
                vec![(SESSIONS_MAP, sessions), (STATS_MAP, stats)],
            );
            let report = nic.run(Vec::<Vec<u8>>::new());
            assert_eq!(report.failover.detected, 1);
            let rows = (contents(&nic, SESSIONS_MAP), contents(&nic, STATS_MAP));
            (report.failover.reconciled_entries, rows)
        };
        // Union adopts only k(2), the key canonical storage lacks; SumDelta
        // adds the replica's counter words to the canonical ones.
        let (reconciled, (sessions, stats)) = run(MergePolicy::Union, MergePolicy::SumDelta);
        assert_eq!(sessions, vec![(k(1), word(10)), (k(2), word(20))]);
        assert_eq!(
            stats,
            vec![(idx(0), word(205)), (idx(1), word(7)), (idx(2), word(0)), (idx(3), word(0))]
        );
        assert_eq!(reconciled, 1 + 4);
        // Swapped: SumDelta adds into a present session and adopts an
        // absent one; Union finds every array index present and adopts
        // nothing.
        let (reconciled, (sessions, stats)) = run(MergePolicy::SumDelta, MergePolicy::Union);
        assert_eq!(sessions, vec![(k(1), word(21)), (k(2), word(20))]);
        assert_eq!(
            stats,
            vec![(idx(0), word(100)), (idx(1), word(0)), (idx(2), word(0)), (idx(3), word(0))]
        );
        assert_eq!(reconciled, 2);
    }

    #[test]
    fn host_ops_fence_clears_despite_dead_replica() {
        let mut nic = faulted_nic(
            vec![ReplicaFault { at: 30, replica: 0, kind: ReplicaFaultKind::Kill }],
            48,
            0,
        );
        let packets = flow_packets(32, 8);
        let report = nic.run_with_ops(
            packets,
            &[(
                200,
                HostOp::Update {
                    map: simple_firewall::STATS_MAP,
                    key: 3u32.to_le_bytes().to_vec(),
                    value: 7u64.to_le_bytes().to_vec(),
                    flags: ehdl_ebpf::maps::UpdateFlags::Any,
                },
            )],
        );
        // Packets lost to the kill credit the fence, so the op is never
        // wedged behind arrivals the dead replica will not retire.
        assert_eq!(report.host_completions.len(), 1, "op completes despite the dead replica");
        assert_eq!(report.host_completions[0].result, Ok(HostOpResult::Updated));
    }

    #[test]
    fn double_committed_packet_from_dead_replica_is_caught() {
        // Negative control for the linearizability gate: if a dying
        // replica's counter increment were committed twice to canonical
        // storage (once live, once via a buggy salvage) while the history
        // logged it once, a later read observes the doubled value and the
        // checker must flag it.
        let d = firewall_design();
        let initial = MapStore::new(&d.maps);
        let key = vec![0, 0, 0, 0];
        let mk = |kind: MapEventKind, value: Vec<u8>| SharedEvent {
            cycle: 0,
            replica: 1,
            event: MapEvent { map: simple_firewall::STATS_MAP, key: key.clone(), value, kind },
        };
        let history = vec![
            mk(MapEventKind::Write, 1u64.to_le_bytes().to_vec()),
            // Storage actually holds 2 (double commit); the read sees it.
            mk(MapEventKind::Read { hit: true }, 2u64.to_le_bytes().to_vec()),
        ];
        let err = check_linearizable(&initial, &[simple_firewall::STATS_MAP], &history)
            .expect_err("a double commit must violate linearizability");
        assert!(err.detail.contains("read observed"), "diagnostic names the divergence");
    }
}
