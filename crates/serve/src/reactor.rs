//! Single-threaded serving reactor: thousands of control clients
//! multiplexed over one modeled PCIe/AXI-Lite channel.
//!
//! The reactor is an event loop, not a thread pool — the paper's host
//! side is a single DPDK-style process pinned to a core, and the
//! simulator is single-threaded anyway. Each [`Reactor::turn`] performs
//! one iteration:
//!
//! 1. **Pump** — collect admitted ops from the per-client queues into a
//!    device batch, fairly: one op per client per round-robin sweep, so
//!    a flooding client cannot starve a light one. Batch size is gated
//!    by the free depth of the control queue
//!    ([`Runtime::ops_in_flight`] vs [`Runtime::ctrl_queue_depth`]) —
//!    device backpressure propagates to admission instead of piling
//!    into an unbounded driver queue.
//! 2. **Coalesce** — adjacent same-key `Update`s in the batch collapse
//!    to the last write and compatible `Lookup` runs share one `Gather`
//!    frame ([`ehdl_hwsim::coalesce_ops`]); every original op still
//!    gets its own [`Ack`], reconstructed from the carrier results by
//!    [`ehdl_hwsim::expand_results`]. The schedule the device sees is
//!    bit-equivalent to the uncoalesced one — pinned by the differential
//!    harness on a coalescing [`ehdl_hwsim::diff::Scenario`].
//! 3. **Step** the cycle-level simulator.
//! 4. **Harvest** — match device completions back to batches, expand
//!    coalesced answers, emit per-client acks, and feed the SLO
//!    tracker (op latencies, packet latencies, drops).
//!
//! Ops and answers move through the turn; none is copied on the way. An
//! op goes from its client's queue to the device, keeping only its answer
//! routing here, and a completion moves into its ack — a dump's rows
//! ([`ehdl_hwsim::Rows`]) are built once, on the device, and handed to the
//! client as they are. Only an answer that shares its carrier with
//! another (a collapsed update, a lookup absorbed into a dump) is cloned.

use std::collections::{BTreeMap, VecDeque};

use ehdl_core::PipelineDesign;
use ehdl_ebpf::maps::MapError;
use ehdl_hwsim::{
    coalesce_ops, expand_results, CoalesceStats, CoalescedOp, HostOp, HostOpResult, MapShape,
    OpAnswer,
};
use ehdl_runtime::{to_host_op, Runtime, RuntimeOptions, RuntimeStats, SwapError, SwapReport};
use ehdl_traffic::ControlOp;

use crate::client::{Ack, AdmissionConfig, ClientId, ClientState, ServeError, Ticket};
use crate::slo::{SloConfig, SloTracker};

/// Reactor configuration.
#[derive(Debug, Clone, Default)]
pub struct ReactorOptions {
    /// Wrapped runtime (simulator, control channel, loss, retry).
    pub runtime: RuntimeOptions,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// SLO target for the built-in tracker.
    pub slo: SloConfig,
    /// Disable op coalescing (every admitted op goes to the device
    /// verbatim). For A/B tests; coalescing is on by default.
    pub no_coalesce: bool,
}

/// Serving-layer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Ops admitted across all clients.
    pub admitted_ops: u64,
    /// Ops acked back to clients.
    pub acked_ops: u64,
    /// Ops refused at admission.
    pub shed_ops: u64,
    /// Device ops actually submitted (after coalescing).
    pub device_ops: u64,
    /// Packets served (drained with an outcome).
    pub pkts_served: u64,
    /// Packets refused at a full ingress queue.
    pub pkts_dropped: u64,
    /// Reactor iterations.
    pub turns: u64,
    /// Cumulative coalescing effectiveness.
    pub coalesce: CoalesceStats,
}

/// One submitted device batch awaiting its completions. The ops
/// themselves went to the device; only their answer routing stays.
#[derive(Debug)]
struct InFlight {
    /// Device submission ids, one per coalesced op, in schedule order.
    ids: Vec<u64>,
    /// Per coalesced op, the original ops its completion answers.
    answers: Vec<Vec<OpAnswer>>,
    /// `(client, seq)` per original op index.
    origs: Vec<(ClientId, u64)>,
    /// Cycle the batch left the reactor.
    submit_cycle: u64,
}

/// The serving reactor. See the module docs for the turn structure.
#[derive(Debug)]
pub struct Reactor {
    rt: Runtime,
    shapes: BTreeMap<u32, MapShape>,
    admission: AdmissionConfig,
    no_coalesce: bool,
    clients: Vec<ClientState>,
    queued_total: usize,
    rr: usize,
    batches: VecDeque<InFlight>,
    completed: BTreeMap<u64, Result<HostOpResult, MapError>>,
    acks: Vec<Ack>,
    slo: SloTracker,
    stats: ReactorStats,
}

fn shapes_of(design: &PipelineDesign) -> BTreeMap<u32, MapShape> {
    design
        .maps
        .iter()
        .map(|d| {
            (d.id, MapShape { key_size: d.key_size as usize, value_size: d.value_size as usize })
        })
        .collect()
}

impl Reactor {
    /// Load `design` and start serving.
    pub fn new(design: &PipelineDesign, options: ReactorOptions) -> Reactor {
        Reactor {
            rt: Runtime::new(design, options.runtime),
            shapes: shapes_of(design),
            admission: options.admission,
            no_coalesce: options.no_coalesce,
            clients: Vec::new(),
            queued_total: 0,
            rr: 0,
            batches: VecDeque::new(),
            completed: BTreeMap::new(),
            acks: Vec::new(),
            slo: SloTracker::new(options.slo),
            stats: ReactorStats::default(),
        }
    }

    /// Register a new control client and return its handle.
    pub fn connect(&mut self) -> ClientId {
        self.clients.push(ClientState::default());
        ClientId((self.clients.len() - 1) as u32)
    }

    /// Connected clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// Admit one op from `client`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the client's queue or the
    /// reactor-wide ceiling is full (the op is shed and counted),
    /// [`ServeError::UnknownClient`] / [`ServeError::UnknownMap`] for
    /// invalid handles or targets.
    pub fn submit(&mut self, client: ClientId, op: HostOp) -> Result<Ticket, ServeError> {
        let i = client.index();
        if i >= self.clients.len() {
            return Err(ServeError::UnknownClient { client });
        }
        if !self.shapes.contains_key(&op.map()) {
            return Err(ServeError::UnknownMap { map: op.map() });
        }
        let per_client = self.admission.max_queued_per_client;
        if self.clients[i].queue.len() >= per_client {
            self.clients[i].shed += 1;
            self.stats.shed_ops += 1;
            self.slo.shed(1);
            return Err(ServeError::Overloaded {
                client,
                queued: self.clients[i].queue.len(),
                limit: per_client,
            });
        }
        if self.queued_total >= self.admission.max_queued_total {
            self.clients[i].shed += 1;
            self.stats.shed_ops += 1;
            self.slo.shed(1);
            return Err(ServeError::Overloaded {
                client,
                queued: self.queued_total,
                limit: self.admission.max_queued_total,
            });
        }
        let seq = self.clients[i].next_seq;
        self.clients[i].next_seq += 1;
        self.clients[i].admitted += 1;
        self.clients[i].queue.push_back((seq, op));
        self.queued_total += 1;
        self.stats.admitted_ops += 1;
        Ok(Ticket { client, seq })
    }

    /// Admit one generated [`ControlOp`] from `client`.
    ///
    /// # Errors
    ///
    /// As [`Reactor::submit`].
    pub fn submit_control(
        &mut self,
        client: ClientId,
        op: &ControlOp,
    ) -> Result<Ticket, ServeError> {
        self.submit(client, to_host_op(op))
    }

    /// Offer one packet to the datapath. Returns `false` (and counts a
    /// failed request) when the ingress queue refused it.
    pub fn offer_packet(&mut self, packet: Vec<u8>) -> bool {
        if self.rt.enqueue(packet) {
            true
        } else {
            self.stats.pkts_dropped += 1;
            self.slo.failed(1);
            false
        }
    }

    /// One reactor iteration: pump admitted ops to the device, advance
    /// the simulator `cycles` cycles, harvest completions and packet
    /// outcomes into acks and SLO state.
    pub fn turn(&mut self, cycles: u64) {
        self.pump();
        for _ in 0..cycles {
            self.rt.step();
        }
        self.harvest();
        self.stats.turns += 1;
    }

    /// Take every ack emitted since the last call, in completion order.
    pub fn take_acks(&mut self) -> Vec<Ack> {
        std::mem::take(&mut self.acks)
    }

    /// Nothing queued client-side and nothing in flight device-side.
    pub fn idle(&self) -> bool {
        self.queued_total == 0 && self.batches.is_empty()
    }

    /// Run turns until every admitted op is acked and the pipeline has
    /// drained, then settle the wrapped runtime.
    pub fn drain(&mut self) {
        // Generous budget: a wedged drain is a bug, not a workload
        // property.
        let mut guard = 0u32;
        while !self.idle() && guard < 2_000_000 {
            self.turn(64);
            guard += 1;
        }
        self.rt.settle();
        self.harvest();
    }

    /// Swap to `new_design` live (drain, migrate maps, switch), feeding
    /// the measured downtime into the SLO tracker.
    ///
    /// # Errors
    ///
    /// [`SwapError`] from the underlying [`Runtime::try_reload`]; the
    /// old design keeps serving on failure.
    pub fn reload(
        &mut self,
        new_design: &PipelineDesign,
        drain_budget_cycles: u64,
    ) -> Result<SwapReport, SwapError> {
        let report = self.rt.try_reload(new_design, drain_budget_cycles)?;
        self.slo.downtime(report.downtime_cycles);
        self.shapes = shapes_of(new_design);
        self.harvest();
        Ok(report)
    }

    /// Serving-layer counters.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }

    /// The SLO tracker (clone it at phase boundaries to diff counters).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Device + serving telemetry: the wrapped runtime's stats with the
    /// SLO section filled in.
    pub fn runtime_stats(&self) -> RuntimeStats {
        let mut s = self.rt.stats();
        s.slo = Some(self.slo.snapshot());
        s
    }

    /// Read access to the wrapped runtime (maps, reliable stats,
    /// swap history).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Pump: move admitted ops to the device, fairly, within the free
    /// control-queue depth.
    fn pump(&mut self) {
        loop {
            let in_flight = self.rt.ops_in_flight();
            let budget = self.rt.ctrl_queue_depth().saturating_sub(in_flight);
            if budget == 0 {
                return;
            }
            let (origs, ops) = self.collect(budget);
            if ops.is_empty() {
                return;
            }
            let shapes = &self.shapes;
            let (coalesced, cstats) = if self.no_coalesce {
                coalesce_ops(&ops, |_| None)
            } else {
                coalesce_ops(&ops, |m| shapes.get(&m).copied())
            };
            self.stats.coalesce.ops_in += cstats.ops_in;
            self.stats.coalesce.ops_out += cstats.ops_out;
            self.stats.coalesce.updates_collapsed += cstats.updates_collapsed;
            self.stats.coalesce.lookups_shared += cstats.lookups_shared;
            let submit_cycle = self.rt.total_cycles();
            self.stats.device_ops += coalesced.len() as u64;
            let mut ids = Vec::with_capacity(coalesced.len());
            let mut answers = Vec::with_capacity(coalesced.len());
            for CoalescedOp { op, answers: routing } in coalesced {
                answers.push(routing);
                match self.rt.submit(op) {
                    Ok(id) => ids.push(id),
                    Err(e) => {
                        // Unreachable by construction: admission
                        // validated the map id and the budget gated the
                        // batch below the free queue depth. Surface it
                        // loudly in debug; in release the orphaned slot
                        // acks with a map error at harvest.
                        debug_assert!(false, "gated device submission refused: {e}");
                        ids.push(u64::MAX);
                    }
                }
            }
            self.batches.push_back(InFlight { ids, answers, origs, submit_cycle });
        }
    }

    /// Collect up to `budget` ops, one per client per round-robin sweep:
    /// each op's `(client, seq)` and the op, in collection order.
    fn collect(&mut self, budget: usize) -> (Vec<(ClientId, u64)>, Vec<HostOp>) {
        let n = self.clients.len();
        let (mut origs, mut ops) = (Vec::new(), Vec::new());
        if n == 0 {
            return (origs, ops);
        }
        while ops.len() < budget {
            let mut took = false;
            for k in 0..n {
                if ops.len() >= budget {
                    break;
                }
                let i = (self.rr + k) % n;
                if let Some((seq, op)) = self.clients[i].queue.pop_front() {
                    self.queued_total -= 1;
                    origs.push((ClientId(i as u32), seq));
                    ops.push(op);
                    took = true;
                }
            }
            self.rr = (self.rr + 1) % n;
            if !took {
                break;
            }
        }
        (origs, ops)
    }

    /// Harvest: resolve finished batches into acks, packet outcomes
    /// into SLO samples.
    fn harvest(&mut self) {
        for c in self.rt.completions() {
            self.completed.insert(c.id, c.result);
        }
        let now = self.rt.total_cycles();
        while let Some(front) = self.batches.front() {
            let ready =
                front.ids.iter().all(|id| *id == u64::MAX || self.completed.contains_key(id));
            if !ready {
                break;
            }
            let Some(b) = self.batches.pop_front() else { break };
            let results: Vec<Result<HostOpResult, MapError>> = b
                .ids
                .iter()
                .map(|id| self.completed.remove(id).unwrap_or(Err(MapError::NoSuchKey)))
                .collect();
            let expanded = expand_results(&b.answers, results);
            let latency = now.saturating_sub(b.submit_cycle);
            for ((client, seq), result) in b.origs.into_iter().zip(expanded) {
                self.acks.push(Ack { client, seq, result, latency_cycles: latency });
                self.clients[client.index()].acked += 1;
                self.stats.acked_ops += 1;
                self.slo.op_served(latency);
            }
        }
        for o in self.rt.drain() {
            self.stats.pkts_served += 1;
            self.slo.packet_served(o.latency_cycles);
        }
    }
}
