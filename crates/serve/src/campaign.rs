//! Long-haul serving campaign: a phased workload mix that exercises the
//! reactor the way a production NIC control plane would over hours,
//! compressed into a deterministic simulated run.
//!
//! Phases, in order:
//!
//! 1. **churn** — uniform packet load while every client churns the
//!    firewall session table with the default op mix;
//! 2. **hotkey** — a Zipf hot-key storm: skewed client activity hammers
//!    a few keys with update-heavy traffic, the regime where the
//!    reactor's coalescing collapses adjacent same-key writes;
//! 3. **synflood** — a burst of distinct-flow TCP SYNs (every packet a
//!    new session) with background ops;
//! 4. **reload** — a live [`Reactor::reload`] swap lands mid-load; the
//!    measured downtime feeds the SLO tracker;
//! 5. **killstorm** — a replica kill on a 4-way [`ShardedNic`] under
//!    the same traffic; request-level availability must ride out the
//!    fail-over;
//! 6. **lossyops** — the full op mix over a 10%-lossy control channel;
//!    exactly-once delivery means every admitted op acks exactly once
//!    and nothing is abandoned.
//!
//! Phases 1–4 share one reactor (state, histograms, and error budget
//! carry across phases — that is the long-haul point); 5 and 6 get the
//! dedicated harnesses their fault models need.

use ehdl_core::shardcheck::MergePolicy;
use ehdl_core::{Compiler, PipelineDesign};
use ehdl_hwsim::{
    CtrlLossConfig, CtrlOptions, ReplicaFault, ReplicaFaultConfig, ReplicaFaultKind, ShardedNic,
    SharedMapOptions, SimOptions,
};
use ehdl_programs::simple_firewall;
use ehdl_runtime::{RuntimeOptions, SloSnapshot};
use ehdl_traffic::{ClientWorkload, FlowSet, OpMix, Popularity, Workload};

use crate::client::{AdmissionConfig, ClientId};
use crate::reactor::{Reactor, ReactorOptions, ReactorStats};
use crate::slo::SloConfig;

/// Simulator cycles per reactor turn.
const TURN_CYCLES: u64 = 32;

/// Loss rate of the `lossyops` phase's control channel.
const CTRL_LOSS: f64 = 0.10;

/// Campaign knobs. The defaults run in a few seconds and are what
/// `BENCH_slo.json` records.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every phase derives its own stream from it.
    pub seed: u64,
    /// Simulated control clients.
    pub clients: usize,
    /// Flow population for the packet workloads.
    pub flows: usize,
    /// Packets offered per reactor phase.
    pub packets_per_phase: usize,
    /// Ops submitted per reactor phase.
    pub ops_per_phase: usize,
    /// Replicas in the `killstorm` phase.
    pub replicas: usize,
    /// Packets offered in the `killstorm` phase.
    pub kill_packets: usize,
    /// SLO target for the shared tracker.
    pub slo: SloConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            clients: 64,
            flows: 256,
            packets_per_phase: 1500,
            ops_per_phase: 300,
            replicas: 4,
            kill_packets: 6_000,
            slo: SloConfig::default(),
        }
    }
}

/// Per-phase accounting: the phase's own request deltas plus the
/// cumulative SLO snapshot at phase end (latency percentiles are
/// whole-campaign — the histograms deliberately carry across phases).
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (see the module docs).
    pub name: String,
    /// Requests offered during this phase.
    pub offered: u64,
    /// Requests served during this phase.
    pub served: u64,
    /// Requests failed during this phase.
    pub failed: u64,
    /// Ops shed at admission during this phase.
    pub shed: u64,
    /// `served / offered` within the phase (1.0 when nothing offered).
    pub availability: f64,
    /// Cumulative SLO state at phase end.
    pub slo: SloSnapshot,
}

/// Outcome of the `killstorm` phase.
#[derive(Debug, Clone, Copy)]
pub struct KillReport {
    /// Distinct packets offered (retries not double-counted).
    pub offered: u64,
    /// Packets completed, including drained frames the host re-offered
    /// after the fail-over (each original packet counted once).
    pub completed: u64,
    /// Frames punted back to the host from the dead FIFO and re-offered
    /// to the survivors — the serving layer's retry path.
    pub retried: u64,
    /// Punted frames still unserved after the retry pass (must be 0).
    pub drained_unrecovered: u64,
    /// Packets discarded mid-pipeline with the dead clock domain — the
    /// only unrecoverable loss a kill can cause.
    pub discarded: u64,
    /// Frames rejected at ingress.
    pub dropped: u64,
    /// Request-level availability: `completed / offered`.
    pub availability: f64,
    /// Watchdog detections (must equal the injected kills).
    pub detected: u64,
}

/// Outcome of the `lossyops` phase.
#[derive(Debug, Clone, Copy)]
pub struct LossyReport {
    /// Ops the reactor admitted.
    pub accepted: u64,
    /// Ops acked back to clients.
    pub acked: u64,
    /// Ops shed at admission (backpressure, not loss).
    pub shed: u64,
    /// Ops the reliable layer abandoned (must be 0).
    pub gave_up: u64,
    /// Frame retransmissions the loss forced.
    pub retries: u64,
    /// Duplicate completions the dedupe cache suppressed.
    pub dup_suppressed: u64,
    /// `accepted - acked`: admitted ops that never acked (must be 0).
    pub lost_acked: u64,
}

/// Everything one campaign run measured.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Phases 1–4, in order.
    pub phases: Vec<PhaseReport>,
    /// Final SLO snapshot of the shared reactor (phases 1–4).
    pub overall: SloSnapshot,
    /// Final serving-layer counters of the shared reactor.
    pub reactor: ReactorStats,
    /// Live swaps completed during the `reload` phase.
    pub swaps: u64,
    /// Ingress downtime the swaps cost, in cycles.
    pub swap_downtime_cycles: u64,
    /// `killstorm` outcome.
    pub kill: KillReport,
    /// `lossyops` outcome.
    pub lossy: LossyReport,
}

fn firewall_design() -> PipelineDesign {
    Compiler::new().compile(&simple_firewall::program()).expect("firewall compiles")
}

fn key_pool(flows: &FlowSet, take: usize) -> Vec<Vec<u8>> {
    flows.flows().iter().take(take).map(|f| f.to_key().to_vec()).collect()
}

/// Interleave a packet workload and a client op workload through the
/// reactor: a few packets per turn and a *burst* of ops every fourth
/// turn (agents batch their RPCs; bursts are also what gives the
/// coalescer adjacent ops to collapse), until both are exhausted, then
/// drain so the phase's requests all resolve.
fn drive(
    reactor: &mut Reactor,
    clients: &[ClientId],
    ops: &mut ClientWorkload,
    packets: &[Vec<u8>],
    nops: usize,
) {
    let mut pi = 0;
    let mut oi = 0;
    let mut turn = 0u64;
    while pi < packets.len() || oi < nops {
        for _ in 0..4 {
            if pi < packets.len() {
                reactor.offer_packet(packets[pi].clone());
                pi += 1;
            }
        }
        if turn.is_multiple_of(4) {
            for _ in 0..8 {
                if oi < nops {
                    let (c, op) = ops.next_op();
                    // Overloaded is backpressure, already counted as shed.
                    let _ = reactor.submit_control(clients[c as usize], &op);
                    oi += 1;
                }
            }
        }
        reactor.turn(TURN_CYCLES);
        turn += 1;
    }
    reactor.drain();
}

/// Request-delta bookkeeping around one phase.
struct PhaseMeter {
    offered: u64,
    served: u64,
    failed: u64,
    shed: u64,
}

impl PhaseMeter {
    fn before(r: &Reactor) -> PhaseMeter {
        let s = r.slo();
        PhaseMeter {
            offered: s.offered(),
            served: s.served(),
            failed: s.failures(),
            shed: s.shed_count(),
        }
    }

    fn finish(self, name: &str, r: &Reactor) -> PhaseReport {
        let s = r.slo();
        let offered = s.offered() - self.offered;
        let served = s.served() - self.served;
        PhaseReport {
            name: name.to_string(),
            offered,
            served,
            failed: s.failures() - self.failed,
            shed: s.shed_count() - self.shed,
            availability: if offered == 0 { 1.0 } else { served as f64 / offered as f64 },
            slo: s.snapshot(),
        }
    }
}

/// Run the full campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let design = firewall_design();
    let mut reactor = Reactor::new(
        &design,
        ReactorOptions {
            runtime: RuntimeOptions::default(),
            admission: AdmissionConfig::default(),
            slo: cfg.slo,
            no_coalesce: false,
        },
    );
    let clients: Vec<ClientId> = (0..cfg.clients).map(|_| reactor.connect()).collect();
    let flows = FlowSet::udp(cfg.flows, cfg.seed);
    let keys = key_pool(&flows, 32);
    let mut phases = Vec::new();

    // Phase 1: churn.
    {
        let meter = PhaseMeter::before(&reactor);
        let packets = Workload::new(flows.clone(), Popularity::Uniform, 64, cfg.seed ^ 0x11)
            .packets(cfg.packets_per_phase);
        let mut ops = ClientWorkload::try_new(
            cfg.clients,
            simple_firewall::SESSIONS_MAP,
            keys.clone(),
            8,
            OpMix::default(),
            Popularity::Uniform,
            Popularity::Uniform,
            cfg.seed ^ 0x12,
        )
        .expect("default mix is valid");
        drive(&mut reactor, &clients, &mut ops, &packets, cfg.ops_per_phase);
        phases.push(meter.finish("churn", &reactor));
    }

    // Phase 2: Zipf hot-key storm (update-heavy, skewed clients).
    {
        let meter = PhaseMeter::before(&reactor);
        let packets =
            Workload::new(flows.clone(), Popularity::Zipf { alpha: 1.2 }, 64, cfg.seed ^ 0x21)
                .packets(cfg.packets_per_phase);
        let mut ops = ClientWorkload::try_new(
            cfg.clients,
            simple_firewall::SESSIONS_MAP,
            key_pool(&flows, 8),
            8,
            OpMix { lookup: 0.25, update: 0.65, delete: 0.05, dump: 0.05 },
            Popularity::Zipf { alpha: 1.2 },
            Popularity::Zipf { alpha: 1.2 },
            cfg.seed ^ 0x22,
        )
        .expect("storm mix is valid");
        drive(&mut reactor, &clients, &mut ops, &packets, cfg.ops_per_phase * 2);
        phases.push(meter.finish("hotkey", &reactor));
    }

    // Phase 3: SYN flood — every packet a distinct new TCP session.
    {
        let meter = PhaseMeter::before(&reactor);
        let syn_flows = FlowSet::tcp(cfg.packets_per_phase.max(64), cfg.seed ^ 0x31);
        let packets = Workload::new(syn_flows, Popularity::Uniform, 64, cfg.seed ^ 0x32)
            .packets(cfg.packets_per_phase);
        let mut ops = ClientWorkload::try_new(
            cfg.clients,
            simple_firewall::SESSIONS_MAP,
            keys.clone(),
            8,
            OpMix::default(),
            Popularity::Uniform,
            Popularity::Uniform,
            cfg.seed ^ 0x33,
        )
        .expect("default mix is valid");
        drive(&mut reactor, &clients, &mut ops, &packets, cfg.ops_per_phase / 2);
        phases.push(meter.finish("synflood", &reactor));
    }

    // Phase 4: live reload mid-load.
    let (swaps, swap_downtime_cycles);
    {
        let meter = PhaseMeter::before(&reactor);
        let packets = Workload::new(flows.clone(), Popularity::Uniform, 64, cfg.seed ^ 0x41)
            .packets(cfg.packets_per_phase);
        let mut ops = ClientWorkload::try_new(
            cfg.clients,
            simple_firewall::SESSIONS_MAP,
            keys,
            8,
            OpMix::default(),
            Popularity::Uniform,
            Popularity::Uniform,
            cfg.seed ^ 0x42,
        )
        .expect("default mix is valid");
        let half = packets.len() / 2;
        drive(&mut reactor, &clients, &mut ops, &packets[..half], cfg.ops_per_phase / 2);
        let swap = reactor.reload(&firewall_design(), 1_000_000).expect("live swap succeeds");
        swap_downtime_cycles = swap.downtime_cycles;
        swaps = 1;
        drive(&mut reactor, &clients, &mut ops, &packets[half..], cfg.ops_per_phase / 2);
        phases.push(meter.finish("reload", &reactor));
    }

    let overall = reactor.slo().snapshot();
    let reactor_stats = reactor.stats();

    CampaignReport {
        phases,
        overall,
        reactor: reactor_stats,
        swaps,
        swap_downtime_cycles,
        kill: kill_storm(cfg),
        lossy: lossy_ops(cfg),
    }
}

/// Phase 5: single replica kill on a sharded NIC under uniform load.
pub fn kill_storm(cfg: &CampaignConfig) -> KillReport {
    let design = firewall_design();
    let mut nic = ShardedNic::new(
        &design,
        cfg.replicas,
        cfg.seed ^ 0x51,
        SimOptions::default(),
        SharedMapOptions::default(),
    );
    nic.attach_replica_faults(
        ReplicaFaultConfig {
            schedule: vec![ReplicaFault { at: 300, replica: 1, kind: ReplicaFaultKind::Kill }],
            ..Default::default()
        },
        vec![
            (simple_firewall::SESSIONS_MAP, MergePolicy::Union),
            (simple_firewall::STATS_MAP, MergePolicy::SumDelta),
        ],
    );
    let flows = FlowSet::udp(cfg.flows.max(512), cfg.seed ^ 0x52);
    let packets =
        Workload::new(flows, Popularity::Uniform, 64, cfg.seed ^ 0x53).packets(cfg.kill_packets);
    let offered = packets.len() as u64;
    let report = nic.run(packets.clone());
    // The dead replica's ingress FIFO is punted back to the host at
    // fail-stop; a serving host re-offers those frames, and by now the
    // kill has been detected and its flows re-steered, so the retry
    // lands on survivors. Only mid-pipeline discards are unrecoverable.
    let retry: Vec<Vec<u8>> =
        report.drained.iter().filter_map(|&i| packets.get(i as usize).cloned()).collect();
    let retried = retry.len() as u64;
    let rerun = nic.run(retry);
    let completed: u64 = report.completed.iter().sum::<u64>() + rerun.completed.iter().sum::<u64>();
    let discarded = (report.discarded.len() + rerun.discarded.len()) as u64;
    KillReport {
        offered,
        completed,
        retried,
        drained_unrecovered: rerun.drained.len() as u64,
        discarded,
        dropped: report.dropped.iter().sum::<u64>() + rerun.dropped.iter().sum::<u64>(),
        availability: if offered == 0 { 1.0 } else { completed as f64 / offered as f64 },
        detected: rerun.failover.detected.max(report.failover.detected),
    }
}

/// Phase 6: the op mix over a lossy control channel; exactly-once acks.
pub fn lossy_ops(cfg: &CampaignConfig) -> LossyReport {
    let design = firewall_design();
    let mut reactor = Reactor::new(
        &design,
        ReactorOptions {
            runtime: RuntimeOptions {
                ctrl: CtrlOptions { latency_cycles: 4, queue_depth: 8 },
                loss: CtrlLossConfig::uniform(cfg.seed ^ 0x61, CTRL_LOSS),
                ..Default::default()
            },
            admission: AdmissionConfig::default(),
            slo: cfg.slo,
            no_coalesce: false,
        },
    );
    let clients: Vec<ClientId> = (0..cfg.clients.min(16)).map(|_| reactor.connect()).collect();
    let flows = FlowSet::udp(cfg.flows, cfg.seed ^ 0x62);
    let mut ops = ClientWorkload::try_new(
        clients.len(),
        simple_firewall::SESSIONS_MAP,
        key_pool(&flows, 16),
        8,
        OpMix::default(),
        Popularity::Uniform,
        Popularity::Uniform,
        cfg.seed ^ 0x63,
    )
    .expect("default mix is valid");
    let packets = Workload::new(flows, Popularity::Uniform, 64, cfg.seed ^ 0x64)
        .packets(cfg.ops_per_phase / 2);
    drive(&mut reactor, &clients, &mut ops, &packets, cfg.ops_per_phase);
    let stats = reactor.stats();
    let rel = reactor.runtime_stats().reliability.unwrap_or_default();
    LossyReport {
        accepted: stats.admitted_ops,
        acked: stats.acked_ops,
        shed: stats.shed_ops,
        gave_up: rel.gave_up,
        retries: rel.retries,
        dup_suppressed: rel.dup_completions_suppressed,
        lost_acked: stats.admitted_ops.saturating_sub(stats.acked_ops),
    }
}
