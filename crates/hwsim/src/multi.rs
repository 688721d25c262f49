//! Multiple XDP programs on one NIC.
//!
//! §2.4 motivates state pruning with exactly this deployment: "in real
//! deployments, it is also possible that multiple XDP programs are loaded
//! at the same time (e.g., to handle different types of protocols /
//! traffic)". This module instantiates several generated pipelines behind
//! one shell with a steering function choosing the pipeline per packet —
//! and exposes the combined resource bill that pruning keeps affordable.

use crate::ctrl::{CtrlError, CtrlOptions, HostCompletion, HostOp};
use crate::sim::{PipelineSim, SimOptions, SimOutcome};
use ehdl_core::{resource, PipelineDesign, ResourceEstimate};
use ehdl_net::FiveTuple;

/// How arriving packets are steered to a pipeline.
#[derive(Debug, Clone)]
pub enum Steering {
    /// By EtherType: `(ethertype, pipeline)` pairs with a default.
    ByEtherType {
        /// Match table.
        rules: Vec<(u16, usize)>,
        /// Pipeline for unmatched packets.
        default: usize,
    },
    /// By IPv4 protocol byte, with a default.
    ByIpProto {
        /// Match table.
        rules: Vec<(u8, usize)>,
        /// Pipeline for unmatched packets.
        default: usize,
    },
    /// RSS flow sharding: a symmetric 5-tuple hash picks one of
    /// `replicas` — pipeline replicas running the *same* program — so
    /// both directions of a flow land on the same replica and a flow
    /// never migrates. Non-IP traffic hashes over the Ethernet header.
    RssFlowHash {
        /// Replica pipeline indices (typically `0..n`).
        replicas: Vec<usize>,
        /// Hash seed (Toeplitz-key analogue); same seed + same trace
        /// gives the identical shard assignment on every run.
        seed: u64,
    },
}

/// Why a [`Steering`] policy was rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SteeringError {
    /// The NIC has no pipelines at all.
    NoPipelines,
    /// A rule, default, or replica names a pipeline that does not exist.
    TargetOutOfRange {
        /// The offending pipeline index.
        target: usize,
        /// Number of instantiated pipelines.
        pipelines: usize,
    },
    /// An RSS policy with an empty replica list steers nowhere.
    NoReplicas,
    /// An RSS policy across several replicas with an all-zero hash key:
    /// the Toeplitz-key analogue of a zero seed weakens the hash enough
    /// that crafted (or merely unlucky) traffic piles onto one replica.
    DegenerateSeed,
}

impl std::fmt::Display for SteeringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteeringError::NoPipelines => write!(f, "at least one pipeline required"),
            SteeringError::TargetOutOfRange { target, pipelines } => {
                write!(f, "steering target {target} out of range (have {pipelines} pipelines)")
            }
            SteeringError::NoReplicas => write!(f, "RSS steering needs at least one replica"),
            SteeringError::DegenerateSeed => {
                write!(f, "RSS steering across replicas rejects the all-zero hash seed")
            }
        }
    }
}

impl std::error::Error for SteeringError {}

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

impl Steering {
    /// Check every rule target, default, and replica against the number
    /// of instantiated pipelines.
    ///
    /// # Errors
    ///
    /// The first [`SteeringError`] found, if any.
    pub fn validate(&self, pipelines: usize) -> Result<(), SteeringError> {
        if pipelines == 0 {
            return Err(SteeringError::NoPipelines);
        }
        let check = |p: usize| {
            if p < pipelines {
                Ok(())
            } else {
                Err(SteeringError::TargetOutOfRange { target: p, pipelines })
            }
        };
        match self {
            Steering::ByEtherType { rules, default } => {
                for &(_, p) in rules {
                    check(p)?;
                }
                check(*default)
            }
            Steering::ByIpProto { rules, default } => {
                for &(_, p) in rules {
                    check(p)?;
                }
                check(*default)
            }
            Steering::RssFlowHash { replicas, seed } => {
                if replicas.is_empty() {
                    return Err(SteeringError::NoReplicas);
                }
                if *seed == 0 && replicas.len() > 1 {
                    return Err(SteeringError::DegenerateSeed);
                }
                for &p in replicas {
                    check(p)?;
                }
                Ok(())
            }
        }
    }
    /// Choose a pipeline index for a packet.
    ///
    /// One-shot convenience; batch paths should [`Steering::compile`]
    /// once and steer through the compiled form.
    pub fn steer(&self, packet: &[u8]) -> usize {
        self.compile().steer(packet)
    }

    /// Precompute the match structure — a 256-entry dispatch table for
    /// the protocol byte, a sorted table for EtherTypes — mirroring how
    /// the shell's steering logic would actually be synthesized (a small
    /// LUT, not a rule scan). First-match semantics are preserved.
    pub fn compile(&self) -> CompiledSteering {
        match self {
            Steering::ByEtherType { rules, default } => {
                let mut sorted = rules.clone();
                // Stable sort + first-wins dedup preserves rule priority.
                sorted.sort_by_key(|&(t, _)| t);
                sorted.dedup_by_key(|&mut (t, _)| t);
                CompiledSteering::ByEtherType { sorted, default: *default }
            }
            Steering::ByIpProto { rules, default } => {
                let mut table = [*default; 256];
                let mut set = [false; 256];
                for &(proto, p) in rules {
                    if !set[proto as usize] {
                        table[proto as usize] = p;
                        set[proto as usize] = true;
                    }
                }
                CompiledSteering::ByIpProto { table: Box::new(table) }
            }
            Steering::RssFlowHash { replicas, seed } => CompiledSteering::RssFlowHash {
                replicas: replicas.clone().into_boxed_slice(),
                seed: *seed,
            },
        }
    }
}

/// A [`Steering`] policy lowered to its dispatch structure.
#[derive(Debug, Clone)]
pub enum CompiledSteering {
    /// Sorted unique `(ethertype, pipeline)` pairs for binary search.
    ByEtherType {
        /// Sorted match table.
        sorted: Vec<(u16, usize)>,
        /// Pipeline for unmatched packets.
        default: usize,
    },
    /// Full 256-entry protocol-byte dispatch table.
    ByIpProto {
        /// `table[proto]` is the target pipeline.
        table: Box<[usize; 256]>,
    },
    /// RSS: symmetric flow hash modulo the replica list.
    RssFlowHash {
        /// Replica pipeline indices.
        replicas: Box<[usize]>,
        /// Hash seed.
        seed: u64,
    },
}

impl CompiledSteering {
    /// Choose a pipeline index for a packet.
    pub fn steer(&self, packet: &[u8]) -> usize {
        match self {
            CompiledSteering::ByEtherType { sorted, default } => {
                let ty = packet.get(12..14).map(|b| u16::from_be_bytes([b[0], b[1]])).unwrap_or(0);
                match sorted.binary_search_by_key(&ty, |&(t, _)| t) {
                    Ok(i) => sorted[i].1,
                    Err(_) => *default,
                }
            }
            CompiledSteering::ByIpProto { table } => {
                table[packet.get(23).copied().unwrap_or(0) as usize]
            }
            CompiledSteering::RssFlowHash { replicas, seed } => {
                replicas[(rss_flow_hash(packet, *seed) % replicas.len() as u64) as usize]
            }
        }
    }
}

/// Rewrite an RSS indirection table in place after a replica-set change.
///
/// `table[slot]` is the pipeline currently serving hash bucket `slot`, and
/// `home[slot]` its original owner. Slots whose current owner stopped
/// serving are redistributed round-robin across the serving set; slots
/// whose *home* returned to service get their home back. The table length
/// — and therefore the hash modulus — never changes, so flows hashed to
/// healthy replicas never migrate during a fail-over: exactly how a real
/// NIC reprograms its RSS indirection table.
///
/// Returns the number of slots rewritten; the table is left untouched
/// (and 0 returned) when no replica serves.
pub fn resteer_rss_table(table: &mut [usize], home: &[usize], serving: &[bool]) -> usize {
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

/// Several eHDL pipelines sharing one NIC shell.
///
/// ```
/// use ehdl_core::Compiler;
/// use ehdl_ebpf::asm::Asm;
/// use ehdl_ebpf::Program;
/// use ehdl_hwsim::{MultiNic, SimOptions, Steering};
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 2);
/// a.exit();
/// let d = Compiler::new().compile(&Program::from_insns(a.into_insns()))?;
/// let mut nic = MultiNic::new(
///     &[d.clone(), d],
///     Steering::ByEtherType { rules: vec![(0x0800, 0)], default: 1 },
///     SimOptions::default(),
/// );
/// let report = nic.run(vec![vec![0u8; 64]]);
/// assert_eq!(report.steered, vec![0, 1]);
/// # Ok::<(), ehdl_core::CompileError>(())
/// ```
#[derive(Debug)]
pub struct MultiNic {
    sims: Vec<PipelineSim>,
    designs: Vec<PipelineDesign>,
    steering: CompiledSteering,
}

/// Per-pipeline slice of a multi-program run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Packets steered to each pipeline.
    pub steered: Vec<u64>,
    /// Packets completed by each pipeline.
    pub completed: Vec<u64>,
    /// Arrivals each pipeline lost to RX-queue overflow during the run.
    pub dropped: Vec<u64>,
    /// Cycles each pipeline ran (injection through settle).
    pub cycles: Vec<u64>,
    /// All outcomes tagged with their pipeline index, in completion order
    /// per pipeline.
    pub outcomes: Vec<(usize, SimOutcome)>,
    /// Per-pipeline availability (1.0 without fault injection).
    pub availability: Vec<f64>,
}

/// Steering/throughput summary of a [`MultiReport`], exported through
/// `RuntimeStats::to_json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringStats {
    /// Packets steered to each pipeline.
    pub steered: Vec<u64>,
    /// Arrivals each pipeline lost to RX-queue overflow.
    pub dropped: Vec<u64>,
    /// Per-pipeline throughput (completed packets per cycle).
    pub pkts_per_cycle: Vec<f64>,
    /// Steering imbalance: max per-pipeline load over mean load
    /// (1.0 = perfectly balanced; 1.0 by convention for an empty run).
    pub imbalance: f64,
}

impl MultiReport {
    /// Per-pipeline throughput in completed packets per cycle.
    pub fn pkts_per_cycle(&self) -> Vec<f64> {
        self.completed
            .iter()
            .zip(&self.cycles)
            .map(|(&c, &cy)| if cy == 0 { 0.0 } else { c as f64 / cy as f64 })
            .collect()
    }

    /// Steering imbalance: the hottest pipeline's share of arrivals over
    /// the mean share. 1.0 means perfectly balanced; `n` means one
    /// pipeline took everything. 1.0 by convention when nothing arrived.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.steered.iter().sum();
        if total == 0 || self.steered.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.steered.len() as f64;
        let max = self.steered.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Bundle the steering/throughput summary for telemetry export.
    pub fn steering_stats(&self) -> SteeringStats {
        SteeringStats {
            steered: self.steered.clone(),
            dropped: self.dropped.clone(),
            pkts_per_cycle: self.pkts_per_cycle(),
            imbalance: self.imbalance(),
        }
    }
}

impl MultiNic {
    /// Instantiate pipelines for `designs` with a steering policy.
    ///
    /// # Panics
    ///
    /// Panics if `designs` is empty or a steering target is out of range;
    /// [`MultiNic::try_new`] reports both as typed errors instead.
    pub fn new(designs: &[PipelineDesign], steering: Steering, options: SimOptions) -> MultiNic {
        match MultiNic::try_new(designs, steering, options) {
            Ok(nic) => nic,
            Err(SteeringError::TargetOutOfRange { target, .. }) => {
                panic!("steering target {target} out of range")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Instantiate pipelines for `designs`, rejecting a bad steering
    /// policy up front instead of panicking deep inside a run.
    ///
    /// # Errors
    ///
    /// Any [`SteeringError`] from [`Steering::validate`].
    pub fn try_new(
        designs: &[PipelineDesign],
        steering: Steering,
        options: SimOptions,
    ) -> Result<MultiNic, SteeringError> {
        steering.validate(designs.len())?;
        Ok(MultiNic {
            sims: designs.iter().map(|d| PipelineSim::with_options(d, options)).collect(),
            designs: designs.to_vec(),
            steering: steering.compile(),
        })
    }

    /// Mutable access to pipeline `i`'s simulator (host map setup).
    pub fn sim_mut(&mut self, i: usize) -> &mut PipelineSim {
        &mut self.sims[i]
    }

    /// Attach a host control channel to every pipeline. The host reaches
    /// each program's maps independently — one PCIe function per loaded
    /// program, as on a real multi-program NIC.
    pub fn attach_ctrl(&mut self, options: CtrlOptions) {
        for sim in &mut self.sims {
            sim.attach_ctrl(options);
        }
    }

    /// Submit a host op to pipeline `i`'s control channel. Ops submitted
    /// before [`MultiNic::run`] are barrier-ordered against that run's
    /// packets and retire during it.
    pub fn submit_host_op(&mut self, i: usize, op: HostOp) -> Result<u64, CtrlError> {
        self.sims[i].submit_host_op(op)
    }

    /// Drain pipeline `i`'s host-op completions.
    pub fn host_completions(&mut self, i: usize) -> Vec<HostCompletion> {
        self.sims[i].host_completions()
    }

    /// Attach fault injection to every pipeline. Each pipeline's engine is
    /// seeded from `cfg.seed` and its index, so the pipelines see
    /// decorrelated (but still reproducible) fault streams — independent
    /// hardware blocks do not fail in lockstep.
    pub fn attach_faults(&mut self, cfg: crate::fault::FaultConfig) {
        for (i, sim) in self.sims.iter_mut().enumerate() {
            let seed = cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            sim.attach_faults(crate::fault::FaultConfig { seed, ..cfg });
        }
    }

    /// Run a packet burst through the steered pipelines (all pipelines
    /// tick in lockstep, sharing the 250 MHz clock).
    ///
    /// The pipelines are independent hardware blocks exchanging no state,
    /// so each one runs on its own thread, replaying the same global
    /// arrival schedule (one clock tick per arrival, then a drain): the
    /// per-pipeline cycle sequence — and therefore every outcome and
    /// counter — is identical to stepping them in lockstep.
    pub fn run(&mut self, packets: impl IntoIterator<Item = Vec<u8>>) -> MultiReport {
        let n = self.sims.len();
        let packets: Vec<Vec<u8>> = packets.into_iter().collect();
        let targets: Vec<usize> = packets.iter().map(|p| self.steering.steer(p)).collect();
        let mut steered = vec![0u64; n];
        for &t in &targets {
            steered[t] += 1;
        }
        let packets = &packets;
        let targets = &targets;
        let before: Vec<(u64, u64)> =
            self.sims.iter().map(|s| (s.cycle(), s.counters().rx_dropped)).collect();
        let outs: Vec<Vec<SimOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sims
                .iter_mut()
                .enumerate()
                .map(|(i, sim)| {
                    scope.spawn(move || {
                        for (pkt, &t) in packets.iter().zip(targets) {
                            if t == i {
                                // A full RX queue counts in `rx_dropped`;
                                // the report surfaces the per-pipeline
                                // delta so bursts never vanish silently.
                                let _ = sim.enqueue(pkt.clone());
                            }
                            sim.step();
                        }
                        sim.settle(10_000_000);
                        sim.drain()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("pipeline thread panicked")).collect()
        });
        let mut outcomes = Vec::new();
        let mut completed = vec![0u64; n];
        for (i, outs_i) in outs.into_iter().enumerate() {
            completed[i] = outs_i.len() as u64;
            outcomes.extend(outs_i.into_iter().map(|o| (i, o)));
        }
        let availability = self.sims.iter().map(|s| s.availability()).collect();
        let cycles = self.sims.iter().zip(&before).map(|(s, &(c0, _))| s.cycle() - c0).collect();
        let dropped = self
            .sims
            .iter()
            .zip(&before)
            .map(|(s, &(_, d0))| s.counters().rx_dropped - d0)
            .collect();
        MultiReport { steered, completed, dropped, cycles, outcomes, availability }
    }

    /// Combined FPGA bill: every pipeline plus one shared shell.
    pub fn resources(&self) -> ResourceEstimate {
        let mut total = ResourceEstimate {
            luts: resource::cost::SHELL_LUTS,
            ffs: resource::cost::SHELL_FFS,
            brams: resource::cost::SHELL_BRAMS,
        };
        for d in &self.designs {
            total = total.plus(resource::estimate_pipeline(d));
        }
        total
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_core::{Compiler, Target};
    use ehdl_ebpf::vm::XdpAction;
    use ehdl_net::{FiveTuple, IPPROTO_TCP, IPPROTO_UDP};
    use ehdl_programs::{router, simple_firewall, suricata, App};
    use ehdl_traffic::build_flow_packet;

    fn designs() -> Vec<PipelineDesign> {
        vec![
            Compiler::new().compile(&simple_firewall::program()).unwrap(),
            Compiler::new().compile(&suricata::program()).unwrap(),
        ]
    }

    #[test]
    fn steering_splits_udp_and_tcp() {
        // UDP → firewall pipeline, TCP → the IDS filter.
        let designs = designs();
        let mut nic = MultiNic::new(
            &designs,
            Steering::ByIpProto { rules: vec![(IPPROTO_UDP, 0), (IPPROTO_TCP, 1)], default: 1 },
            SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
        );
        let udp = FiveTuple {
            saddr: [10, 0, 0, 1],
            daddr: [1; 4],
            sport: 9,
            dport: 53,
            proto: IPPROTO_UDP,
        };
        let tcp = FiveTuple {
            saddr: [10, 0, 0, 2],
            daddr: [2; 4],
            sport: 9,
            dport: 80,
            proto: IPPROTO_TCP,
        };
        let mut packets = Vec::new();
        for _ in 0..20 {
            packets.push(build_flow_packet(&udp, [1; 6], [2; 6], 64));
            packets.push(build_flow_packet(&tcp, [1; 6], [2; 6], 64));
        }
        let report = nic.run(packets);
        assert_eq!(report.steered, vec![20, 20]);
        assert_eq!(report.completed, vec![20, 20]);
        // Firewall forwards the inside UDP flow; IDS passes unmatched TCP.
        for (p, out) in &report.outcomes {
            match p {
                0 => assert_eq!(out.action, XdpAction::Tx),
                _ => assert_eq!(out.action, XdpAction::Pass),
            }
        }
        // Each pipeline kept its own maps.
        assert_eq!(simple_firewall::read_stats(nic.sim_mut(0).maps())[0], 20);
        assert_eq!(suricata::read_stats(nic.sim_mut(1).maps())[0], 20);
    }

    #[test]
    fn three_programs_fit_the_fpga() {
        // The sec. 2.4 motivation: pruned pipelines are small enough that
        // several coexist comfortably on the U50.
        let designs: Vec<PipelineDesign> = [App::Firewall, App::Router, App::Tunnel]
            .iter()
            .map(|a| Compiler::new().compile(&a.program()).unwrap())
            .collect();
        let nic = MultiNic::new(
            &designs,
            Steering::ByIpProto { rules: vec![], default: 0 },
            SimOptions::default(),
        );
        let u = nic.resources().utilization(Target::ALVEO_U50);
        assert!(u.luts < 0.25, "three pipelines + shell at {:.1}% LUTs", u.luts * 100.0);
        assert!(u.brams < 0.60);
    }

    #[test]
    fn default_steering_catches_unmatched() {
        let designs = designs();
        let mut nic = MultiNic::new(
            &designs,
            Steering::ByEtherType { rules: vec![(0x0800, 0)], default: 1 },
            SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
        );
        let mut arp = vec![0u8; 64];
        arp[12] = 0x08;
        arp[13] = 0x06;
        let report = nic.run(vec![arp]);
        assert_eq!(report.steered, vec![0, 1]);
    }

    #[test]
    fn per_pipeline_control_channels_are_independent() {
        use crate::ctrl::{CtrlOptions, HostOp, HostOpResult};
        let designs = designs();
        let mut nic = MultiNic::new(
            &designs,
            Steering::ByIpProto { rules: vec![(IPPROTO_UDP, 0), (IPPROTO_TCP, 1)], default: 1 },
            SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
        );
        nic.attach_ctrl(CtrlOptions { latency_cycles: 1, queue_depth: 4 });
        // Pre-run ops have barrier 0: they see each program's *initial*
        // map state even though they retire while packets are in flight.
        nic.submit_host_op(0, HostOp::Dump { map: 0 }).unwrap();
        nic.submit_host_op(1, HostOp::Dump { map: 0 }).unwrap();
        let udp = FiveTuple {
            saddr: [10, 0, 0, 1],
            daddr: [1; 4],
            sport: 9,
            dport: 53,
            proto: IPPROTO_UDP,
        };
        let packets: Vec<_> =
            (0..10).map(|_| build_flow_packet(&udp, [1; 6], [2; 6], 64)).collect();
        let report = nic.run(packets);
        assert_eq!(report.steered[0], 10);
        for i in 0..2 {
            let c = nic.host_completions(i);
            assert_eq!(c.len(), 1, "pipeline {i}");
            let Ok(HostOpResult::Entries(entries)) = &c[0].result else {
                panic!("dump failed on pipeline {i}: {:?}", c[0].result);
            };
            // Barrier-0 snapshot: no packet effects visible.
            for (_, v) in entries.iter() {
                assert!(v.iter().all(|&b| b == 0), "pipeline {i} saw packet effects");
            }
        }
        // Post-run ops see the final state.
        nic.submit_host_op(0, HostOp::Dump { map: 0 }).unwrap();
        nic.sim_mut(0).settle(10_000);
        let c = nic.host_completions(0);
        let Ok(HostOpResult::Entries(entries)) = &c[0].result else { panic!() };
        assert!(
            entries.iter().any(|(_, v)| v.iter().any(|&b| b != 0)),
            "post-run dump must see the counted packets"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_steering_target_rejected() {
        let designs = vec![Compiler::new().compile(&router::program()).unwrap()];
        let _ = MultiNic::new(
            &designs,
            Steering::ByIpProto { rules: vec![(6, 3)], default: 0 },
            SimOptions::default(),
        );
    }

    #[test]
    fn validate_reports_typed_errors() {
        let s = Steering::ByIpProto { rules: vec![(6, 3)], default: 0 };
        assert_eq!(s.validate(2), Err(SteeringError::TargetOutOfRange { target: 3, pipelines: 2 }));
        assert_eq!(s.validate(0), Err(SteeringError::NoPipelines));
        assert_eq!(s.validate(4), Ok(()));
        let rss = Steering::RssFlowHash { replicas: vec![], seed: 1 };
        assert_eq!(rss.validate(2), Err(SteeringError::NoReplicas));
        let rss = Steering::RssFlowHash { replicas: vec![0, 2], seed: 1 };
        assert_eq!(
            rss.validate(2),
            Err(SteeringError::TargetOutOfRange { target: 2, pipelines: 2 })
        );
        // A degenerate all-zero hash key is rejected across replicas but
        // tolerated when one replica makes steering constant anyway.
        let rss = Steering::RssFlowHash { replicas: vec![0, 1], seed: 0 };
        assert_eq!(rss.validate(2), Err(SteeringError::DegenerateSeed));
        let rss = Steering::RssFlowHash { replicas: vec![0], seed: 0 };
        assert_eq!(rss.validate(1), Ok(()));
        let designs = vec![Compiler::new().compile(&router::program()).unwrap()];
        let err = MultiNic::try_new(
            &designs,
            Steering::RssFlowHash { replicas: vec![1], seed: 0 },
            SimOptions::default(),
        )
        .err();
        assert_eq!(err, Some(SteeringError::TargetOutOfRange { target: 1, pipelines: 1 }));
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
    fn report_exposes_throughput_and_imbalance() {
        let designs = designs();
        let mut nic = MultiNic::new(
            &designs,
            Steering::ByIpProto { rules: vec![(IPPROTO_UDP, 0), (IPPROTO_TCP, 1)], default: 1 },
            SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
        );
        let udp = FiveTuple {
            saddr: [10, 0, 0, 1],
            daddr: [1; 4],
            sport: 9,
            dport: 53,
            proto: IPPROTO_UDP,
        };
        let packets: Vec<_> =
            (0..30).map(|_| build_flow_packet(&udp, [1; 6], [2; 6], 64)).collect();
        let report = nic.run(packets);
        assert_eq!(report.dropped, vec![0, 0]);
        let tp = report.pkts_per_cycle();
        assert!(tp[0] > 0.0, "loaded pipeline has throughput");
        assert_eq!(tp[1], 0.0, "idle pipeline has none");
        // All 30 packets hit pipeline 0 of 2: imbalance is exactly 2.
        assert_eq!(report.imbalance(), 2.0);
        let stats = report.steering_stats();
        assert_eq!(stats.steered, vec![30, 0]);
        assert_eq!(stats.imbalance, 2.0);
    }
}
