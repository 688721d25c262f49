//! `shard4_dnat_zipf`: DNAT on four lockstep replicas behind RSS flow
//! steering, the port allocator shared over the banked fabric.
//!
//! No sequential oracle exists here: the order in which replicas win the
//! allocator decides which flow gets which port. The check is the NAT
//! invariant instead (one stable in-range port per flow, no port given
//! to two flows, headers otherwise intact, IPv4 checksum valid) plus
//! accounting closure.

use super::nat::NatInvariant;
use super::{Check, Digest, LayerSamples, Scale, Sim, Unit, Workload};
use crate::clock::timed;
use crate::toolchain;
use crate::trace::Tracer;
use ehdl_ebpf::elf;
use ehdl_hwsim::{CompiledSteering, ShardReport, ShardedNic, SharedMapOptions, SimOptions};
use ehdl_programs::{dnat, App};
use ehdl_traffic::{FlowSet, Popularity, Workload as Traffic};

/// Replicas of the measured configuration.
const REPLICAS: usize = 4;
/// Flows offered: below `dnat::PORT_RANGE` (16384), so every flow can
/// hold a port of its own and the NAT invariant is checkable.
const FLOWS: usize = 16_000;

/// Zipf skew of the flow popularity. At 1.0 the top flow carries 10% of
/// the packets and simulated throughput swings 20% with the seed (it
/// depends on which replica that one flow hashes to); at 0.6 the swing
/// is 2%, and new flows keep arriving all run long, so the shared port
/// allocator stays busy.
const ALPHA: f64 = 0.6;

/// The workload.
#[derive(Debug)]
pub struct Shard {
    elf: Vec<u8>,
    packets: Vec<Vec<u8>>,
    rss_seed: u64,
    gen_ns_per_pkt: f64,
    totals: (u64, u64),
    /// The first unit's report, kept for the check.
    first: Option<ShardReport>,
}

fn fabric() -> SharedMapOptions {
    SharedMapOptions { shared_maps: vec![dnat::PORT_ALLOC_MAP], ..SharedMapOptions::default() }
}

impl Shard {
    /// Build the workload's packets from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Shard {
        let flows = FlowSet::udp(FLOWS, seed);
        let (packets, gen_s) = timed(|| {
            Traffic::new(flows, Popularity::Zipf { alpha: ALPHA }, 64, seed ^ 0xd7)
                .packets(scale.of(160_000))
        });
        let elf = elf::write(&App::Dnat.program());
        let totals = toolchain::design_totals(&elf);
        Shard {
            elf,
            gen_ns_per_pkt: gen_s * 1e9 / packets.len() as f64,
            packets,
            rss_seed: seed ^ 0x55,
            totals,
            first: None,
        }
    }

    /// Cold set-up: program bytes to `REPLICAS` attached replicas.
    fn setup(&self) -> (ShardedNic, f64) {
        timed(|| {
            let design = toolchain::build(&self.elf).expect("program compiles");
            ShardedNic::new(&design, REPLICAS, self.rss_seed, SimOptions::default(), fabric())
        })
    }

    fn finish(&mut self, report: ShardReport, host_s: f64) -> Unit {
        let mut digest = Digest::default();
        let mut latencies = Vec::with_capacity(report.outcomes.len());
        for (replica, index, o) in &report.outcomes {
            digest.word(*replica as u64);
            digest.word(*index);
            digest.outcome(o);
            latencies.push(o.latency_cycles);
        }
        digest.word(report.cycles);
        digest.word(report.fabric.conflicts);
        let completed: u64 = report.completed.iter().sum();
        let offered = self.packets.len() as u64;
        let sim = Sim::new(completed, report.cycles, &mut latencies, digest.value());
        self.first.get_or_insert(report);
        Unit {
            items: completed,
            attempted: offered,
            failed: offered - completed.min(offered),
            host_s,
            sim,
        }
    }
}

impl Workload for Shard {
    fn setup_sample(&mut self) -> f64 {
        self.setup().1
    }

    fn unit(&mut self) -> (Unit, f64) {
        let (mut nic, setup_s) = self.setup();
        let packets = self.packets.clone();
        let (report, host_s) = timed(|| nic.run(packets));
        (self.finish(report, host_s), setup_s)
    }

    fn traced_unit(&mut self, tr: &mut Tracer, layers: &mut LayerSamples) -> Unit {
        let unit_span = tr.enter("unit");
        let design = layers.tools.traced(tr, "dnat", &self.elf).expect("program compiles");
        layers.tools.traced_front_end(tr, "dnat", &self.elf).expect("program verifies");
        let options = SimOptions::default();
        let (mut nic, new_ns) = tr.span("shared.new", || {
            ShardedNic::new(&design, REPLICAS, self.rss_seed, options, fabric())
        });
        layers.push("shared.new_us", new_ns as f64 / 1e3);

        let packets = self.packets.clone();
        let ((report, run_ns), host_s) = timed(|| tr.span("shared.run", || nic.run(packets)));

        // The same packets on one replica: what the lockstep driver and
        // the fabric cost on top of the engine under them.
        let mut single = ShardedNic::new(&design, 1, self.rss_seed, options, fabric());
        let packets = self.packets.clone();
        let (single_report, single_ns) = tr.span("shared.run_1_replica", || single.run(packets));
        std::hint::black_box(&single_report);

        let steering = CompiledSteering::RssFlowHash {
            replicas: (0..REPLICAS).collect(),
            seed: self.rss_seed,
        };
        let (spread, steer_ns) = tr
            .span("shared.steer", || self.packets.iter().map(|p| steering.steer(p)).sum::<usize>());
        std::hint::black_box(spread);
        tr.exit(unit_span);

        let n = self.packets.len() as f64;
        let completed = report.completed.iter().sum::<u64>().max(1) as f64;
        layers.push("shared.ns_per_global_cycle", run_ns as f64 / report.cycles.max(1) as f64);
        layers.push(
            "shared.ns_per_replica_cycle",
            run_ns as f64 / (report.cycles.max(1) * REPLICAS as u64) as f64,
        );
        layers.push("shared.scaling_eff", single_ns as f64 / run_ns.max(1) as f64);
        layers.push("shared.steer_ns_per_pkt", steer_ns as f64 / n);
        layers.push("shared.conflict_rate", report.fabric.conflict_rate());
        let stalls: u64 = report.fabric.stall_cycles.iter().sum();
        layers.push("shared.stall_cycles_per_kpkt", stalls as f64 * 1e3 / completed);
        layers.push("shared.imbalance", report.imbalance());
        layers.push("shared.fabric_accesses", report.fabric.fabric_accesses as f64);
        layers.push("shared.dropped", report.dropped.iter().sum::<u64>() as f64);
        self.finish(report, host_s)
    }

    fn check(&mut self) -> Check {
        let report = self.first.as_ref().expect("check runs after the first unit");
        let mut check = Check::default();
        let offered = self.packets.len() as u64;
        let completed: u64 = report.completed.iter().sum();
        let dropped: u64 = report.dropped.iter().sum();
        check.expect(offered == completed + dropped, || {
            format!("accounting: offered {offered} != completed {completed} + dropped {dropped}")
        });
        check.expect(report.outcomes.len() as u64 == completed, || {
            format!("{} outcomes for {completed} completed packets", report.outcomes.len())
        });
        let mut nat = NatInvariant::default();
        for (_, index, o) in &report.outcomes {
            let verdict = match self.packets.get(*index as usize) {
                Some(sent) => nat.admit(sent, o),
                None => Err("was never offered".to_string()),
            };
            check.expect(verdict.is_ok(), || format!("packet {index}: {}", verdict.unwrap_err()));
        }
        check
    }

    fn design_totals(&self) -> (u64, u64) {
        self.totals
    }

    fn gen_ns_per_item(&self) -> f64 {
        self.gen_ns_per_pkt
    }
}
