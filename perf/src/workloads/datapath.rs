//! The three single-pipeline workloads: one program on a `NicShell`,
//! packets offered on the wire schedule of a 100 Gbps port.
//!
//! * `fw_line_rate` — firewall, 64 B, 10k uniform flows, load 1.0;
//! * `lb_zipf_hazard` — leaky bucket, 64 B, Zipf(1.0) over 100k seeded
//!   buckets, offered just under the rate its flushes let it sustain;
//! * `router_caida_sparse` — router, CAIDA-like sizes and flows.
//!
//! The untraced unit calls `NicShell::run`; the traced unit drives
//! `PipelineSim::{enqueue, step, settle, drain}` on the same schedule,
//! reading the clock once per call, and must land on the same cycle
//! count, counters and outputs.

use super::{
    check_against_vm, frozen_clock, install_routes, Check, Digest, LayerSamples, Scale, Sim, Unit,
    Workload, CLOCK_NS, FROZEN_TIME_NS,
};
use crate::alloc::allocs;
use crate::clock::{thread_cpu, timed};
use crate::stats::percentile;
use crate::toolchain;
use crate::trace::Tracer;
use ehdl_ebpf::elf;
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::vm::Vm;
use ehdl_hwsim::{NicShell, PipelineSim, ShellOptions, SimOutcome};
use ehdl_programs::{leaky_bucket, App};
use ehdl_traffic::{caida_like, FlowSet, Popularity, Workload as Traffic};
use std::time::Instant;

/// Packets of the held-out prefix replayed through the reference VM.
const CHECK_PACKETS: usize = 20_000;

/// Offered load of `lb_zipf_hazard` as a share of line rate
/// (0.131 packets/cycle; 64 B line rate is 0.595). At load 1.0 the
/// flushes this key skew causes cap the design near 0.185 packets/cycle
/// and most arrivals are lost at RX, so there would be no outcome to
/// check for them. Below that cap nothing is lost and flush cost shows
/// as queueing latency instead: p99 is ~115 cycles here against 81 at
/// load 0.18, and still within 3% from seed to seed (at 0.26 it is ~220
/// cycles and swings 25% with the seed).
const LB_LOAD: f64 = 0.22;

/// The traced pass times one `step` and one `enqueue` call in this many
/// (by cycle and by packet index): a clock read costs about 5% of a
/// sparse-pipeline step, and reading it around every call put the traced
/// `lb_zipf_hazard` unit 12% over the untraced one.
const TIMED_ONE_IN: usize = 8;

/// Which program, and therefore which maps to seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Firewall,
    LeakyBucket,
    Router,
}

impl Kind {
    /// Name under `core.compile_us.*`.
    fn program(self) -> &'static str {
        match self {
            Kind::Firewall => "firewall",
            Kind::LeakyBucket => "leaky_bucket",
            Kind::Router => "router",
        }
    }
}

/// One single-pipeline workload.
#[derive(Debug)]
pub struct Datapath {
    kind: Kind,
    elf: Vec<u8>,
    packets: Vec<Vec<u8>>,
    /// 5-tuple keys of every flow (bucket seeding).
    flow_keys: Vec<[u8; 13]>,
    options: ShellOptions,
    gen_ns_per_pkt: f64,
    totals: (u64, u64),
    /// Outcomes of the first unit's first `CHECK_PACKETS` packets.
    prefix: Option<Vec<SimOutcome>>,
    /// Cycle count of the last unit (sizes the traced step log).
    last_cycles: u64,
}

impl Datapath {
    fn new(
        kind: Kind,
        elf: Vec<u8>,
        flows: &FlowSet,
        (packets, gen_s): (Vec<Vec<u8>>, f64),
        options: ShellOptions,
    ) -> Datapath {
        let totals = toolchain::design_totals(&elf);
        Datapath {
            kind,
            elf,
            gen_ns_per_pkt: gen_s * 1e9 / packets.len() as f64,
            packets,
            flow_keys: flows.flows().iter().map(|f| f.to_key()).collect(),
            options,
            totals,
            prefix: None,
            last_cycles: 0,
        }
    }

    /// `fw_line_rate`.
    pub fn firewall(seed: u64, scale: Scale) -> Datapath {
        let flows = FlowSet::udp(10_000, seed);
        let generated = timed(|| {
            Traffic::new(flows.clone(), Popularity::Uniform, 64, seed ^ 0xf1)
                .packets(scale.of(400_000))
        });
        let elf = elf::write(&App::Firewall.program());
        Datapath::new(Kind::Firewall, elf, &flows, generated, ShellOptions::default())
    }

    /// `lb_zipf_hazard`.
    pub fn leaky_bucket(seed: u64, scale: Scale) -> Datapath {
        let flows = FlowSet::udp(100_000, seed);
        let generated = timed(|| {
            Traffic::new(flows.clone(), Popularity::Zipf { alpha: 1.0 }, 64, seed ^ 0x1b)
                .packets(scale.of(300_000))
        });
        let options =
            ShellOptions { load: LB_LOAD, sim: frozen_clock(), ..ShellOptions::default() };
        let elf = elf::write(&leaky_bucket::program());
        Datapath::new(Kind::LeakyBucket, elf, &flows, generated, options)
    }

    /// `router_caida_sparse`.
    pub fn router(seed: u64, scale: Scale) -> Datapath {
        let (trace, gen_trace_s) = timed(|| caida_like(scale.of(200_000), seed));
        let (packets, gen_pkts_s) =
            timed(|| (0..trace.len()).map(|i| trace.packet(i)).collect::<Vec<_>>());
        let elf = elf::write(&App::Router.program());
        Datapath::new(
            Kind::Router,
            elf,
            trace.flow_set(),
            (packets, gen_trace_s + gen_pkts_s),
            ShellOptions::default(),
        )
    }

    /// Host-side map state the run starts from (applied to the device
    /// and to the oracle alike).
    fn seed_maps(&self, maps: &mut MapStore) {
        match self.kind {
            Kind::Firewall => {}
            Kind::LeakyBucket => {
                // Every flow starts with a full bucket last refilled at
                // t=0, so the run is read-modify-write from packet 0.
                let mut value = leaky_bucket::BURST.to_le_bytes().to_vec();
                value.extend_from_slice(&0u64.to_le_bytes());
                let buckets = maps.get_mut(leaky_bucket::BUCKETS_MAP).expect("buckets map");
                for key in &self.flow_keys {
                    buckets.update(key, &value, Default::default()).expect("bucket fits");
                }
            }
            Kind::Router => install_routes(maps),
        }
    }

    /// Cold set-up: program bytes to a shell ready for its first packet.
    fn setup(&self) -> (NicShell, f64) {
        timed(|| {
            let design = toolchain::build(&self.elf).expect("program compiles");
            let mut shell = NicShell::new(&design, self.options);
            self.seed_maps(shell.sim_mut().maps_mut());
            shell
        })
    }

    /// Wire time of a frame at the configured port speed and load
    /// (frame + 20 B preamble/IFG), as the shell computes it.
    fn wire_ns(&self, len: usize) -> f64 {
        ((len + 20) * 8) as f64 / self.options.port_bps * 1e9 / self.options.load
    }

    /// Fold a finished run into a [`Unit`], keeping the check prefix of
    /// the first one.
    fn finish(&mut self, sim: &PipelineSim, mut outs: Vec<SimOutcome>, host_s: f64) -> Unit {
        let c = *sim.counters();
        let mut digest = Digest::default();
        let mut latencies = Vec::with_capacity(outs.len());
        for o in &outs {
            digest.outcome(o);
            latencies.push(o.latency_cycles);
        }
        for w in [sim.cycle(), c.injected, c.completed, c.rx_dropped, c.flushes, c.flush_replays] {
            digest.word(w);
        }
        if self.prefix.is_none() {
            outs.truncate(CHECK_PACKETS.min(self.packets.len()));
            self.prefix = Some(outs);
        }
        self.last_cycles = sim.cycle();
        let offered = self.packets.len() as u64;
        Unit {
            items: c.completed,
            attempted: offered,
            failed: offered - c.completed.min(offered),
            host_s,
            sim: Sim::new(c.completed, sim.cycle(), &mut latencies, digest.value()),
        }
    }
}

impl Workload for Datapath {
    fn setup_sample(&mut self) -> f64 {
        self.setup().1
    }

    fn unit(&mut self) -> (Unit, f64) {
        let (mut shell, setup_s) = self.setup();
        let packets = self.packets.clone();
        let (report, host_s) = timed(|| shell.run(packets));
        std::hint::black_box(&report);
        let outs = shell.drain();
        let sim: &PipelineSim = shell.sim_mut();
        (self.finish(sim, outs, host_s), setup_s)
    }

    fn traced_unit(&mut self, tr: &mut Tracer, layers: &mut LayerSamples) -> Unit {
        let unit_span = tr.enter("unit");
        let design =
            layers.tools.traced(tr, self.kind.program(), &self.elf).expect("program compiles");
        layers
            .tools
            .traced_front_end(tr, self.kind.program(), &self.elf)
            .expect("program verifies");
        let (mut sim, attach_ns) =
            tr.span("hwsim.attach", || PipelineSim::with_options(&design, self.options.sim));
        tr.span("seed_maps", || self.seed_maps(sim.maps_mut()));
        layers.push("hwsim.attach_us", attach_ns as f64 / 1e3);

        let packets = self.packets.clone();
        let offered = packets.len() as u64;
        let mut step_log: Vec<u32> =
            Vec::with_capacity(self.last_cycles as usize / TIMED_ONE_IN + 1024);
        let (mut step_ns, mut enqueue_ns) = (0u64, 0u64);

        let cpu_start = thread_cpu();
        let run_span = tr.enter("hwsim.run");
        let run_start = tr.now_ns();
        let allocs_before = allocs();
        let mut t_ns = 0.0f64;
        for (i, pkt) in packets.into_iter().enumerate() {
            let target_cycle = (t_ns / CLOCK_NS) as u64;
            while sim.cycle() < target_cycle {
                if sim.cycle() as usize % TIMED_ONE_IN == 0 {
                    let t0 = Instant::now();
                    sim.step();
                    let d = t0.elapsed().as_nanos() as u64;
                    step_ns += d;
                    step_log.push(d.min(u64::from(u32::MAX)) as u32);
                } else {
                    sim.step();
                }
            }
            t_ns += self.wire_ns(pkt.len());
            if i % TIMED_ONE_IN == 0 {
                let t0 = Instant::now();
                sim.enqueue(pkt);
                enqueue_ns += t0.elapsed().as_nanos() as u64;
            } else {
                sim.enqueue(pkt);
            }
        }
        // Scale the sampled sums up to all calls.
        let (step_ns, enqueue_ns) =
            (step_ns * TIMED_ONE_IN as u64, enqueue_ns * TIMED_ONE_IN as u64);
        let steps_end = tr.now_ns();
        let paced_cycles = sim.cycle();
        tr.span("hwsim.settle", || sim.settle(10_000_000));
        let run_allocs = allocs() - allocs_before;
        let (outs, _) = tr.span("hwsim.drain", || sim.drain());
        tr.aggregate("hwsim.step", paced_cycles, step_ns, run_start, steps_end);
        tr.aggregate("hwsim.enqueue", offered, enqueue_ns, run_start, steps_end);
        let run_ns = tr.exit(run_span);
        let host_s = (thread_cpu() - cpu_start).as_secs_f64();
        tr.exit(unit_span);

        let c = *sim.counters();
        let done = c.completed.max(1) as f64;
        layers.push("hwsim.ns_per_cycle", run_ns as f64 / sim.cycle().max(1) as f64);
        layers.push("hwsim.ns_per_pkt", run_ns as f64 / done);
        layers.push("hwsim.enqueue_ns_per_pkt", enqueue_ns as f64 / offered as f64);
        layers.push("hwsim.step_ns_p50", f64::from(percentile(&mut step_log, 0.50)));
        layers.push("hwsim.step_ns_p99", f64::from(percentile(&mut step_log, 0.99)));
        layers.push("hwsim.allocs_per_pkt", run_allocs as f64 / offered as f64);
        layers.push("hwsim.cycles", sim.cycle() as f64);
        layers.push("hwsim.cycles_per_pkt", sim.cycle() as f64 / done);
        layers.push("hwsim.flushes_per_kpkt", c.flushes as f64 * 1e3 / done);
        layers.push("hwsim.flush_replays_per_kpkt", c.flush_replays as f64 * 1e3 / done);
        layers.push("hwsim.useful_ratio", done / (done + c.flush_replays as f64));
        layers.push("hwsim.rx_dropped", c.rx_dropped as f64);
        layers.push("hwsim.bounds_faults", c.bounds_faults as f64);
        layers.push("hwsim.proof_violations", c.proof_violations as f64);
        self.finish(&sim, outs, host_s)
    }

    fn check(&mut self) -> Check {
        let outcomes = self.prefix.as_deref().expect("check runs after the first unit");
        let program = elf::load(&self.elf).expect("program loads");
        let mut vm = Vm::new(&program);
        vm.set_time_ns(FROZEN_TIME_NS);
        self.seed_maps(vm.maps_mut());
        let n = CHECK_PACKETS.min(self.packets.len());
        check_against_vm(&mut vm, &self.packets[..n], outcomes, 0..0)
    }

    fn design_totals(&self) -> (u64, u64) {
        self.totals
    }

    fn gen_ns_per_item(&self) -> f64 {
        self.gen_ns_per_pkt
    }
}
