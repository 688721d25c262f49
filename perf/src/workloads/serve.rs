//! `serve_longhaul`: a closed loop of control clients over the serving
//! reactor, ops running beside packets, a live reload at the midpoint;
//! then the serve crate's own kill-storm and lossy-channel campaigns at
//! a multiple of their stock size.
//!
//! Closed loop: each of `CLIENTS` clients keeps at most `WINDOW` ops
//! outstanding and submits its next op only when an earlier one is
//! acked, so a slower reactor receives less load. The window is wide
//! enough that ops queue in the control channel (op p99 is well above
//! the idle round trip), which the stock campaign never achieves.
//!
//! Checked: every admitted ticket gets exactly one ack, every packet
//! offered is served or counted dropped, nothing is shed, the lossy
//! channel loses and abandons nothing. The kill storm discards the
//! packets inside the killed replica by design; they are reported as
//! `serve.kill_availability`, not as failures of the benchmark.

use super::{Check, Digest, LayerSamples, Scale, Sim, Unit, Workload};
use crate::clock::timed;
use crate::stats::percentile;
use crate::toolchain;
use crate::trace::{since, Tracer};
use ehdl_core::PipelineDesign;
use ehdl_ebpf::elf;
use ehdl_ebpf::maps::UpdateFlags;
use ehdl_hwsim::{coalesce_ops, decode_frame, encode_frame, HostOp, MapShape};
use ehdl_programs::{simple_firewall, App};
use ehdl_serve::{
    kill_storm, lossy_ops, Ack, CampaignConfig, ClientId, KillReport, LossyReport, Reactor,
    ReactorOptions,
};
use ehdl_traffic::{
    ClientWorkload, ControlOp, ControlOpKind, FlowSet, OpMix, Popularity, Workload as Traffic,
};

/// Control clients.
const CLIENTS: usize = 64;
/// Ops each client may have outstanding.
const WINDOW: usize = 4;
/// Simulated cycles per reactor turn. Acks surface at turn boundaries,
/// so op latencies are multiples of this; 8 keeps one step of the p99
/// (about 4%) inside its bound where the stock 32 would not be.
const TURN_CYCLES: u64 = 8;
/// Packets offered per turn (the stock campaign's 4 per 32 cycles).
const PACKETS_PER_TURN: usize = 1;
/// Client ops of the closed-loop phase at full size.
const OPS: usize = 40_000;
/// Multiple of the stock `CampaignConfig` the two campaigns run at: the
/// kill storm offers this many times the stock packets; the lossy-ops
/// campaign runs this many times at stock size on consecutive seeds (its
/// open-loop op bursts outrun a 10%-lossy channel, so one longer run
/// would overflow admission and shed, which is not what is measured).
const CAMPAIGN_SCALE: usize = 10;
/// Op-train length for the standalone coalescing measurement.
const TRAIN: usize = 64;

/// The workload.
#[derive(Debug)]
pub struct Serve {
    elf: Vec<u8>,
    /// `(client, op)` in submission order.
    ops: Vec<(u32, ControlOp)>,
    /// Packets offered round-robin, `PACKETS_PER_TURN` per turn.
    packets: Vec<Vec<u8>>,
    campaign: CampaignConfig,
    lossy_rounds: usize,
    gen_ns_per_op: f64,
    totals: (u64, u64),
    /// What the first unit observed, kept for the check.
    first: Option<Observed>,
}

/// Everything one unit observed that the check or the layer metrics need.
#[derive(Debug, Clone)]
struct Observed {
    acks: Vec<Ack>,
    /// The acks the live reload itself flushed out of the device: their
    /// latency is the swap's downtime (`runtime.swap_downtime_cycles`),
    /// a few hundred samples of ~16k cycles that would otherwise decide
    /// both the mean and, depending on how many ops a seed happens to
    /// have in flight at the midpoint, the p99.
    swap_acks: std::ops::Range<usize>,
    submitted: Vec<u64>,
    shed: u64,
    pkts_offered: u64,
    pkts_served: u64,
    pkts_dropped: u64,
    turns: u64,
    device_ops: u64,
    cycles: u64,
    swap_downtime_cycles: u64,
    kill: KillReport,
    lossy: LossyReport,
}

/// Host-time probes of the traced pass (all zero on the untraced one).
#[derive(Debug, Default)]
struct Probes {
    submit_ns: u64,
    turn_ns: Vec<u32>,
    reload_ns: u64,
    drain_ns: u64,
    closed_loop_ns: u64,
    kill_ns: u64,
    lossy_ns: u64,
}

fn host_op(op: &ControlOp) -> HostOp {
    let (map, key) = (op.map, op.key.clone());
    match op.kind {
        ControlOpKind::Lookup => HostOp::Lookup { map, key },
        ControlOpKind::Update => {
            HostOp::Update { map, key, value: op.value.clone(), flags: UpdateFlags::Any }
        }
        ControlOpKind::Delete => HostOp::Delete { map, key },
        ControlOpKind::Dump => HostOp::Dump { map },
    }
}

impl Serve {
    /// Generate the op schedule and the packet pool from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Serve {
        let flows = FlowSet::udp(256, seed);
        let keys: Vec<Vec<u8>> =
            flows.flows().iter().take(32).map(|f| f.to_key().to_vec()).collect();
        let n_ops = scale.of(OPS);
        let (ops, gen_s) = timed(|| {
            let mut clients = ClientWorkload::try_new(
                CLIENTS,
                simple_firewall::SESSIONS_MAP,
                keys,
                8,
                OpMix::default(),
                Popularity::Zipf { alpha: 1.2 },
                Popularity::Uniform,
                seed ^ 0x5e,
            )
            .expect("default mix is valid");
            (0..n_ops).map(|_| clients.next_op()).collect::<Vec<_>>()
        });
        let packets = Traffic::new(flows, Popularity::Uniform, 64, seed ^ 0x5f).packets(4096);
        let stock = CampaignConfig::default();
        let campaign = CampaignConfig {
            seed,
            kill_packets: scale.of(stock.kill_packets * CAMPAIGN_SCALE),
            ..stock
        };
        let lossy_rounds = scale.of(CAMPAIGN_SCALE);
        let elf = elf::write(&App::Firewall.program());
        let totals = toolchain::design_totals(&elf);
        Serve {
            elf,
            gen_ns_per_op: gen_s * 1e9 / n_ops as f64,
            ops,
            packets,
            campaign,
            lossy_rounds,
            totals,
            first: None,
        }
    }

    /// Cold set-up: program bytes to a reactor with every client connected.
    fn setup(&self) -> ((Reactor, Vec<ClientId>, PipelineDesign), f64) {
        timed(|| {
            let design = toolchain::build(&self.elf).expect("program compiles");
            let mut reactor = Reactor::new(&design, ReactorOptions::default());
            let clients = (0..CLIENTS).map(|_| reactor.connect()).collect();
            (reactor, clients, design)
        })
    }

    /// `lossy_ops` on consecutive seeds, reports summed.
    fn lossy_campaigns(&self) -> LossyReport {
        let mut total = LossyReport {
            accepted: 0,
            acked: 0,
            shed: 0,
            gave_up: 0,
            retries: 0,
            dup_suppressed: 0,
            lost_acked: 0,
        };
        for round in 0..self.lossy_rounds as u64 {
            let seed = self.campaign.seed.wrapping_add(round);
            let r = lossy_ops(&CampaignConfig { seed, ..self.campaign.clone() });
            total.accepted += r.accepted;
            total.acked += r.acked;
            total.shed += r.shed;
            total.gave_up += r.gave_up;
            total.retries += r.retries;
            total.dup_suppressed += r.dup_suppressed;
            total.lost_acked += r.lost_acked;
        }
        total
    }

    /// The timed section. With `tr` on, every call into a layer is
    /// timed into `p`; the work and its order are the same either way.
    fn run(
        &self,
        reactor: &mut Reactor,
        clients: &[ClientId],
        design: &PipelineDesign,
        tr: &mut Tracer,
        p: &mut Probes,
    ) -> Observed {
        let loop_span = tr.enter("serve.closed_loop");
        let loop_start = tr.now_ns();
        let target = self.ops.len();
        let mut acks: Vec<Ack> = Vec::with_capacity(target);
        let mut submitted = vec![0u64; CLIENTS];
        let mut outstanding = [0usize; CLIENTS];
        let (mut next, mut shed, mut turns, mut pkts_offered) = (0usize, 0u64, 0u64, 0u64);
        let mut swap_downtime_cycles = None;
        let mut swap_acks = 0..0;
        while acks.len() as u64 + shed < target as u64 {
            while let Some((c, op)) = self.ops.get(next) {
                let c = *c as usize;
                if outstanding[c] >= WINDOW {
                    break; // closed loop: this client waits for an ack
                }
                let t0 = tr.clock();
                let admitted = reactor.submit_control(clients[c], op);
                p.submit_ns += since(t0);
                match admitted {
                    Ok(ticket) => {
                        debug_assert_eq!(ticket.seq, submitted[c]);
                        submitted[c] += 1;
                        outstanding[c] += 1;
                    }
                    Err(_) => shed += 1,
                }
                next += 1;
            }
            for _ in 0..PACKETS_PER_TURN {
                let pkt = self.packets[pkts_offered as usize % self.packets.len()].clone();
                reactor.offer_packet(pkt);
                pkts_offered += 1;
            }
            let t0 = tr.clock();
            reactor.turn(TURN_CYCLES);
            if t0.is_some() {
                p.turn_ns.push(since(t0).min(u64::from(u32::MAX)) as u32);
            }
            turns += 1;
            for ack in reactor.take_acks() {
                outstanding[ack.client.index()] -= 1;
                acks.push(ack);
            }
            if swap_downtime_cycles.is_none() && acks.len() >= target / 2 {
                let (swap, ns) = tr.span("runtime.reload", || reactor.reload(design, 1_000_000));
                p.reload_ns = ns;
                let swap = swap.expect("live swap to the same design succeeds");
                swap_downtime_cycles = Some(swap.downtime_cycles);
                // The ops the swap drained out of the device waited the
                // whole downtime; keep them apart from the latency sample.
                let first = acks.len();
                for ack in reactor.take_acks() {
                    outstanding[ack.client.index()] -= 1;
                    acks.push(ack);
                }
                swap_acks = first..acks.len();
            }
        }
        let cycles = reactor.runtime_stats().total_cycles;
        p.drain_ns = tr.span("serve.drain", || reactor.drain()).1;
        acks.extend(reactor.take_acks());
        let now = tr.now_ns();
        tr.aggregate("serve.submit", next as u64, p.submit_ns, loop_start, now);
        let turn_ns = p.turn_ns.iter().map(|&t| u64::from(t)).sum();
        tr.aggregate("serve.turn", turns, turn_ns, loop_start, now);
        p.closed_loop_ns = tr.exit(loop_span);
        let stats = reactor.stats();

        let (kill, kill_ns) = tr.span("serve.kill_storm", || kill_storm(&self.campaign));
        let (lossy, lossy_ns) = tr.span("serve.lossy_ops", || self.lossy_campaigns());
        (p.kill_ns, p.lossy_ns) = (kill_ns, lossy_ns);
        Observed {
            acks,
            swap_acks,
            submitted,
            shed,
            pkts_offered,
            pkts_served: stats.pkts_served,
            pkts_dropped: stats.pkts_dropped,
            turns,
            device_ops: stats.device_ops,
            cycles,
            swap_downtime_cycles: swap_downtime_cycles.unwrap_or(0),
            kill,
            lossy,
        }
    }

    fn finish(&mut self, seen: Observed, host_s: f64) -> Unit {
        let mut digest = Digest::default();
        let mut latencies = Vec::with_capacity(seen.acks.len());
        for (i, a) in seen.acks.iter().enumerate() {
            digest.word(a.client.index() as u64);
            digest.word(a.seq);
            digest.word(a.latency_cycles);
            digest.bytes(format!("{:?}", a.result).as_bytes());
            if !seen.swap_acks.contains(&i) {
                latencies.push(a.latency_cycles);
            }
        }
        let (k, l) = (&seen.kill, &seen.lossy);
        for w in [
            seen.cycles,
            seen.turns,
            seen.device_ops,
            seen.pkts_served,
            seen.pkts_dropped,
            seen.swap_downtime_cycles,
            k.offered,
            k.completed,
            k.discarded,
            k.retried,
            l.accepted,
            l.acked,
            l.shed,
            l.retries,
            l.dup_suppressed,
            l.gave_up,
        ] {
            digest.word(w);
        }
        let acked = seen.acks.len() as u64;
        let ops_offered = self.ops.len() as u64;
        let attempted = ops_offered + seen.pkts_offered + l.accepted + l.shed;
        let failed = (ops_offered - acked.min(ops_offered))
            + (seen.pkts_offered - seen.pkts_served.min(seen.pkts_offered))
            + l.shed
            + l.lost_acked;
        let sim = Sim::new(acked, seen.cycles, &mut latencies, digest.value());
        let items = acked + l.acked;
        self.first.get_or_insert(seen);
        Unit { items, attempted, failed, host_s, sim }
    }
}

impl Workload for Serve {
    fn setup_sample(&mut self) -> f64 {
        self.setup().1
    }

    fn unit(&mut self) -> (Unit, f64) {
        let ((mut reactor, clients, design), setup_s) = self.setup();
        let (seen, host_s) = timed(|| {
            self.run(&mut reactor, &clients, &design, &mut Tracer::off(), &mut Probes::default())
        });
        (self.finish(seen, host_s), setup_s)
    }

    fn traced_unit(&mut self, tr: &mut Tracer, layers: &mut LayerSamples) -> Unit {
        let unit_span = tr.enter("unit");
        let design = layers.tools.traced(tr, "firewall", &self.elf).expect("program compiles");
        layers.tools.traced_front_end(tr, "firewall", &self.elf).expect("program verifies");
        let ((mut reactor, clients), _) = tr.span("serve.new", || {
            let mut reactor = Reactor::new(&design, ReactorOptions::default());
            let clients: Vec<ClientId> = (0..CLIENTS).map(|_| reactor.connect()).collect();
            (reactor, clients)
        });

        let mut probes = Probes::default();
        let (seen, host_s) = timed(|| {
            let span = tr.enter("serve.run");
            let seen = self.run(&mut reactor, &clients, &design, tr, &mut probes);
            tr.exit(span);
            seen
        });

        let (json, export_ns) =
            tr.span("runtime.telemetry_export", || reactor.runtime_stats().to_json());
        std::hint::black_box(json);

        // Standalone costs of the control-path building blocks, over the
        // same op schedule the reactor just served.
        let host_ops: Vec<HostOp> = self.ops.iter().map(|(_, op)| host_op(op)).collect();
        let (decoded, codec_ns) = tr.span("ctrl.frame_codec", || {
            host_ops
                .iter()
                .enumerate()
                .filter(|(seq, op)| decode_frame(&encode_frame(*seq as u64, op)).is_ok())
                .count()
        });
        assert_eq!(decoded, host_ops.len(), "every encoded frame decodes");
        let shape = MapShape { key_size: 13, value_size: 8 };
        let (device_ops, coalesce_ns) = tr.span("batch.coalesce", || {
            host_ops.chunks(TRAIN).map(|t| coalesce_ops(t, |_| Some(shape)).0.len()).sum::<usize>()
        });
        std::hint::black_box(device_ops);
        tr.exit(unit_span);

        let n_ops = self.ops.len() as f64;
        let (l, k) = (&seen.lossy, &seen.kill);
        layers.push("serve.submit_ns_per_op", probes.submit_ns as f64 / n_ops);
        layers.push("serve.turn_us_p50", f64::from(percentile(&mut probes.turn_ns, 0.50)) / 1e3);
        layers.push("serve.turn_us_p99", f64::from(percentile(&mut probes.turn_ns, 0.99)) / 1e3);
        layers.push("serve.drain_ms", probes.drain_ns as f64 / 1e6);
        layers.push("serve.phase_closed_loop_s", probes.closed_loop_ns as f64 / 1e9);
        layers.push("serve.phase_kill_storm_s", probes.kill_ns as f64 / 1e9);
        layers.push("serve.phase_lossy_ops_s", probes.lossy_ns as f64 / 1e9);
        layers.push("serve.coalesce_ratio", seen.device_ops as f64 / seen.acks.len().max(1) as f64);
        layers.push("serve.shed_frac", seen.shed as f64 / n_ops);
        layers.push("serve.acks_per_turn", seen.acks.len() as f64 / seen.turns.max(1) as f64);
        layers.push("serve.kill_availability", k.availability);
        layers.push("runtime.reload_host_ms", probes.reload_ns as f64 / 1e6);
        layers.push("runtime.telemetry_export_us", export_ns as f64 / 1e3);
        layers.push("runtime.swap_downtime_cycles", seen.swap_downtime_cycles as f64);
        layers.push("runtime.retries_per_op", l.retries as f64 / l.accepted.max(1) as f64);
        layers.push("runtime.dup_suppressed", l.dup_suppressed as f64);
        layers.push("runtime.gave_up", l.gave_up as f64);
        layers.push("ctrl.frame_codec_ns_per_op", codec_ns as f64 / n_ops);
        layers.push("batch.coalesce_ns_per_op", coalesce_ns as f64 / n_ops);
        self.finish(seen, host_s)
    }

    fn check(&mut self) -> Check {
        let seen = self.first.as_ref().expect("check runs after the first unit");
        let mut check = Check::default();
        let mut acked: Vec<Vec<u8>> =
            seen.submitted.iter().map(|&n| vec![0u8; n as usize]).collect();
        for a in &seen.acks {
            match acked[a.client.index()].get_mut(a.seq as usize) {
                Some(n) => *n = n.saturating_add(1),
                None => check
                    .expect(false, || format!("ack for unissued ticket {}/{}", a.client, a.seq)),
            }
        }
        for (c, per_client) in acked.iter().enumerate() {
            for (seq, &n) in per_client.iter().enumerate() {
                check.expect(n == 1, || format!("ticket client{c}/{seq} acked {n} times"));
            }
        }
        check.expect(seen.shed == 0, || format!("{} ops shed inside the window", seen.shed));
        check.expect(seen.pkts_offered == seen.pkts_served + seen.pkts_dropped, || {
            format!(
                "packets: offered {} != served {} + dropped {}",
                seen.pkts_offered, seen.pkts_served, seen.pkts_dropped
            )
        });
        check.expect(seen.pkts_dropped == 0, || format!("{} packets dropped", seen.pkts_dropped));
        let l = &seen.lossy;
        check.expect(l.lost_acked == 0 && l.gave_up == 0 && l.shed == 0, || {
            format!("lossy channel: lost {} gave up {} shed {}", l.lost_acked, l.gave_up, l.shed)
        });
        let k = &seen.kill;
        check.expect(k.offered == k.completed + k.discarded + k.drained_unrecovered + k.dropped, || {
            format!(
                "kill storm: offered {} != completed {} + discarded {} + unrecovered {} + dropped {}",
                k.offered, k.completed, k.discarded, k.drained_unrecovered, k.dropped
            )
        });
        check
    }

    fn design_totals(&self) -> (u64, u64) {
        self.totals
    }

    fn gen_ns_per_item(&self) -> f64 {
        self.gen_ns_per_op
    }
}
