//! `toolchain_zoo`: the seven bundled programs taken from ELF bytes to
//! VHDL and a resource estimate, round after round. The simulator does
//! no timed work here; it only runs each generated design over a small
//! packet sample so the designs' outputs can be checked against the
//! reference VM (and so the workload has simulated numbers of its own:
//! the run time of the generated code).

use super::{
    check_against_vm, frozen_clock, install_routes, nat, Check, Digest, LayerSamples, Scale, Sim,
    Unit, Workload, FROZEN_TIME_NS,
};
use crate::clock::timed;
use crate::toolchain;
use crate::trace::Tracer;
use ehdl_ebpf::elf;
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::vm::Vm;
use ehdl_hwsim::{NicShell, ShellOptions, SimOutcome};
use ehdl_programs::{suricata, tunnel};
use ehdl_traffic::{FlowSet, Popularity, Workload as Traffic};

/// Toolchain rounds per unit at full size (7 programs each).
const ROUNDS: usize = 30;
/// Packets each generated design is run over for the output check.
const CHECK_PACKETS: usize = 2_000;
/// Flows the check packets are drawn from.
const CHECK_FLOWS: usize = 1_000;
/// How many of them get host-installed state.
const SEEDED_FLOWS: usize = 100;

/// One program of the zoo with its check sample.
#[derive(Debug)]
struct Entry {
    name: &'static str,
    elf: Vec<u8>,
    packets: Vec<Vec<u8>>,
    /// Flows the host pre-installs state for: an ACL rule each
    /// (suricata), a tunnel endpoint per destination (tunnel).
    seeded: FlowSet,
}

/// The workload.
#[derive(Debug)]
pub struct Zoo {
    entries: Vec<Entry>,
    rounds: usize,
    gen_ns_per_pkt: f64,
    totals: (u64, u64),
    /// Check-run outcomes of the first unit, per program.
    outcomes: Option<Vec<Vec<SimOutcome>>>,
}

fn shell_options() -> ShellOptions {
    ShellOptions { sim: frozen_clock(), ..ShellOptions::default() }
}

/// Host-side map state each program's check run starts from.
fn seed_maps(entry: &Entry, maps: &mut MapStore) {
    match entry.name {
        "router" => install_routes(maps),
        "tunnel" => {
            for flow in entry.seeded.flows() {
                let (local, remote) = ([172, 16, 0, 1], [172, 16, 0, 2]);
                tunnel::install_endpoint(maps, flow.daddr, local, remote, [0xaa; 6], [0xbb; 6]);
            }
        }
        "suricata" => {
            for flow in entry.seeded.flows() {
                suricata::install_rule(maps, flow);
            }
        }
        _ => {}
    }
}

impl Zoo {
    /// Build the zoo and its per-program check samples from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Zoo {
        let n = scale.of(CHECK_PACKETS);
        let (entries, gen_s) = timed(|| {
            toolchain::zoo()
                .into_iter()
                .enumerate()
                .map(|(i, (name, program))| {
                    let flows = if name == "suricata" {
                        FlowSet::tcp(CHECK_FLOWS, seed)
                    } else {
                        FlowSet::udp(CHECK_FLOWS, seed)
                    };
                    let seeded = FlowSet::from_flows(flows.flows()[..SEEDED_FLOWS].to_vec());
                    let packets =
                        Traffic::new(flows, Popularity::Uniform, 64, seed ^ (0x200 + i as u64))
                            .packets(n);
                    Entry { name, elf: elf::write(&program), packets, seeded }
                })
                .collect::<Vec<_>>()
        });
        let totals = entries.iter().fold((0, 0), |sum, e| {
            let (luts, ffs) = toolchain::design_totals(&e.elf);
            (sum.0 + luts, sum.1 + ffs)
        });
        Zoo {
            gen_ns_per_pkt: gen_s * 1e9 / (n * entries.len()) as f64,
            entries,
            rounds: scale.of(ROUNDS),
            totals,
            outcomes: None,
        }
    }

    /// Cold set-up: every program from bytes to a seeded device.
    fn setup(&self) -> (Vec<NicShell>, f64) {
        timed(|| {
            self.entries
                .iter()
                .map(|e| {
                    let design = toolchain::build(&e.elf).expect("program compiles");
                    let mut shell = NicShell::new(&design, shell_options());
                    seed_maps(e, shell.sim_mut().maps_mut());
                    shell
                })
                .collect()
        })
    }

    /// Run every generated design over its check sample; the simulated
    /// numbers of the unit are the totals over the seven runs.
    fn run_designs(&mut self, mut shells: Vec<NicShell>) -> Sim {
        let mut digest = Digest::default();
        let mut latencies = Vec::new();
        let (mut completed, mut cycles) = (0u64, 0u64);
        let mut all = Vec::with_capacity(shells.len());
        for (shell, e) in shells.iter_mut().zip(&self.entries) {
            let report = shell.run(e.packets.clone());
            completed += report.completed;
            cycles += shell.cycles();
            let outs = shell.drain();
            for o in &outs {
                digest.outcome(o);
                latencies.push(o.latency_cycles);
            }
            all.push(outs);
        }
        self.outcomes.get_or_insert(all);
        Sim::new(completed, cycles, &mut latencies, digest.value())
    }

    fn programs_per_unit(&self) -> u64 {
        (self.rounds * self.entries.len()) as u64
    }
}

impl Workload for Zoo {
    fn setup_sample(&mut self) -> f64 {
        self.setup().1
    }

    fn unit(&mut self) -> (Unit, f64) {
        let (shells, setup_s) = self.setup();
        let (failed, host_s) = timed(|| {
            let mut failed = 0u64;
            for _ in 0..self.rounds {
                for e in &self.entries {
                    let done = toolchain::build(&e.elf).and_then(|d| toolchain::emit(&d));
                    failed += u64::from(std::hint::black_box(done).is_err());
                }
            }
            failed
        });
        let attempted = self.programs_per_unit();
        let sim = self.run_designs(shells);
        (Unit { items: attempted - failed, attempted, failed, host_s, sim }, setup_s)
    }

    fn traced_unit(&mut self, tr: &mut Tracer, layers: &mut LayerSamples) -> Unit {
        let (shells, _) = self.setup();
        let unit_span = tr.enter("unit");
        let (failed, host_s) = timed(|| {
            let mut failed = 0u64;
            for _ in 0..self.rounds {
                for e in &self.entries {
                    failed += u64::from(layers.tools.traced(tr, e.name, &e.elf).is_err());
                }
            }
            failed
        });
        for e in &self.entries {
            layers.tools.traced_front_end(tr, e.name, &e.elf).expect("bundled program verifies");
        }
        tr.exit(unit_span);
        let attempted = self.programs_per_unit();
        let sim = self.run_designs(shells);
        Unit { items: attempted - failed, attempted, failed, host_s, sim }
    }

    fn check(&mut self) -> Check {
        let outcomes = self.outcomes.as_deref().expect("check runs after the first unit");
        let mut total = Check::default();
        for (e, outs) in self.entries.iter().zip(outcomes) {
            let program = elf::load(&e.elf).expect("program loads");
            let mut vm = Vm::new(&program);
            vm.set_time_ns(FROZEN_TIME_NS);
            seed_maps(e, vm.maps_mut());
            // DNAT's port numbers may differ from the VM's; the NAT
            // invariant stands in for those two bytes.
            let ignore = if e.name == "dnat" { nat::SPORT } else { 0..0 };
            let mut c = check_against_vm(&mut vm, &e.packets, outs, ignore);
            if e.name == "dnat" {
                let mut invariant = nat::NatInvariant::default();
                for (sent, out) in e.packets.iter().zip(outs) {
                    let verdict = invariant.admit(sent, out);
                    c.expect(verdict.is_ok(), || {
                        format!("packet {}: {}", out.seq, verdict.unwrap_err())
                    });
                }
            }
            total.vm_ns_per_pkt += c.vm_ns_per_pkt / self.entries.len() as f64;
            total.checked += c.checked;
            total.mismatches += c.mismatches;
            total.first = total.first.or(c.first.map(|m| format!("{}: {m}", e.name)));
        }
        total
    }

    fn design_totals(&self) -> (u64, u64) {
        self.totals
    }

    fn gen_ns_per_item(&self) -> f64 {
        self.gen_ns_per_pkt
    }
}
