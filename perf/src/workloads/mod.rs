//! The six workloads and what they share: the unit of measurement, the
//! exact simulated numbers a unit must reproduce, and the oracle check.

pub mod datapath;
pub mod nat;
pub mod serve;
pub mod shard;
pub mod zoo;

use crate::stats::{mean_u64, median, percentile};
use crate::toolchain::ToolSamples;
use crate::trace::Tracer;
use ehdl_ebpf::maps::MapStore;
use ehdl_ebpf::vm::{Vm, XdpAction};
use ehdl_hwsim::{SimOptions, SimOutcome};
use ehdl_programs::router;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Pipeline clock period in nanoseconds (250 MHz), as the shell's
/// arrival schedule uses it. The traced pass re-implements that schedule
/// and asserts it reproduces the shell's cycle count, so a change to the
/// model's clock fails loudly here rather than skewing numbers.
pub const CLOCK_NS: f64 = 4.0;

/// Frozen `bpf_ktime_get_ns` value for programs that read the clock, so
/// the sequential oracle sees the time the pipeline saw.
pub const FROZEN_TIME_NS: u64 = 1000;

/// Simulator options with the clock frozen at [`FROZEN_TIME_NS`].
pub fn frozen_clock() -> SimOptions {
    SimOptions { freeze_time_ns: Some(FROZEN_TIME_NS), ..SimOptions::default() }
}

/// The router's host-installed routes: a default route and 192.168/16
/// (where every generated flow's destination lies).
pub fn install_routes(maps: &mut MapStore) {
    router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
    router::install_route(maps, [192, 168, 0, 0], 16, 2, [0xbb; 6], [0x02; 6]);
}

/// Workload sizes: `div` divides every packet, op and round count
/// (1 = full size, 50 = `--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Size divisor.
    pub div: usize,
}

impl Scale {
    /// `n / div`, at least 1.
    pub fn of(self, n: usize) -> usize {
        (n / self.div).max(1)
    }
}

/// The simulated (exact) numbers of one unit. Every unit of a run, and
/// the traced pass, must reproduce them bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Items completed in simulation.
    pub items: u64,
    /// Simulated cycles they took.
    pub cycles: u64,
    /// Mean item latency in cycles.
    pub lat_avg: f64,
    /// Exact 99th-percentile item latency in cycles.
    pub lat_p99: u64,
    /// Digest of every output (verdicts, bytes, latencies, counters).
    pub digest: u64,
}

impl Sim {
    /// Fold per-item latencies and an output digest into the record.
    pub fn new(items: u64, cycles: u64, latencies: &mut [u64], digest: u64) -> Sim {
        Sim {
            items,
            cycles,
            lat_avg: mean_u64(latencies),
            lat_p99: percentile(latencies, 0.99),
            digest,
        }
    }
}

/// One measured unit of work: the timed section that follows a cold set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Items the timed section completed.
    pub items: u64,
    /// Items it was asked to complete.
    pub attempted: u64,
    /// Attempted items without a completed outcome.
    pub failed: u64,
    /// CPU seconds of the timed section.
    pub host_s: f64,
    /// The exact simulated numbers.
    pub sim: Sim,
}

/// Result of checking outputs against the reference VM (or, where no
/// sequential oracle exists, against the workload's invariants).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Outputs compared.
    pub checked: u64,
    /// Outputs that differ from the oracle.
    pub mismatches: u64,
    /// Reference-VM host cost per packet on the check sample (0 when the
    /// check runs no VM).
    pub vm_ns_per_pkt: f64,
    /// The first mismatch, for the error message.
    pub first: Option<String>,
}

impl Check {
    /// Count one comparison; remember the first failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches += 1;
            if self.first.is_none() {
                self.first = Some(what());
            }
        }
    }
}

/// Host-time samples of the traced pass, by layer metric.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// Toolchain (`ebpf.*`, `core.*`) samples.
    pub tools: ToolSamples,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    /// Record one sample of `metric`.
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Median of every sampled metric, plus the folded toolchain metrics.
    pub fn layers(&self) -> Layers {
        let mut out: Layers = self.samples.iter().map(|(k, v)| (*k, median(v))).collect();
        self.tools.layers(&mut out);
        out
    }
}

/// One benchmark workload. Inputs are generated once, from the seed, at
/// construction; every unit replays them on a freshly set-up device.
pub trait Workload {
    /// One cold set-up (program bytes to a ready device, then dropped);
    /// returns its CPU seconds.
    fn setup_sample(&mut self) -> f64;

    /// One untraced unit, and the CPU seconds of the cold set-up before it.
    fn unit(&mut self) -> (Unit, f64);

    /// One traced unit: the same work with a span around each call into
    /// a layer, recording per-layer samples. Must reproduce [`Unit::sim`].
    fn traced_unit(&mut self, tr: &mut Tracer, layers: &mut LayerSamples) -> Unit;

    /// Check the first unit's held-out outputs against the oracle.
    fn check(&mut self) -> Check;

    /// LUTs and flip-flops (shell included) summed over the designs the
    /// workload compiles.
    fn design_totals(&self) -> (u64, u64);

    /// Host ns the load generator spent per input item.
    fn gen_ns_per_item(&self) -> f64;
}

/// Build the workload called `name` for `seed`.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "toolchain_zoo" => Box::new(zoo::Zoo::new(seed, scale)),
        "fw_line_rate" => Box::new(datapath::Datapath::firewall(seed, scale)),
        "lb_zipf_hazard" => Box::new(datapath::Datapath::leaky_bucket(seed, scale)),
        "router_caida_sparse" => Box::new(datapath::Datapath::router(seed, scale)),
        "shard4_dnat_zipf" => Box::new(shard::Shard::new(seed, scale)),
        "serve_longhaul" => Box::new(serve::Serve::new(seed, scale)),
        _ => return None,
    })
}

/// Running 64-bit digest (multiply-xorshift over 8-byte words).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0x9e37_79b9_7f4a_7c15)
    }
}

impl Digest {
    /// Mix one word in.
    pub fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 = x ^ (x >> 29);
    }

    /// Mix a byte string in (length included).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    /// Mix one completed packet in: order, verdict, bytes and latency.
    pub fn outcome(&mut self, o: &SimOutcome) {
        self.word(o.seq);
        self.word(o.action.code());
        self.word(o.redirect_ifindex.map_or(u64::MAX, u64::from));
        self.word(o.latency_cycles);
        self.bytes(&o.packet);
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Replay `packets` through the reference VM in order and compare each
/// with the pipeline's outcome of the same `seq`: verdict, redirect
/// target, and (for forwarded packets) every byte outside `ignore`, a
/// byte range the pipeline may legitimately fill differently (empty for
/// every program but DNAT). A VM fault is a drop, as in hardware.
/// Returns the VM's host ns per packet too.
pub fn check_against_vm(
    vm: &mut Vm,
    packets: &[Vec<u8>],
    outcomes: &[SimOutcome],
    ignore: std::ops::Range<usize>,
) -> Check {
    let mut check = Check::default();
    let t0 = Instant::now();
    let mut expected = Vec::with_capacity(packets.len());
    for p in packets {
        let mut bytes = p.clone();
        match vm.run(&mut bytes, 0) {
            Ok(out) => expected.push((out.action, out.redirect_ifindex, bytes)),
            Err(_) => expected.push((XdpAction::Drop, None, p.clone())),
        }
    }
    check.vm_ns_per_pkt = t0.elapsed().as_nanos() as f64 / packets.len().max(1) as f64;
    check.expect(outcomes.len() == packets.len(), || {
        format!("{} outcomes for {} checked packets", outcomes.len(), packets.len())
    });
    let same_bytes = |a: &[u8], b: &[u8]| {
        let cut = |p: &[u8]| (ignore.start.min(p.len()), ignore.end.min(p.len()));
        let ((a0, a1), (b0, b1)) = (cut(a), cut(b));
        a[..a0] == b[..b0] && a[a1..] == b[b1..]
    };
    for (i, (out, (action, redirect, bytes))) in outcomes.iter().zip(&expected).enumerate() {
        let same = out.seq == i as u64
            && out.action == *action
            && (!action.forwards()
                || (same_bytes(&out.packet, bytes) && out.redirect_ifindex == *redirect));
        check.expect(same, || {
            format!(
                "packet {i}: vm {action} redirect {redirect:?}, pipeline seq {} {} redirect {:?}",
                out.seq, out.action, out.redirect_ifindex
            )
        });
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_length() {
        let d = |parts: &[&[u8]]| {
            let mut d = Digest::default();
            parts.iter().for_each(|p| d.bytes(p));
            d.value()
        };
        assert_eq!(d(&[b"abc", b"defghijkl"]), d(&[b"abc", b"defghijkl"]));
        assert_ne!(d(&[b"abc", b"def"]), d(&[b"def", b"abc"]));
        assert_ne!(d(&[b"abc\0"]), d(&[b"abc"]));
        assert_ne!(d(&[b"ab", b"c"]), d(&[b"abc"]));
    }

    #[test]
    fn check_remembers_the_first_failure_only() {
        let mut c = Check::default();
        c.expect(true, || unreachable!());
        c.expect(false, || "first".into());
        c.expect(false, || "second".into());
        assert_eq!((c.checked, c.mismatches, c.first.as_deref()), (3, 2, Some("first")));
    }

    #[test]
    fn scale_never_reaches_zero() {
        assert_eq!(Scale { div: 50 }.of(1_000_000), 20_000);
        assert_eq!(Scale { div: 50 }.of(7), 1);
        assert_eq!(Scale { div: 1 }.of(7), 7);
    }

    #[test]
    fn every_declared_workload_builds_and_unknown_names_do_not() {
        assert!(build("no_such_workload", 1, Scale { div: 50 }).is_none());
        for w in crate::metrics::WORKLOADS {
            assert!(build(w.name, 1, Scale { div: 1000 }).is_some(), "{}", w.name);
        }
    }
}
