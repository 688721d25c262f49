//! NVIDIA BlueField-2 baseline: eBPF/XDP on embedded Arm cores.
//!
//! The Bf2 redirects packets from its ConnectX-6 data plane to up to eight
//! Arm A72 cores (≤ 2.75 GHz), which run the XDP program in the regular
//! Linux driver path. The paper (Fig. 9a) measures single-core throughput
//! comparable to hXDP ("or slightly faster"), "growing linearly to over
//! 10 Mpps when using multiple cores", and ~10× higher latency than the
//! FPGA datapaths.

use crate::Profile;

/// Arm A72 core clock.
pub const CLOCK_HZ: f64 = 2.75e9;
/// Effective cycles per eBPF instruction after JIT (pipeline stalls,
/// branch misses, D-cache effects).
pub const CPI: f64 = 1.6;
/// Per-packet driver-path overhead in cycles: RX descriptor handling,
/// page-pool bookkeeping, XDP setup and verdict processing.
pub const DRIVER_OVERHEAD_CYCLES: f64 = 480.0;
/// Cycles per map helper call (hash, cache-missing memory access).
pub const HELPER_MAP_CYCLES: f64 = 90.0;
/// Multi-core scaling efficiency (cache-coherence traffic on shared maps).
pub const SCALING: f64 = 0.92;

/// Performance report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BluefieldReport {
    /// Cycles per packet on one core.
    pub cycles_per_packet: f64,
    /// Aggregate throughput in packets per second.
    pub pps: f64,
    /// Per-packet latency in nanoseconds (≈10x the FPGA paths: the packet
    /// crosses the embedded switch, PCIe-like fabric and the Linux driver).
    pub latency_ns: f64,
}

/// The BlueField-2 cost model.
#[derive(Debug, Clone)]
pub struct BluefieldModel {
    cores: usize,
}

impl BluefieldModel {
    /// Model with `cores` Arm cores engaged (1–8).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or greater than 8.
    pub fn new(cores: usize) -> BluefieldModel {
        assert!((1..=8).contains(&cores), "BlueField-2 has 8 Arm cores");
        BluefieldModel { cores }
    }

    /// Charge `profile`'s mean path: its instructions at the JIT's CPI,
    /// the driver path, and a memory round trip per helper call or atomic.
    pub fn evaluate(&self, profile: &Profile) -> BluefieldReport {
        let cycles_per_packet = profile.per_packet(profile.insns) * CPI
            + DRIVER_OVERHEAD_CYCLES
            + profile.per_packet(profile.helper_calls + profile.atomic_ops) * HELPER_MAP_CYCLES;
        let single = CLOCK_HZ / cycles_per_packet;
        let pps = single * (self.cores as f64) * if self.cores > 1 { SCALING } else { 1.0 };
        BluefieldReport {
            cycles_per_packet,
            pps,
            latency_ns: cycles_per_packet * 1e9 / CLOCK_HZ + 9_500.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_in_low_mpps() {
        let r = BluefieldModel::new(1).evaluate(&Profile::straight(42));
        assert!((1e6..8e6).contains(&r.pps), "{}", r.pps);
    }

    #[test]
    fn four_cores_scale_nearly_linearly() {
        let one = BluefieldModel::new(1).evaluate(&Profile::straight(42));
        let four = BluefieldModel::new(4).evaluate(&Profile::straight(42));
        let ratio = four.pps / one.pps;
        assert!((3.2..4.01).contains(&ratio), "{ratio}");
    }

    #[test]
    fn latency_order_of_ten_microseconds() {
        let r = BluefieldModel::new(1).evaluate(&Profile::straight(42));
        assert!((8_000.0..15_000.0).contains(&r.latency_ns), "{}", r.latency_ns);
    }

    #[test]
    #[should_panic(expected = "8 Arm cores")]
    fn too_many_cores_rejected() {
        let _ = BluefieldModel::new(9);
    }
}
