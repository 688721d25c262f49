//! hXDP baseline: a 2-lane VLIW eBPF soft processor at 250 MHz.
//!
//! hXDP compiles eBPF with similar optimizations to eHDL (instruction
//! fusion, ILP extraction bounded by its two lanes) but executes packets
//! *sequentially*: one packet occupies the whole processor until its
//! program completes. The paper's comparison (Fig. 9a) finds 0.9–5.4 Mpps
//! against eHDL's 148 Mpps — the gap is exactly the pipeline parallelism.

use crate::Profile;
use ehdl_core::analytical::SHELL_LATENCY_NS;

/// hXDP core clock (same FPGA, same 250 MHz as the eHDL pipelines).
pub const CLOCK_HZ: f64 = 250e6;
/// VLIW issue width.
pub const LANES: f64 = 2.0;
/// Effective sustained IPC as a fraction of the lane bound (control
/// hazards, lane-packing inefficiency).
pub const LANE_EFFICIENCY: f64 = 0.78;
/// Fixed per-packet cycles: frame DMA in/out of packet memory,
/// program setup, verdict handling.
pub const PACKET_OVERHEAD_CYCLES: f64 = 22.0;
/// Extra cycles per map helper call (memory subsystem round trip).
pub const HELPER_MAP_CYCLES: f64 = 14.0;
/// Extra cycles per atomic memory operation.
pub const ATOMIC_CYCLES: f64 = 8.0;

/// Performance report for one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HxdpReport {
    /// Average cycles to process one packet.
    pub cycles_per_packet: f64,
    /// Sustained throughput in packets per second.
    pub pps: f64,
    /// Per-packet latency in nanoseconds (processing + NIC datapath).
    pub latency_ns: f64,
}

/// Charge `profile`'s mean path: its instructions issued over the lanes,
/// plus the per-packet overhead and the memory round trips of its helper
/// calls and atomics.
pub fn evaluate(profile: &Profile) -> HxdpReport {
    let cycles_per_packet = profile.per_packet(profile.insns) / (LANES * LANE_EFFICIENCY)
        + PACKET_OVERHEAD_CYCLES
        + profile.per_packet(profile.helper_calls) * HELPER_MAP_CYCLES
        + profile.per_packet(profile.atomic_ops) * ATOMIC_CYCLES;
    HxdpReport {
        cycles_per_packet,
        pps: CLOCK_HZ / cycles_per_packet,
        // The same NIC datapath surrounds the processor as the pipeline.
        latency_ns: cycles_per_packet * 1e9 / CLOCK_HZ + SHELL_LATENCY_NS,
    }
}

/// FPGA resources of the hXDP processor itself (program-independent: it
/// is a fixed CPU design — "the hXDP resources are the same for all use
/// cases", Fig. 10). Excludes the Corundum shell.
pub fn resources() -> ehdl_core::ResourceEstimate {
    ehdl_core::ResourceEstimate { luts: 28_500, ffs: 41_000, brams: 72 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_program_is_fast_but_sequential() {
        let r = evaluate(&Profile::straight(2));
        assert!(r.cycles_per_packet >= PACKET_OVERHEAD_CYCLES);
        assert!(r.pps < 12e6, "sequential processor stays below ~12 Mpps");
        assert!(r.pps > 1e6);
    }

    #[test]
    fn longer_programs_are_slower() {
        let (fast, slow) = (evaluate(&Profile::straight(2)), evaluate(&Profile::straight(122)));
        assert!(slow.cycles_per_packet > 2.0 * fast.cycles_per_packet);
        assert!(slow.pps < fast.pps / 2.0);
    }

    #[test]
    fn latency_close_to_a_microsecond() {
        let r = evaluate(&Profile::straight(2));
        assert!((600.0..1600.0).contains(&r.latency_ns), "{}", r.latency_ns);
    }
}
