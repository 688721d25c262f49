//! Comparison baselines from the eHDL evaluation (§5):
//!
//! * [`hxdp`] — the hXDP soft processor [Brunella et al., OSDI'20]: a
//!   single-core, 2-lane VLIW eBPF processor on the same FPGA, clocked at
//!   250 MHz, processing packets *one at a time*;
//! * [`bluefield`] — an NVIDIA BlueField-2 DPU running eBPF/XDP on its
//!   Arm A72 cores (up to 2.75 GHz), scaling near-linearly with cores;
//! * [`sdnet`] — the Xilinx SDNet P4 compiler: line-rate PISA-style
//!   pipelines, but unable to express data-plane writes to match-action
//!   state (which is why the paper could not implement DNAT with it).
//!
//! All three are *models*, calibrated against the numbers the paper
//! reports; they exist to reproduce the comparative shape of Figures 9–10
//! (who wins, by roughly what factor), not absolute silicon behaviour.
//! Both processors run one packet at a time and are charged per executed
//! instruction, so they are functions of one [`Profile`]: the executed
//! paths of the packets the pipeline ran, on the reference VM.

#![deny(clippy::unwrap_used)]

pub mod bluefield;
pub mod hxdp;
pub mod sdnet;

pub use bluefield::BluefieldModel;
pub use sdnet::{P4Spec, SdnetCompiler, SdnetError};

use ehdl_ebpf::vm::Outcome;

/// Executed paths of a packet stream, summed over its packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Packets folded in.
    pub packets: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Helper calls executed.
    pub helper_calls: u64,
    /// Atomic memory operations executed.
    pub atomic_ops: u64,
    /// Shortest path in instructions (0 while empty).
    pub min_insns: u64,
    /// Longest path in instructions.
    pub max_insns: u64,
}

impl Profile {
    /// Fold in one packet's execution.
    pub fn add(&mut self, out: &Outcome) {
        let insns = out.executed as u64;
        self.min_insns = if self.packets == 0 { insns } else { self.min_insns.min(insns) };
        self.max_insns = self.max_insns.max(insns);
        self.packets += 1;
        self.insns += insns;
        self.helper_calls += out.helper_calls as u64;
        self.atomic_ops += out.atomic_ops as u64;
    }

    /// `total` per packet (0 while empty); `per_packet(insns)` is the mean
    /// path both processor models charge.
    pub fn per_packet(&self, total: u64) -> f64 {
        total as f64 / self.packets.max(1) as f64
    }
}

#[cfg(test)]
impl Profile {
    /// One packet that executes `insns` instructions and no helper call.
    fn straight(insns: u64) -> Profile {
        Profile { packets: 1, insns, min_insns: insns, max_insns: insns, ..Profile::default() }
    }
}
