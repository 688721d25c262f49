//! FPGA resource model (§5.2, Figure 10).
//!
//! An additive per-primitive cost model calibrated against the utilisation
//! the paper reports for the Xilinx Alveo U50 (eHDL designs, including the
//! Corundum shell, use 6.5–13.3 % of the LUTs). Absolute accuracy is not
//! the goal — a synthesis tool would be — but the model preserves the
//! *relations* Figure 10 and §5.4 demonstrate: cost grows with stage count
//! and carried state, map capacity sets BRAM, and disabling state pruning
//! inflates all three resource classes.

use crate::pipeline::PipelineDesign;

/// Absolute resource counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceEstimate {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 36 Kb block RAMs.
    pub brams: u64,
}

impl ResourceEstimate {
    /// Component-wise sum.
    pub fn plus(self, o: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            luts: self.luts + o.luts,
            ffs: self.ffs + o.ffs,
            brams: self.brams + o.brams,
        }
    }

    /// Utilisation fractions on a target device.
    pub fn utilization(&self, t: Target) -> Utilization {
        Utilization {
            luts: self.luts as f64 / t.luts as f64,
            ffs: self.ffs as f64 / t.ffs as f64,
            brams: self.brams as f64 / t.brams as f64,
        }
    }
}

/// Utilisation fractions (0.0–1.0), the unit of Figure 10's y-axes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// LUT fraction.
    pub luts: f64,
    /// Flip-flop fraction.
    pub ffs: f64,
    /// BRAM fraction.
    pub brams: f64,
}

/// A target FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Device name.
    pub name: &'static str,
    /// Total LUTs.
    pub luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// Total BRAM36 blocks.
    pub brams: u64,
}

impl Target {
    /// Xilinx Alveo U50 (XCU50: 872 K LUTs, 1 743 K FFs, 1 344 BRAM36).
    pub const ALVEO_U50: Target =
        Target { name: "Alveo U50", luts: 872_000, ffs: 1_743_000, brams: 1_344 };
}

/// Per-primitive cost constants. Calibrated so the five evaluation
/// applications land in the paper's reported utilisation bands.
pub mod cost {
    /// Corundum NIC shell (PCIe DMA, MACs, queues) — §5.2: "All the
    /// results include the Corundum resources."
    pub const SHELL_LUTS: u64 = 53_000;
    /// Shell flip-flops.
    pub const SHELL_FFS: u64 = 78_000;
    /// Shell BRAMs.
    pub const SHELL_BRAMS: u64 = 140;

    /// Stage control overhead (enable logic, valid chain).
    pub const STAGE_LUTS: u64 = 25;
    /// Stage control flip-flops.
    pub const STAGE_FFS: u64 = 12;

    /// 64-bit ALU primitive.
    pub const ALU_LUTS: u64 = 96;
    /// Wide ALU ops (mul/div/mod) cost substantially more logic.
    pub const ALU_WIDE_LUTS: u64 = 900;
    /// Branch comparison unit.
    pub const BRANCH_LUTS: u64 = 48;
    /// Load/store lane (mux into the state arrays).
    pub const LOADSTORE_LUTS: u64 = 40;
    /// Load/store lane proven in-bounds by the abstract interpreter: the
    /// bounds comparator, fault mux and drop plumbing fall away.
    pub const LOADSTORE_UNGUARDED_LUTS: u64 = 24;
    /// Byte-swap unit.
    pub const BSWAP_LUTS: u64 = 24;
    /// Generic helper block.
    pub const HELPER_LUTS: u64 = 450;
    /// Helper block flip-flops.
    pub const HELPER_FFS: u64 = 300;

    /// `eHDLmap` block logic per map (ports, hashing, host interface).
    pub const MAP_BLOCK_LUTS: u64 = 1_800;
    /// Map block flip-flops.
    pub const MAP_BLOCK_FFS: u64 = 1_100;
    /// Flush Evaluation Block per guarded write (address CAM + control).
    pub const FEB_BASE_LUTS: u64 = 120;
    /// FEB per monitored window stage.
    pub const FEB_PER_STAGE_LUTS: u64 = 36;
    /// WAR delay buffer per stage of delay (64-bit data + address).
    pub const WAR_PER_STAGE_FFS: u64 = 96;
    /// Atomic read-modify-write block.
    pub const ATOMIC_LUTS: u64 = 220;

    /// Flip-flops per carried register bit ≈ 1, but FPGAs map shift
    /// register chains into LUTs (SRLs); the blended per-bit cost.
    pub const CARRY_FF_PER_BIT: f64 = 0.9;
    /// LUT cost per carried bit (SRL share + routing muxes).
    pub const CARRY_LUT_PER_BIT: f64 = 0.18;

    /// Idle carried bits (state that is merely shifted, never touched —
    /// what an unpruned design is full of) map into SRL chains plus
    /// addressing/output registers.
    pub const IDLE_LUT_PER_BIT: f64 = 0.047;
    /// Output-register flip-flop share of SRL-mapped idle bits.
    pub const IDLE_FF_PER_BIT: f64 = 0.165;
    /// Fraction of idle *stack* bytes wide enough to spill into block RAM
    /// (the §6 "indirectly index several FPGA block RAMs" fallback).
    pub const IDLE_STACK_BRAM_FRACTION: f64 = 0.5;

    /// Bytes per BRAM36 (36 Kb ≈ 4.5 KB).
    pub const BRAM_BYTES: u64 = 4_608;

    /// Parity generator/checker XOR-tree share per protected carried byte
    /// (one parity bit per byte, 8-input XOR folds into two LUT6 levels).
    pub const PARITY_LUT_PER_BYTE: f64 = 0.45;
    /// One parity flip-flop per protected carried byte.
    pub const PARITY_FF_PER_BYTE: f64 = 1.0;
    /// Per-stage parity control (compare, error latch, replay request).
    pub const PARITY_STAGE_LUTS: u64 = 14;

    /// SECDED encode + decode/correct logic per protected map port
    /// (Hamming(72,64) matrix plus the single-bit corrector mux).
    pub const ECC_PORT_LUTS: u64 = 270;
    /// ECC port pipeline registers (syndrome + corrected word).
    pub const ECC_PORT_FFS: u64 = 80;
    /// Background scrub engine per protected map (address counter,
    /// read-correct-writeback FSM).
    pub const SCRUB_LUTS: u64 = 160;
    /// Scrub engine flip-flops.
    pub const SCRUB_FFS: u64 = 72;
    /// SECDED widens each 64-bit BRAM word by 8 check bits.
    pub const ECC_BRAM_OVERHEAD: f64 = 0.125;

    /// Pipeline watchdog (retire timer, drain sequencer, map-preserving
    /// reinit FSM).
    /// AXI-Lite control-channel slave: address decode, response mux and
    /// the host-op sequencer of the control interface (§4.4 host access).
    pub const CTRL_SLAVE_LUTS: u64 = 620;
    /// Control-channel request/response registers.
    pub const CTRL_SLAVE_FFS: u64 = 540;
    /// Per-map host port: key/value staging registers plus the arbiter
    /// muxing the host onto the map block's read port.
    pub const HOST_PORT_LUTS: u64 = 180;
    /// Per-map host port staging flops (one key + one value register).
    pub const HOST_PORT_FFS: u64 = 96;
    /// Extra arbitration when the pipeline also writes the map: the host
    /// write must win the write port and fence against in-flight effects.
    pub const HOST_PORT_WRITE_ARB_LUTS: u64 = 110;
    /// Per-CSR cost: a 32-bit counter/holding register plus its slice of
    /// the read mux.
    pub const CSR_LUTS: u64 = 14;
    /// Per-CSR register bits.
    pub const CSR_FFS: u64 = 32;

    pub const WATCHDOG_LUTS: u64 = 150;
    /// Watchdog flip-flops (timeout counter + saved availability state).
    pub const WATCHDOG_FFS: u64 = 120;
}

/// Estimate the pipeline-only resources of a design (§5.4 mode).
pub fn estimate_pipeline(design: &PipelineDesign) -> ResourceEstimate {
    use cost::*;
    let mut luts = 0u64;
    let mut ffs = 0u64;
    let mut brams = 0u64;

    // Per-stage primitive logic (§3.4 template primitives).
    for stage in &design.stages {
        luts += STAGE_LUTS;
        ffs += STAGE_FFS;
        for op in &stage.ops {
            let p = crate::primitives::Primitive::of_op(op);
            luts += p.luts();
            ffs += p.ffs();
        }
    }

    // Carried state: frames + pruned registers + pruned stack, per
    // boundary. In an unpruned design the extra (idle) state is only ever
    // shifted, so synthesis maps it into SRL chains and block RAM rather
    // than discrete registers; cost it accordingly.
    let frame_bits = (design.framing.frame_size * 8) as f64;
    let real_live = if design.prune.enabled {
        None
    } else {
        Some(crate::prune::analyze(&design.stages, &design.blocks, true))
    };
    // Narrow/constant stack slots proven by the abstract interpreter: a
    // live byte above a slot's proven width is known a priori and need
    // not be carried (constant slots rematerialize entirely). Realized by
    // the same selective wiring as pruning, so the prune-off ablation
    // carries the full slots. `narrow[w]` marks those bytes of live-stack
    // word `w` (8 slots of 8 bytes).
    let narrow: Option<[u64; 8]> =
        (design.prune.enabled && !design.stack_narrow.is_empty()).then(|| {
            std::array::from_fn(|w| {
                (0..8).fold(0u64, |mask, k| {
                    let width = design.stack_narrow.get(w * 8 + k).copied().unwrap_or(64);
                    let carried = u32::from(width.div_ceil(8));
                    mask | ((0xffu64 << carried) & 0xff) << (8 * k)
                })
            })
        });
    let mut idle_stack_bytes_total = 0u64;
    for (i, _) in design.stages.iter().enumerate() {
        let regs = design.prune.live_regs.get(i).map_or(0, |m| m.count_ones() as u64);
        let mut stack_bytes = design.prune.live_stack_bytes.get(i).copied().unwrap_or(0) as u64;
        if let (Some(narrow), Some(map)) = (&narrow, design.prune.live_stack.get(i)) {
            let saved: u32 = map.iter().zip(narrow).map(|(m, n)| (m & n).count_ones()).sum();
            stack_bytes = stack_bytes.saturating_sub(u64::from(saved));
        }
        let carried_bits = frame_bits + (regs * 64 + stack_bytes * 8) as f64;
        let (live_bits, idle_reg_bits, idle_stack_bytes) = match &real_live {
            None => (carried_bits, 0.0, 0u64),
            Some(rl) => {
                let lr = rl.live_regs.get(i).map_or(0, |m| m.count_ones() as u64);
                let ls = rl.live_stack_bytes.get(i).copied().unwrap_or(0) as u64;
                let live = frame_bits + (lr * 64 + ls * 8) as f64;
                ((live).min(carried_bits), ((regs - lr) * 64) as f64, stack_bytes - ls)
            }
        };
        ffs += (live_bits * CARRY_FF_PER_BIT) as u64;
        luts += (live_bits * CARRY_LUT_PER_BIT) as u64;
        if design.protect.parity() {
            // One parity bit per carried byte at every stage boundary.
            let bytes = live_bits / 8.0;
            luts += PARITY_STAGE_LUTS + (bytes * PARITY_LUT_PER_BYTE) as u64;
            ffs += (bytes * PARITY_FF_PER_BYTE) as u64;
        }
        let stack_bram_bytes = (idle_stack_bytes as f64 * IDLE_STACK_BRAM_FRACTION) as u64;
        let idle_srl_bits = idle_reg_bits + (idle_stack_bytes - stack_bram_bytes) as f64 * 8.0;
        ffs += (idle_srl_bits * IDLE_FF_PER_BIT) as u64;
        luts += (idle_srl_bits * IDLE_LUT_PER_BIT) as u64;
        idle_stack_bytes_total += stack_bram_bytes;
    }
    brams += idle_stack_bytes_total.div_ceil(BRAM_BYTES);
    if idle_stack_bytes_total > 0 {
        // Indirection logic for the BRAM-backed stack window.
        luts += 40 * design.stages.len() as u64;
    }
    // Bypass wiring for earlier frames.
    luts += (design.framing.max_bypass as u64) * 64;

    // Maps: logic + BRAM for keys and values, plus hazard machinery.
    for m in &design.maps {
        luts += MAP_BLOCK_LUTS;
        ffs += MAP_BLOCK_FFS;
        let mut bytes = m.value_memory_bytes() + m.key_memory_bytes();
        if design.protect.ecc() {
            // SECDED wrapper per map port plus the background scrubber;
            // check bits widen the stored words by 1/8.
            luts += ECC_PORT_LUTS + SCRUB_LUTS;
            ffs += ECC_PORT_FFS + SCRUB_FFS;
            bytes += (bytes as f64 * ECC_BRAM_OVERHEAD).ceil() as u64;
        }
        brams += bytes.div_ceil(BRAM_BYTES);
    }
    if design.protect.watchdog() {
        luts += WATCHDOG_LUTS;
        ffs += WATCHDOG_FFS;
    }
    for feb in &design.hazards.febs {
        luts += FEB_BASE_LUTS + FEB_PER_STAGE_LUTS * feb.window as u64;
    }
    for war in &design.hazards.war_buffers {
        ffs += WAR_PER_STAGE_FFS * war.delay as u64;
    }
    for _ in &design.hazards.atomic_stages {
        luts += ATOMIC_LUTS;
    }

    ResourceEstimate { luts, ffs, brams }.plus(estimate_control(design))
}

/// Estimate the host-facing control interface alone: the AXI-Lite slave,
/// one arbitrated host port per map, and the CSR file from the
/// [`crate::plan::control_inventory`]. Included in
/// [`estimate_pipeline`]; exposed separately so the Figure-10 breakdown
/// can itemize it.
pub fn estimate_control(design: &PipelineDesign) -> ResourceEstimate {
    use cost::*;
    let inv = crate::plan::control_inventory(design);
    let mut luts = CTRL_SLAVE_LUTS;
    let mut ffs = CTRL_SLAVE_FFS;
    for port in &inv.map_ports {
        luts += HOST_PORT_LUTS;
        ffs += HOST_PORT_FFS + u64::from(port.key_bits + port.value_bits);
        if port.pipeline_writes {
            luts += HOST_PORT_WRITE_ARB_LUTS;
        }
    }
    luts += CSR_LUTS * inv.csrs.len() as u64;
    ffs += CSR_FFS * inv.csrs.len() as u64;
    ResourceEstimate { luts, ffs, brams: 0 }
}

/// Estimate the full design: pipeline + Corundum shell (Figure 10 mode).
pub fn estimate_with_shell(design: &PipelineDesign) -> ResourceEstimate {
    estimate_pipeline(design).plus(ResourceEstimate {
        luts: cost::SHELL_LUTS,
        ffs: cost::SHELL_FFS,
        brams: cost::SHELL_BRAMS,
    })
}

/// Rough whole-host power draw (§5.2): the FPGA host measures 80–85 W
/// regardless of the flashed design; a BlueField-2 host draws 100–105 W.
pub fn host_power_watts(u: Utilization) -> f64 {
    80.0 + 5.0 * u.luts.min(1.0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    fn tiny_design() -> PipelineDesign {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap()
    }

    #[test]
    fn estimates_are_positive_and_additive() {
        let d = tiny_design();
        let p = estimate_pipeline(&d);
        let s = estimate_with_shell(&d);
        assert!(p.luts > 0 && p.ffs > 0);
        assert_eq!(s.luts, p.luts + cost::SHELL_LUTS);
        assert_eq!(s.brams, p.brams + cost::SHELL_BRAMS);
    }

    #[test]
    fn control_interface_is_charged() {
        let d = tiny_design();
        let c = estimate_control(&d);
        // Even a mapless design carries the control slave + CSR file.
        assert!(c.luts >= cost::CTRL_SLAVE_LUTS);
        assert!(c.ffs >= cost::CTRL_SLAVE_FFS);
        assert_eq!(c.brams, 0);
        // The pipeline estimate includes it.
        let p = estimate_pipeline(&d);
        assert!(p.luts >= c.luts);
        // A design with a pipeline-written map pays the write arbiter.
        let inv = crate::plan::control_inventory(&d);
        assert!(inv.map_ports.is_empty());
    }

    #[test]
    fn utilization_fractions() {
        let e = ResourceEstimate { luts: 87_200, ffs: 174_300, brams: 134 };
        let u = e.utilization(Target::ALVEO_U50);
        assert!((u.luts - 0.1).abs() < 1e-9);
        assert!((u.ffs - 0.1).abs() < 1e-9);
        assert!((u.brams - 134.0 / 1344.0).abs() < 1e-9);
    }

    #[test]
    fn shell_alone_is_about_six_percent() {
        let u = ResourceEstimate {
            luts: cost::SHELL_LUTS,
            ffs: cost::SHELL_FFS,
            brams: cost::SHELL_BRAMS,
        }
        .utilization(Target::ALVEO_U50);
        assert!((0.04..0.08).contains(&u.luts), "{}", u.luts);
    }

    #[test]
    fn protection_overhead_is_charged_only_when_enabled() {
        use crate::pipeline::Protection;
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, MemSize};
        let mut a = Asm::new();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(1);
        a.mov64_imm(0, 2);
        a.exit();
        let prog = Program::new(
            "prot",
            a.into_insns(),
            vec![MapDef::new(0, "m", MapKind::Hash, 4, 8, 8192)],
        );
        let mk = |p: Protection| {
            let opts = crate::compile::CompilerOptions { protect: p, ..Default::default() };
            estimate_pipeline(&Compiler::with_options(opts).compile(&prog).unwrap())
        };
        let none = mk(Protection::None);
        let parity = mk(Protection::Parity);
        let full = mk(Protection::EccWatchdog);
        // Default designs pay nothing (keeps the Figure 10 bands intact).
        assert_eq!(none, mk(Protection::None));
        // Parity adds logic + FFs but no BRAM.
        assert!(parity.luts > none.luts && parity.ffs > none.ffs);
        assert_eq!(parity.brams, none.brams);
        // ECC+watchdog adds on top of parity, including BRAM check bits.
        assert!(full.luts > parity.luts && full.ffs > parity.ffs);
        assert!(full.brams > none.brams, "SECDED check bits widen map BRAM");
    }

    #[test]
    fn power_in_reported_band() {
        let d = tiny_design();
        let w = host_power_watts(estimate_with_shell(&d).utilization(Target::ALVEO_U50));
        assert!((80.0..=85.0).contains(&w));
    }

    #[test]
    fn proven_accesses_compile_cheaper() {
        use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
        // Classic XDP bounds check: the absint pass proves the header load
        // in-bounds, so it compiles to the unguarded load lane.
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, 14);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 0, 7, 12);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let prog = Program::from_insns(a.into_insns());
        let mk = |absint: bool| {
            let opts = crate::compile::CompilerOptions { absint, ..Default::default() };
            Compiler::with_options(opts).compile(&prog).unwrap()
        };
        let on = mk(true);
        let off = mk(false);
        assert!(on.stats.proven_accesses > 0, "absint proves the header load");
        assert_eq!(off.stats.proven_accesses, 0);
        let inv = crate::primitives::inventory(&on);
        assert!(
            inv.iter().any(|(p, _)| p.name() == "load-unguarded"),
            "inventory names the unguarded lane: {inv:?}"
        );
        assert!(
            estimate_pipeline(&on).luts < estimate_pipeline(&off).luts,
            "proof removes the bounds comparator"
        );
    }
}
