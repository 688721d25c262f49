//! Corundum-like NIC shell model: drives a [`PipelineSim`] with an arrival
//! schedule derived from a port speed, and reports the throughput/latency
//! numbers the paper's testbed measures at the traffic generator.

use crate::hist::Log2Histogram;
use crate::sim::{PipelineSim, SimOptions, SimOutcome, CLOCK_NS};
use ehdl_core::PipelineDesign;

/// Shell configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShellOptions {
    /// Port speed in bits per second (default 100 Gbps).
    pub port_bps: f64,
    /// Offered load as a fraction of line rate (1.0 = saturation).
    pub load: f64,
    /// Simulator options passed through.
    pub sim: SimOptions,
}

impl Default for ShellOptions {
    fn default() -> ShellOptions {
        ShellOptions { port_bps: 100e9, load: 1.0, sim: SimOptions::default() }
    }
}

/// Measurement summary of one run: every count is this run's alone, not
/// the shell's running total.
#[derive(Debug, Clone)]
pub struct ShellReport {
    /// Packets offered by the generator.
    pub offered: u64,
    /// Packets that completed processing.
    pub completed: u64,
    /// Packets lost to RX overflow (the NIC could not keep up).
    pub lost: u64,
    /// Achieved throughput in packets per second.
    pub throughput_pps: f64,
    /// Mean forwarding latency in nanoseconds.
    pub avg_latency_ns: f64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_latency_ns: f64,
    /// Flush events observed.
    pub flushes: u64,
    /// Flush events per simulated second.
    pub flushes_per_sec: f64,
}

/// The NIC shell: wraps a pipeline simulator with line-rate arrivals.
///
/// ```
/// use ehdl_core::Compiler;
/// use ehdl_ebpf::asm::Asm;
/// use ehdl_ebpf::Program;
/// use ehdl_hwsim::{NicShell, ShellOptions};
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 3);
/// a.exit();
/// let design = Compiler::new().compile(&Program::from_insns(a.into_insns()))?;
/// let mut nic = NicShell::new(&design, ShellOptions::default());
/// let report = nic.run((0..1000).map(|_| vec![0u8; 64]));
/// assert_eq!(report.lost, 0); // line rate sustained
/// assert!(report.throughput_pps > 100e6);
/// # Ok::<(), ehdl_core::CompileError>(())
/// ```
#[derive(Debug)]
pub struct NicShell {
    sim: PipelineSim,
    options: ShellOptions,
    completed: Vec<SimOutcome>,
}

impl NicShell {
    /// Build a shell around `design`.
    pub fn new(design: &PipelineDesign, options: ShellOptions) -> NicShell {
        NicShell {
            sim: PipelineSim::with_options(design, options.sim),
            options,
            completed: Vec::new(),
        }
    }

    /// Access the wrapped simulator (e.g. for host map setup).
    pub fn sim_mut(&mut self) -> &mut PipelineSim {
        &mut self.sim
    }

    /// Wire time of a frame at the configured port speed, in nanoseconds
    /// (frame + 20 B preamble/IFG overhead).
    fn wire_ns(&self, len: usize) -> f64 {
        ((len + 20) * 8) as f64 / self.options.port_bps * 1e9 / self.options.load
    }

    /// Replay `packets` at line rate, settle, and report this run.
    ///
    /// The generator offers packet `i` at its wire arrival time, counted
    /// from the cycle at which this run starts; the shell enqueues it
    /// (dropping on RX overflow) and runs the pipeline clock in between.
    pub fn run<I>(&mut self, packets: I) -> ShellReport
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let start = self.sim.cycle();
        let before = *self.sim.counters();
        let mut offered = 0u64;
        let mut t_ns = 0.0f64;
        for pkt in packets {
            // Advance the pipeline clock to this packet's arrival time.
            let target_cycle = start + (t_ns / CLOCK_NS) as u64;
            while self.sim.cycle() < target_cycle {
                self.sim.step();
            }
            t_ns += self.wire_ns(pkt.len());
            offered += 1;
            self.sim.enqueue(pkt);
        }
        self.sim.settle(10_000_000);

        let mut outs = self.sim.drain();
        let c = *self.sim.counters();
        let completed = c.completed - before.completed;
        let flushes = c.flushes - before.flushes;
        // O(n) percentile accounting: one histogram pass instead of the
        // full sort this used to do. The mean stays exact (running sum);
        // p99 is the histogram's bucket upper edge, within 12.5% of the
        // sorted reference (see `shell_p99_matches_sorted_reference`).
        let mut hist = Log2Histogram::new();
        let mut latency_sum_ns = 0.0f64;
        for o in &outs {
            hist.record(o.latency_ns.max(0.0).round() as u64);
            latency_sum_ns += o.latency_ns;
        }
        let seconds = ((self.sim.cycle() - start) as f64 * CLOCK_NS / 1e9).max(1e-12);
        if self.completed.is_empty() {
            self.completed = outs;
        } else {
            self.completed.append(&mut outs);
        }
        ShellReport {
            offered,
            completed,
            lost: c.rx_dropped - before.rx_dropped,
            throughput_pps: completed as f64 / (t_ns / 1e9).max(1e-12),
            avg_latency_ns: if hist.is_empty() {
                0.0
            } else {
                latency_sum_ns / hist.count() as f64
            },
            p99_latency_ns: hist.percentile(0.99) as f64,
            flushes,
            flushes_per_sec: flushes as f64 / seconds,
        }
    }

    /// All completed outcomes from the last run that were not yet drained.
    pub fn drain(&mut self) -> Vec<SimOutcome> {
        let mut outs = std::mem::take(&mut self.completed);
        outs.extend(self.sim.drain());
        outs
    }

    /// Total pipeline cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.sim.cycle()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ehdl_core::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    fn tx_everything() -> PipelineDesign {
        let mut a = Asm::new();
        a.mov64_imm(0, 3);
        a.exit();
        Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap()
    }

    #[test]
    fn line_rate_64b_is_delivered() {
        let design = tx_everything();
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let report = shell.run((0..5000).map(|_| vec![0u8; 64]));
        assert_eq!(report.lost, 0);
        assert_eq!(report.completed, 5000);
        // 64B at 100G = 148.8 Mpps offered; pipeline peak is 250 Mpps.
        assert!((130e6..170e6).contains(&report.throughput_pps), "{}", report.throughput_pps);
    }

    #[test]
    fn latency_about_one_microsecond() {
        let design = tx_everything();
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let report = shell.run((0..1000).map(|_| vec![0u8; 64]));
        assert!((600.0..1500.0).contains(&report.avg_latency_ns), "{}", report.avg_latency_ns);
    }

    #[test]
    fn shell_p99_matches_sorted_reference() {
        // Satellite gate for the histogram swap: the O(n) log2-bucket p99
        // must stay an upper bound on the old sorted-reference computation,
        // within one bucket (12.5%). Mixed frame sizes spread the latency
        // distribution across several octaves.
        let design = tx_everything();
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let sizes = [64usize, 128, 256, 512, 1024, 1500];
        let report = shell.run((0..3000).map(|i| vec![0u8; sizes[i % sizes.len()]]));
        let outs = shell.drain();
        let mut sorted: Vec<f64> = outs.iter().map(|o| o.latency_ns).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        assert!(
            report.p99_latency_ns >= exact - 1.0,
            "histogram p99 {} below sorted reference {exact}",
            report.p99_latency_ns
        );
        assert!(
            report.p99_latency_ns <= exact * 1.125 + 1.0,
            "histogram p99 {} more than 12.5% above sorted reference {exact}",
            report.p99_latency_ns
        );
    }

    #[test]
    fn offered_load_fraction_scales_throughput() {
        let design = tx_everything();
        let mut half = NicShell::new(&design, ShellOptions { load: 0.5, ..Default::default() });
        let r = half.run((0..2000).map(|_| vec![0u8; 64]));
        assert_eq!(r.lost, 0);
        assert!(
            (60e6..90e6).contains(&r.throughput_pps),
            "half load ≈ 74 Mpps, got {}",
            r.throughput_pps
        );
    }

    #[test]
    fn large_packets_lower_pps() {
        let design = tx_everything();
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let small = shell.run((0..2000).map(|_| vec![0u8; 64]));
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let large = shell.run((0..2000).map(|_| vec![0u8; 1500]));
        assert!(large.throughput_pps < small.throughput_pps / 5.0);
        assert_eq!(large.lost, 0);
    }

    #[test]
    fn a_second_run_starts_its_wire_clock_where_the_first_ended() {
        // The first run ends thousands of cycles in. If the second run's
        // arrivals were timed from cycle 0, every one of its packets would
        // be due at once and overflow the 4,096-deep RX queue.
        let design = tx_everything();
        let mut shell = NicShell::new(&design, ShellOptions::default());
        let first = shell.run((0..5000).map(|_| vec![0u8; 64]));
        let second = shell.run((0..5000).map(|_| vec![0u8; 64]));
        assert_eq!((first.lost, first.completed), (0, 5000));
        // The report counts this run only, not the shell's running totals.
        assert_eq!((second.offered, second.lost, second.completed), (5000, 0, 5000));
        let ratio = second.throughput_pps / first.throughput_pps;
        assert!((0.99..=1.01).contains(&ratio), "{first:?} then {second:?}");
        assert_eq!(shell.drain().len(), 10_000);
    }

    // -- ingress async-FIFO edge cases --------------------------------

    fn tiny_fifo(depth: usize) -> PipelineSim {
        let design = tx_everything();
        PipelineSim::with_options(
            &design,
            SimOptions { rx_queue_depth: depth, ..Default::default() },
        )
    }

    #[test]
    fn rx_fifo_full_boundary_drops_exactly_the_overflow() {
        let mut sim = tiny_fifo(4);
        // Fill to exactly the boundary: the depth-th write is accepted,
        // the (depth+1)-th is the first loss.
        for i in 0..4 {
            assert!(sim.enqueue(vec![0u8; 64]), "write {i} within depth");
        }
        assert_eq!(sim.rx_queued(), 4);
        assert!(!sim.enqueue(vec![0u8; 64]), "write at full must be refused");
        assert_eq!(sim.counters().rx_dropped, 1);
        sim.settle(10_000);
        assert_eq!(sim.counters().completed, 4);
        assert_eq!(sim.drain().len(), 4);
    }

    #[test]
    fn rx_fifo_empty_boundary_is_idempotent() {
        let mut sim = tiny_fifo(4);
        assert_eq!(sim.rx_queued(), 0);
        // Reading (settling/draining) an empty FIFO must do nothing.
        sim.settle(1_000);
        assert!(sim.drain().is_empty());
        assert_eq!(sim.counters().completed, 0);
        // One write flips it non-empty; consuming it flips it back.
        assert!(sim.enqueue(vec![0u8; 64]));
        assert_eq!(sim.rx_queued(), 1);
        sim.settle(10_000);
        assert_eq!(sim.rx_queued(), 0);
        assert_eq!(sim.drain().len(), 1);
        assert!(sim.drain().is_empty(), "second read of drained FIFO is empty");
    }

    #[test]
    fn rx_fifo_backpressure_resolves_as_pipeline_drains() {
        let mut sim = tiny_fifo(2);
        while sim.enqueue(vec![0u8; 64]) {}
        let dropped_at_full = sim.counters().rx_dropped;
        assert_eq!(dropped_at_full, 1);
        // Drain one pipeline step at a time: as soon as the FIFO read
        // side consumes a packet, the write side must accept again.
        let mut steps = 0;
        while sim.rx_queued() == 2 {
            sim.step();
            steps += 1;
            assert!(steps < 100, "FIFO never drained");
        }
        assert!(sim.enqueue(vec![0u8; 64]), "freed slot must accept a write");
        sim.settle(10_000);
        assert_eq!(sim.counters().completed, 3);
        assert_eq!(sim.counters().rx_dropped, dropped_at_full, "paced writes lose nothing");
    }

    #[test]
    fn rx_fifo_backpressure_while_host_ops_pending() {
        use crate::ctrl::{CtrlOptions, HostOp};
        use ehdl_core::Compiler;
        use ehdl_ebpf::helpers::BPF_MAP_LOOKUP_ELEM;
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, MemSize};

        // A map-reading program so host ops have a real target.
        let mut a = Asm::new();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::B, 2, 7, 0);
        a.store_reg(MemSize::W, 10, -8, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.mov64_imm(0, 2);
        a.exit();
        let program =
            Program::new("lk", a.into_insns(), vec![MapDef::new(0, "t", MapKind::Hash, 4, 8, 16)]);
        let design = Compiler::new().compile(&program).unwrap();
        let mut sim = PipelineSim::with_options(
            &design,
            SimOptions { rx_queue_depth: 2, ..Default::default() },
        );
        sim.attach_ctrl(CtrlOptions { latency_cycles: 4, queue_depth: 4 });
        while sim.enqueue(vec![0u8; 64]) {}
        sim.submit_host_op(HostOp::Dump { map: 0 }).unwrap();
        // The queued op must not wedge the FIFO drain: settle clears
        // packets AND the op.
        sim.settle(100_000);
        assert_eq!(sim.rx_queued(), 0);
        assert_eq!(sim.host_ops_pending(), 0);
        assert_eq!(sim.host_completions().len(), 1);
        assert_eq!(sim.counters().completed, 2);
    }
}
