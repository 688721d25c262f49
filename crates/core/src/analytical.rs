//! Analytical model of throughput degradation due to flushing
//! (Appendix A.1).
//!
//! With `L` stages between a map's read and write stage and `N` active
//! flows, the probability that a packet triggers a flush is the
//! probability that another packet of the same flow is inside the hazard
//! window. Under a uniform flow distribution this is the birthday paradox
//! (eqn. 1); under a Zipfian distribution it follows from per-flow
//! collision probabilities. Flushing `K` stages at probability `P_f`
//! yields the effective throughput of eqn. 2, and eqn. 3 inverts it into
//! the deepest flushable pipeline that still sustains a target rate.
//!
//! The abstract-interpretation pass (`ehdl_ebpf::absint`) feeds this model
//! indirectly: statically-decided branches are cut before predication, so
//! dead blocks between a map read and its write never become stages. A
//! shorter stage list moves the write closer to the read — a smaller
//! read→write window `L` lowers [`p_flush_zipf`], and a shallower write
//! stage lowers the flush depth `K` in [`throughput`]. The
//! `absint_shrinks_flush_window_worked_example` test pins this chain on a
//! concrete program.

/// Pipeline clock in Hz (250 MHz; one packet per cycle peak → 250 Mpps).
pub const CLOCK_HZ: f64 = 250e6;

/// Constant NIC-shell latency around the packet processor (MACs, async
/// FIFOs, arbitration — §4.5), added to every reported packet latency.
pub const SHELL_LATENCY_NS: f64 = 620.0;

/// Peak pipeline throughput in packets per second.
pub const PEAK_PPS: f64 = CLOCK_HZ;

/// Eqn. 1: flush probability with `n` uniformly distributed flows and a
/// hazard window of `l` stages: `1 - exp(-l² / 2n)`.
pub fn p_flush_uniform(l: usize, n: usize) -> f64 {
    if n == 0 || l == 0 {
        return 0.0;
    }
    1.0 - (-((l * l) as f64) / (2.0 * n as f64)).exp()
}

/// Terms of the Zipfian sum evaluated exactly; the tail beyond is closed
/// form. At `x ≥ 256` the first dropped Euler–Maclaurin term
/// (`g‴/720 ≲ x⁻⁵/30` of a sum that is `≈ π²/6` in the same units) is
/// below 1e-13 relative for every window a pipeline can have.
const ZIPF_HEAD: usize = 256;

/// Zipfian flush probability: `P_f = Σ_i C(L,2)·p_i²·(1-p_i)^(L-2)` with
/// `p_i = 1 / (i·ln N)`, in time independent of `n`.
///
/// The first 256 terms (`ZIPF_HEAD`) are summed as written. With `c = ln n`
/// and `m = l − 2` the summand `g(x) = (xc)⁻²·(1 − 1/(xc))^m` has the
/// elementary primitive `(1 − 1/(xc))^(m+1) / ((m+1)·c)`, so the tail
/// `Σ_{i=a}^{n} g(i)` is `∫ₐⁿ g + (g(a)+g(n))/2 + (g′(n)−g′(a))/12`
/// (Euler–Maclaurin), within 1e-9 relative of the term-by-term sum (the
/// `zipf_closed_form_matches_the_sum` test holds it to that).
pub fn p_flush_zipf(l: usize, n: usize) -> f64 {
    if n < 2 || l < 2 {
        return 0.0;
    }
    let c = (n as f64).ln();
    let m = i32::try_from(l - 2).unwrap_or(i32::MAX);
    // u = p_i = 1/(xc); g = u²(1-u)^m and g′ = −(u²/x)(1-u)^(m-1)(2 − (m+2)u).
    let g = |x: f64| {
        let u = 1.0 / (x * c);
        u * u * (1.0 - u).powi(m)
    };
    let mut sum: f64 = (1..=n.min(ZIPF_HEAD)).map(|i| g(i as f64)).sum();
    if n > ZIPF_HEAD {
        let mf = f64::from(m);
        let primitive = |x: f64| (1.0 - 1.0 / (x * c)).powi(m.saturating_add(1)) / ((mf + 1.0) * c);
        let dg = |x: f64| {
            let u = 1.0 / (x * c);
            -(u * u / x) * (1.0 - u).powi(m - 1) * (2.0 - (mf + 2.0) * u)
        };
        let (a, b) = ((ZIPF_HEAD + 1) as f64, n as f64);
        sum += primitive(b) - primitive(a) + (g(a) + g(b)) / 2.0 + (dg(b) - dg(a)) / 12.0;
    }
    let lf = l as f64;
    (lf * (lf - 1.0) / 2.0 * sum).min(1.0)
}

/// Eqn. 2: effective throughput when a flush costs `k` cycles and happens
/// with probability `pf` per packet: `T / ((1-pf) + k·pf)`.
///
/// ```
/// use ehdl_core::analytical::{p_flush_zipf, throughput, PEAK_PPS};
/// // Tunnel-like parameters: K=109, L=2, 50k Zipf flows.
/// let pf = p_flush_zipf(2, 50_000);
/// let tp = throughput(PEAK_PPS, 109, pf);
/// assert!(tp > 90e6, "still near line rate despite flushing");
/// ```
pub fn throughput(t_peak: f64, k: usize, pf: f64) -> f64 {
    t_peak / ((1.0 - pf) + k as f64 * pf)
}

/// Eqn. 3: deepest flush depth `K_max` sustaining a target throughput:
/// `(T/T_p - (1 - pf)) / pf`.
pub fn k_max(t_peak: f64, t_target: f64, pf: f64) -> f64 {
    if pf <= 0.0 {
        return f64::INFINITY;
    }
    (t_peak / t_target - (1.0 - pf)) / pf
}

/// One row of Table 3: a use case's flush parameters and predicted
/// throughput under 50 k Zipf-distributed flows.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushModelRow {
    /// Program name.
    pub program: String,
    /// `K` — stages flushed (including reload overhead), if flushes exist.
    pub k: Option<usize>,
    /// `L` — read→write window, if RAW hazards exist.
    pub l: Option<usize>,
    /// Predicted throughput in packets per second (`None` when the model
    /// predicts line-rate cannot be stated, i.e. no hazard → N/A).
    pub throughput_pps: Option<f64>,
}

/// Build a Table-3 row from a design's hazard plan.
pub fn model_design(
    name: &str,
    hazards: &crate::hazard::HazardPlan,
    n_flows: usize,
) -> FlushModelRow {
    let l = hazards.max_raw_window();
    let k = hazards.max_flush_depth();
    let tp = match (k, l) {
        (Some(k), Some(l)) => {
            let pf = p_flush_zipf(l, n_flows);
            Some(throughput(PEAK_PPS, k, pf))
        }
        _ => None,
    };
    FlushModelRow { program: name.to_string(), k, l, throughput_pps: tp }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_birthday_paradox() {
        // l=2, n=50000: 1 - exp(-4/100000) ≈ 4.0e-5.
        let p = p_flush_uniform(2, 50_000);
        assert!((p - 3.9999e-5).abs() < 1e-6, "{p}");
        assert_eq!(p_flush_uniform(0, 100), 0.0);
        assert_eq!(p_flush_uniform(10, 0), 0.0);
    }

    /// The definition, term by term: what [`p_flush_zipf`] must equal.
    fn p_flush_zipf_sum(l: usize, n: usize) -> f64 {
        if n < 2 || l < 2 {
            return 0.0;
        }
        let ln_n = (n as f64).ln();
        let lf = l as f64;
        let pairs = lf * (lf - 1.0) / 2.0;
        let pf: f64 = (1..=n)
            .map(|i| {
                let p = 1.0 / (i as f64 * ln_n);
                pairs * p * p * (1.0 - p).powf(lf - 2.0)
            })
            .sum();
        pf.min(1.0)
    }

    #[test]
    fn zipf_closed_form_matches_the_sum() {
        // Head-only sizes, the first sizes with a tail, and the model's range.
        let sizes = [3, 10, 255, 256, 257, 258, 300, 1_000, 10_000, 50_000, 100_000, 1_000_000];
        let (mut worst, mut saturated) = (0.0f64, 0usize);
        for n in sizes {
            // (Every seventh window at a million flows: the sum is the cost.)
            for l in (2..=128).step_by(if n > 100_000 { 7 } else { 1 }) {
                let (fast, exact) = (p_flush_zipf(l, n), p_flush_zipf_sum(l, n));
                assert!(exact > 0.0 && exact <= 1.0, "L={l} n={n}: {exact}");
                let rel = (fast - exact).abs() / exact;
                assert!(rel <= 1e-9, "L={l} n={n}: {fast:e} vs {exact:e} (rel {rel:e})");
                worst = worst.max(rel);
                saturated += usize::from(exact == 1.0 && fast == 1.0);
            }
        }
        assert!(worst <= 1e-12, "measured 1e-13 when written; a regression shows here: {worst:e}");
        assert!(saturated > 0, "the grid must reach the clamp at 1.0");
        for (l, n) in [(0, 50_000), (1, 50_000), (2, 0), (2, 1), (0, 0)] {
            assert_eq!(p_flush_zipf(l, n), 0.0, "L={l} n={n}");
        }
    }

    #[test]
    fn zipf_reproduces_table4() {
        // Table 4: under 50k Zipf flows, P_f ≈ 1% for L=2, 3% for L=3,
        // 6% for L=4, 10% for L=5.
        let n = 50_000;
        let cases = [(2, 0.01), (3, 0.03), (4, 0.06), (5, 0.10)];
        for (l, expect) in cases {
            let p = p_flush_zipf(l, n);
            assert!((p - expect).abs() < expect * 0.5, "L={l}: model {p:.4} vs paper {expect}");
        }
    }

    #[test]
    fn kmax_reproduces_table4() {
        // Table 4: K_max ≈ 61 / 21 / 11 / 7 for L = 2..5 at 148 Mpps.
        let n = 50_000;
        let target = 148e6;
        let expect = [(2, 61.0), (3, 21.0), (4, 11.0), (5, 7.0)];
        for (l, e) in expect {
            let pf = p_flush_zipf(l, n);
            let k = k_max(PEAK_PPS, target, pf);
            assert!((k - e).abs() / e < 0.45, "L={l}: K_max {k:.1} vs paper {e}");
        }
    }

    #[test]
    fn throughput_monotone_in_k_and_pf() {
        let t = PEAK_PPS;
        assert!(throughput(t, 10, 0.01) > throughput(t, 100, 0.01));
        assert!(throughput(t, 10, 0.01) > throughput(t, 10, 0.1));
        assert_eq!(throughput(t, 50, 0.0), t);
    }

    #[test]
    fn table3_style_rows() {
        // Tunnel: K=109, L=2 → ~120 Mpps per the paper.
        let pf = p_flush_zipf(2, 50_000);
        let tp = throughput(PEAK_PPS, 109, pf) / 1e6;
        assert!((90.0..180.0).contains(&tp), "{tp}");
        // Suricata: K=59, L=3 → ~91 Mpps.
        let pf = p_flush_zipf(3, 50_000);
        let tp = throughput(PEAK_PPS, 59, pf) / 1e6;
        assert!((60.0..140.0).contains(&tp), "{tp}");
    }

    #[test]
    fn no_hazard_gives_na() {
        let plan = crate::hazard::HazardPlan::default();
        let row = model_design("fw", &plan, 50_000);
        assert_eq!(row.k, None);
        assert_eq!(row.throughput_pps, None);
    }

    /// Worked example of the absint → stage count → flush model chain: a
    /// counter program with a block of filler work wedged between the map
    /// read and the map write, skipped by a branch. When the branch tests
    /// a constant, the value analysis decides it, the dead filler is cut
    /// before predication and never becomes stages, and the write lands
    /// closer to the read than in the same program branching on a packet
    /// byte — a smaller hazard window `L` and flush depth `K`, hence
    /// strictly higher modeled throughput at the same flow count.
    #[test]
    #[allow(clippy::unwrap_used)]
    fn absint_shrinks_flush_window_worked_example() {
        use crate::Compiler;
        use ehdl_ebpf::asm::Asm;
        use ehdl_ebpf::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
        use ehdl_ebpf::Program;

        // `packet_condition`: r3 is the packet's protocol byte instead of
        // the constant 5, so the filler may run.
        let program = |packet_condition: bool| {
            let mut a = Asm::new();
            let live = a.new_label();
            let out = a.new_label();
            a.load(MemSize::W, 6, 1, 0); // r6 = data
                                         // Key 0 at fp-8; look the counter up.
            a.mov64_imm(2, 0);
            a.store_reg(MemSize::W, 10, -8, 2);
            a.ld_map_fd(1, 0);
            a.mov64_reg(2, 10);
            a.alu64_imm(AluOp::Add, 2, -8);
            a.call(BPF_MAP_LOOKUP_ELEM);
            a.jmp_imm(JmpOp::Jeq, 0, 0, out);
            a.load(MemSize::Dw, 7, 0, 0);
            if packet_condition {
                a.load(MemSize::B, 3, 6, 23);
            } else {
                a.mov64_imm(3, 5);
            }
            a.jmp_imm(JmpOp::Jeq, 3, 5, live);
            for _ in 0..10 {
                a.alu64_imm(AluOp::Add, 7, 1); // filler work
            }
            a.bind(live);
            a.alu64_imm(AluOp::Add, 7, 1);
            a.store_reg(MemSize::Dw, 10, -16, 7);
            a.ld_map_fd(1, 0);
            a.mov64_reg(2, 10);
            a.alu64_imm(AluOp::Add, 2, -8);
            a.mov64_reg(3, 10);
            a.alu64_imm(AluOp::Add, 3, -16);
            a.mov64_imm(4, 0);
            a.call(BPF_MAP_UPDATE_ELEM);
            a.bind(out);
            a.mov64_imm(0, 2);
            a.exit();
            Program::new(
                "worked",
                a.into_insns(),
                vec![MapDef::new(0, "ctr", MapKind::Array, 4, 8, 16)],
            )
        };

        let with = Compiler::new().compile(&program(false)).unwrap();
        let without = Compiler::new().compile(&program(true)).unwrap();
        assert!(with.stats.decided_branches >= 1, "the constant branch is decided");
        assert_eq!(without.stats.decided_branches, 0, "the packet branch is not");
        assert!(
            with.stages.len() < without.stages.len(),
            "cut filler shortens the pipeline: {} vs {}",
            with.stages.len(),
            without.stages.len()
        );

        let (l_on, k_on) =
            (with.hazards.max_raw_window().unwrap(), with.hazards.max_flush_depth().unwrap());
        let (l_off, k_off) =
            (without.hazards.max_raw_window().unwrap(), without.hazards.max_flush_depth().unwrap());
        assert!(l_on < l_off, "smaller read->write window: L {l_on} vs {l_off}");
        assert!(k_on < k_off, "shallower flush: K {k_on} vs {k_off}");

        // Feed both into the Appendix A model at 50k Zipf flows. The
        // window shrink lowers the flush probability and the depth shrink
        // lowers the per-flush cost, so modeled throughput strictly rises.
        let n = 50_000;
        let tp_on = throughput(PEAK_PPS, k_on, p_flush_zipf(l_on, n));
        let tp_off = throughput(PEAK_PPS, k_off, p_flush_zipf(l_off, n));
        assert!(
            tp_on > tp_off,
            "modeled throughput must improve: {:.1} vs {:.1} Mpps",
            tp_on / 1e6,
            tp_off / 1e6
        );
    }
}
