//! Continuous SLO accounting for the serving layer.
//!
//! The tracker is request-grained: every packet offered to the datapath
//! and every op admitted by the reactor is one request, which ends
//! *served* (an outcome or ack came back — including acks carrying a
//! typed map error, which are answers, not failures), *failed* (lost
//! with a dead replica, dropped at a full ingress, or abandoned by the
//! reliable layer), or *shed* (refused at admission — backpressure is
//! counted separately and does not burn error budget).
//!
//! Latency lives in two shared [`Log2Histogram`]s (packets and ops):
//! O(1) record, 4 KiB fixed memory each, ≤12.5% upper-edge-conservative
//! percentile error — cheap enough to leave on for a whole long-haul
//! campaign, mergeable across phases.

use ehdl_hwsim::Log2Histogram;
use ehdl_runtime::SloSnapshot;

/// SLO target the error budget is measured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Target availability (fraction of offered requests served);
    /// `1 - target` is the error budget.
    pub target_availability: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig { target_availability: 0.999 }
    }
}

/// Running SLO state: request counters, downtime, and the two latency
/// histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    cfg: SloConfig,
    pkt: Log2Histogram,
    op: Log2Histogram,
    offered: u64,
    served: u64,
    failed: u64,
    shed: u64,
    downtime_cycles: u64,
}

impl SloTracker {
    /// Empty tracker against `cfg`'s availability target.
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            cfg,
            pkt: Log2Histogram::new(),
            op: Log2Histogram::new(),
            offered: 0,
            served: 0,
            failed: 0,
            shed: 0,
            downtime_cycles: 0,
        }
    }

    /// One packet served, with its datapath latency.
    pub fn packet_served(&mut self, latency_cycles: u64) {
        self.offered += 1;
        self.served += 1;
        self.pkt.record(latency_cycles);
    }

    /// One op acked, with its admission-to-ack latency.
    pub fn op_served(&mut self, latency_cycles: u64) {
        self.offered += 1;
        self.served += 1;
        self.op.record(latency_cycles);
    }

    /// `n` requests failed (lost packets, abandoned ops).
    pub fn failed(&mut self, n: u64) {
        self.offered += n;
        self.failed += n;
    }

    /// `n` ops refused at admission.
    pub fn shed(&mut self, n: u64) {
        self.shed += n;
    }

    /// `cycles` of datapath unavailability (reload swaps, recovery
    /// windows).
    pub fn downtime(&mut self, cycles: u64) {
        self.downtime_cycles += cycles;
    }

    /// Fold `other` into `self` (campaign-phase aggregation).
    pub fn merge(&mut self, other: &SloTracker) {
        self.pkt.merge(&other.pkt);
        self.op.merge(&other.op);
        self.offered += other.offered;
        self.served += other.served;
        self.failed += other.failed;
        self.shed += other.shed;
        self.downtime_cycles += other.downtime_cycles;
    }

    /// Requests offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests failed so far.
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Ops shed at admission so far.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// `served / offered` (1.0 with nothing offered).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.served as f64 / self.offered as f64
        }
    }

    /// Fraction of the error budget the observed failures consumed
    /// (1.0 = exhausted; may exceed 1.0; infinite when the target
    /// allows zero failures but some occurred).
    pub fn error_budget_consumed(&self) -> f64 {
        let allowed = 1.0 - self.cfg.target_availability;
        let observed = 1.0 - self.availability();
        if observed <= 0.0 {
            0.0
        } else if allowed <= 0.0 {
            f64::INFINITY
        } else {
            observed / allowed
        }
    }

    /// Average burn rate over the tracked window: observed failure rate
    /// over the sustainable rate. With the whole run as the SLO window
    /// this equals [`SloTracker::error_budget_consumed`] — 1.0 means
    /// failures arrived exactly at the rate the budget sustains.
    pub fn burn_rate(&self) -> f64 {
        self.error_budget_consumed()
    }

    /// Copyable summary for [`ehdl_runtime::RuntimeStats`].
    pub fn snapshot(&self) -> SloSnapshot {
        SloSnapshot {
            offered: self.offered,
            served: self.served,
            failed: self.failed,
            shed: self.shed,
            availability: self.availability(),
            downtime_cycles: self.downtime_cycles,
            error_budget_consumed: self.error_budget_consumed(),
            burn_rate: self.burn_rate(),
            pkt_p50_cycles: self.pkt.percentile(0.50),
            pkt_p99_cycles: self.pkt.percentile(0.99),
            pkt_p999_cycles: self.pkt.percentile(0.999),
            op_p50_cycles: self.op.percentile(0.50),
            op_p99_cycles: self.op.percentile(0.99),
            op_p999_cycles: self.op.percentile(0.999),
        }
    }
}

impl Default for SloTracker {
    fn default() -> SloTracker {
        SloTracker::new(SloConfig::default())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn availability_and_budget_arithmetic() {
        let mut t = SloTracker::new(SloConfig { target_availability: 0.99 });
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.error_budget_consumed(), 0.0);
        for _ in 0..990 {
            t.packet_served(10);
        }
        t.failed(10);
        assert!((t.availability() - 0.99).abs() < 1e-9);
        // Failures at exactly the sustainable rate: budget fully burned.
        assert!((t.error_budget_consumed() - 1.0).abs() < 1e-9);
        assert!((t.burn_rate() - 1.0).abs() < 1e-9);
        let s = t.snapshot();
        assert_eq!(s.offered, 1000);
        assert_eq!(s.served, 990);
        assert_eq!(s.failed, 10);
        assert!(s.pkt_p99_cycles >= 10);
    }

    #[test]
    fn shed_does_not_burn_budget() {
        let mut t = SloTracker::default();
        t.op_served(100);
        t.shed(50);
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.error_budget_consumed(), 0.0);
        assert_eq!(t.snapshot().shed, 50);
    }

    #[test]
    fn zero_allowed_budget_with_failures_is_infinite() {
        let mut t = SloTracker::new(SloConfig { target_availability: 1.0 });
        t.packet_served(1);
        t.failed(1);
        assert!(t.error_budget_consumed().is_infinite());
    }

    #[test]
    fn merge_folds_counters_and_histograms() {
        let mut a = SloTracker::default();
        let mut b = SloTracker::default();
        a.packet_served(8);
        b.packet_served(1000);
        b.op_served(64);
        b.failed(2);
        b.downtime(77);
        a.merge(&b);
        assert_eq!(a.offered(), 5);
        assert_eq!(a.served(), 3);
        assert_eq!(a.failures(), 2);
        let s = a.snapshot();
        assert_eq!(s.downtime_cycles, 77);
        assert!(s.pkt_p99_cycles >= 1000);
        assert!(s.op_p50_cycles >= 64);
    }
}
