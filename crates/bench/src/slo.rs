//! Long-haul serving campaign: the [`ehdl_serve::Reactor`] multiplexing
//! a multi-client control workload and a line-rate packet workload
//! through flow churn, a Zipf hot-key storm, a SYN flood, a live reload
//! swap, a replica kill storm, and a 10%-lossy control channel — with
//! the continuous SLO layer scoring every phase.
//!
//! The whole campaign is simulated-deterministic, so `BENCH_slo.json`
//! is checked for equality: availability, tail op latency, kill-storm
//! recovery, and exactly-once delivery are regressions the moment they
//! move, not statistics.

use crate::record::Fields;
use ehdl_runtime::json::Json;
use ehdl_serve::{run_campaign, CampaignConfig, CampaignReport, PhaseReport};

/// Availability target of the lossless serving phases.
pub const TARGET_AVAILABILITY: f64 = 0.999;

/// Request-level availability floor under a single replica kill (with
/// the host re-offering the punted ingress FIFO).
pub const KILL_AVAILABILITY_FLOOR: f64 = 0.99;

/// Upper bound on the p999 admission-to-ack op latency, in cycles.
/// Measured at 96 on the recorded campaign (one ctrl round trip plus
/// the turn cadence); ~5x headroom so only a real scheduling or
/// batching regression trips it.
pub const OP_P999_BOUND_CYCLES: u64 = 512;

/// Run the campaign at the recorded scale.
pub fn measure() -> CampaignReport {
    run_campaign(&CampaignConfig::default())
}

impl Fields for PhaseReport {
    fn fields(&self, j: &mut Json) {
        j.key("name").str(&self.name);
        j.key("offered").uint(self.offered);
        j.key("served").uint(self.served);
        j.key("failed").uint(self.failed);
        j.key("shed").uint(self.shed);
        j.key("availability").fixed(self.availability, 6);
    }
}

/// The whole-run summary (the phases are rows of their own): SLO,
/// coalescing, kill storm, and lossy-channel delivery.
impl Fields for CampaignReport {
    fn fields(&self, j: &mut Json) {
        let o = &self.overall;
        j.key("availability").fixed(o.availability, 6);
        j.key("error_budget_consumed").fixed(o.error_budget_consumed, 6);
        j.key("op_p50_cycles").uint(o.op_p50_cycles);
        j.key("op_p99_cycles").uint(o.op_p99_cycles);
        j.key("op_p999_cycles").uint(o.op_p999_cycles);
        j.key("pkt_p50_cycles").uint(o.pkt_p50_cycles);
        j.key("pkt_p99_cycles").uint(o.pkt_p99_cycles);
        j.key("pkt_p999_cycles").uint(o.pkt_p999_cycles);
        j.key("swaps").uint(self.swaps);
        j.key("swap_downtime_cycles").uint(self.swap_downtime_cycles);
        let c = &self.reactor.coalesce;
        j.key("ops_in").uint(c.ops_in);
        j.key("ops_out").uint(c.ops_out);
        j.key("updates_collapsed").uint(c.updates_collapsed);
        j.key("lookups_shared").uint(c.lookups_shared);
        let k = &self.kill;
        j.key("kill_offered").uint(k.offered);
        j.key("kill_completed").uint(k.completed);
        j.key("kill_retried").uint(k.retried);
        j.key("kill_unrecovered").uint(k.drained_unrecovered);
        j.key("kill_discarded").uint(k.discarded);
        j.key("kill_availability").fixed(k.availability, 6);
        j.key("kill_detected").uint(k.detected);
        let l = &self.lossy;
        j.key("lossy_accepted").uint(l.accepted);
        j.key("lossy_acked").uint(l.acked);
        j.key("lossy_gave_up").uint(l.gave_up);
        j.key("lossy_retries").uint(l.retries);
        j.key("lossy_dup_suppressed").uint(l.dup_suppressed);
        j.key("lossy_lost_acked").uint(l.lost_acked);
    }
}
