//! Long-haul serving campaign: the [`ehdl_serve::Reactor`] multiplexing
//! a multi-client control workload and a line-rate packet workload
//! through flow churn, a Zipf hot-key storm, a SYN flood, a live reload
//! swap, a replica kill storm, and a 10%-lossy control channel — with
//! the continuous SLO layer scoring every phase.
//!
//! The whole campaign is simulated-deterministic, so the recorded
//! `BENCH_slo.json` gates exactly: availability, tail op latency,
//! kill-storm recovery, and exactly-once delivery are regressions the
//! moment they move, not statistics.

use crate::chaos::parse_field;
use ehdl_serve::{run_campaign, CampaignConfig, CampaignReport};

/// Where the recorded baseline lives, relative to the workspace root.
pub const REPORT_PATH: &str = "BENCH_slo.json";

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

/// One phase of the recorded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPhaseRow {
    /// Phase label (`churn`, `hotkey`, `synflood`, `reload`).
    pub name: String,
    /// Requests offered during the phase (packets + ops).
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Requests failed.
    pub failed: u64,
    /// Ops refused at admission (backpressure, not failure).
    pub shed: u64,
    /// `served / offered` within the phase.
    pub availability: f64,
}

/// The campaign's whole-run summary: SLO, coalescing, kill storm, and
/// lossy-channel delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Whole-run availability across the lossless serving phases.
    pub availability: f64,
    /// Fraction of the error budget consumed at the 99.9% target.
    pub error_budget_consumed: f64,
    /// p50 / p99 / p999 op latency (admission to ack), cycles.
    pub op_p50_cycles: u64,
    /// p99 op latency.
    pub op_p99_cycles: u64,
    /// p999 op latency.
    pub op_p999_cycles: u64,
    /// p50 / p99 / p999 datapath packet latency, cycles.
    pub pkt_p50_cycles: u64,
    /// p99 packet latency.
    pub pkt_p99_cycles: u64,
    /// p999 packet latency.
    pub pkt_p999_cycles: u64,
    /// Live reload swaps completed mid-campaign.
    pub swaps: u64,
    /// Datapath downtime across those swaps, cycles.
    pub swap_downtime_cycles: u64,
    /// Client ops entering the coalescer.
    pub ops_in: u64,
    /// Device ops leaving it.
    pub ops_out: u64,
    /// Same-key updates collapsed to the last write.
    pub updates_collapsed: u64,
    /// Lookups served from a shared gather frame.
    pub lookups_shared: u64,
    /// Kill storm: packets offered / completed (incl. host retries).
    pub kill_offered: u64,
    /// Packets completed in the kill storm.
    pub kill_completed: u64,
    /// Punted frames the host re-offered after fail-over.
    pub kill_retried: u64,
    /// Punted frames still unserved after the retry pass (must be 0).
    pub kill_unrecovered: u64,
    /// Mid-pipeline discards — the kill's only unrecoverable loss.
    pub kill_discarded: u64,
    /// Request-level availability under the kill.
    pub kill_availability: f64,
    /// Watchdog detections (must be 1).
    pub kill_detected: u64,
    /// Lossy channel: ops admitted / acked.
    pub lossy_accepted: u64,
    /// Ops acked over the lossy channel.
    pub lossy_acked: u64,
    /// Ops abandoned by the reliable layer (must be 0).
    pub lossy_gave_up: u64,
    /// Frame retransmissions forced by the 10% loss.
    pub lossy_retries: u64,
    /// Duplicate completions suppressed.
    pub lossy_dup_suppressed: u64,
    /// Admitted ops that never acked (must be 0).
    pub lossy_lost_acked: u64,
}

/// Run the campaign at the recorded scale and flatten it to rows.
pub fn measure() -> (Vec<SloPhaseRow>, SloSummary) {
    summarize(&run_campaign(&CampaignConfig::default()))
}

/// Flatten a [`CampaignReport`] into the recorded row shapes.
pub fn summarize(report: &CampaignReport) -> (Vec<SloPhaseRow>, SloSummary) {
    let phases = report
        .phases
        .iter()
        .map(|p| SloPhaseRow {
            name: p.name.clone(),
            offered: p.offered,
            served: p.served,
            failed: p.failed,
            shed: p.shed,
            availability: p.availability,
        })
        .collect();
    let o = &report.overall;
    let c = &report.reactor.coalesce;
    let summary = SloSummary {
        availability: o.availability,
        error_budget_consumed: o.error_budget_consumed,
        op_p50_cycles: o.op_p50_cycles,
        op_p99_cycles: o.op_p99_cycles,
        op_p999_cycles: o.op_p999_cycles,
        pkt_p50_cycles: o.pkt_p50_cycles,
        pkt_p99_cycles: o.pkt_p99_cycles,
        pkt_p999_cycles: o.pkt_p999_cycles,
        swaps: report.swaps,
        swap_downtime_cycles: report.swap_downtime_cycles,
        ops_in: c.ops_in,
        ops_out: c.ops_out,
        updates_collapsed: c.updates_collapsed,
        lookups_shared: c.lookups_shared,
        kill_offered: report.kill.offered,
        kill_completed: report.kill.completed,
        kill_retried: report.kill.retried,
        kill_unrecovered: report.kill.drained_unrecovered,
        kill_discarded: report.kill.discarded,
        kill_availability: report.kill.availability,
        kill_detected: report.kill.detected,
        lossy_accepted: report.lossy.accepted,
        lossy_acked: report.lossy.acked,
        lossy_gave_up: report.lossy.gave_up,
        lossy_retries: report.lossy.retries,
        lossy_dup_suppressed: report.lossy.dup_suppressed,
        lossy_lost_acked: report.lossy.lost_acked,
    };
    (phases, summary)
}

/// The workspace-root path of the recorded baseline.
pub fn report_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(REPORT_PATH)
}

/// Serialize the campaign to the tracked JSON file (hand-written — no
/// serde in the tree; one entry object per line, parsed by
/// [`read_recorded`] / [`read_phase_recorded`]).
pub fn write_report(phases: &[SloPhaseRow], s: &SloSummary) -> std::io::Result<()> {
    let mut json = String::from("{\n  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let sep = if i + 1 == phases.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"offered\": {}, \"served\": {}, \"failed\": {}, \
             \"shed\": {}, \"availability\": {:.6}}}{sep}\n",
            p.name, p.offered, p.served, p.failed, p.shed, p.availability,
        ));
    }
    json.push_str("  ],\n  \"summary\":\n");
    json.push_str(&format!(
        "    {{\"availability\": {:.6}, \"error_budget_consumed\": {:.6}, \
         \"op_p50_cycles\": {}, \"op_p99_cycles\": {}, \"op_p999_cycles\": {}, \
         \"pkt_p50_cycles\": {}, \"pkt_p99_cycles\": {}, \"pkt_p999_cycles\": {}, \
         \"swaps\": {}, \"swap_downtime_cycles\": {}, \
         \"ops_in\": {}, \"ops_out\": {}, \"updates_collapsed\": {}, \"lookups_shared\": {}, \
         \"kill_offered\": {}, \"kill_completed\": {}, \"kill_retried\": {}, \
         \"kill_unrecovered\": {}, \"kill_discarded\": {}, \"kill_availability\": {:.6}, \
         \"kill_detected\": {}, \
         \"lossy_accepted\": {}, \"lossy_acked\": {}, \"lossy_gave_up\": {}, \
         \"lossy_retries\": {}, \"lossy_dup_suppressed\": {}, \"lossy_lost_acked\": {}}}\n",
        s.availability,
        s.error_budget_consumed,
        s.op_p50_cycles,
        s.op_p99_cycles,
        s.op_p999_cycles,
        s.pkt_p50_cycles,
        s.pkt_p99_cycles,
        s.pkt_p999_cycles,
        s.swaps,
        s.swap_downtime_cycles,
        s.ops_in,
        s.ops_out,
        s.updates_collapsed,
        s.lookups_shared,
        s.kill_offered,
        s.kill_completed,
        s.kill_retried,
        s.kill_unrecovered,
        s.kill_discarded,
        s.kill_availability,
        s.kill_detected,
        s.lossy_accepted,
        s.lossy_acked,
        s.lossy_gave_up,
        s.lossy_retries,
        s.lossy_dup_suppressed,
        s.lossy_lost_acked,
    ));
    json.push_str("}\n");
    std::fs::write(report_path(), json)
}

/// Read one recorded summary field. `None` (no recording yet) skips the
/// corresponding gate.
pub fn read_recorded(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let line = text.lines().find(|l| l.contains("\"kill_availability\""))?;
    parse_field(line, field)
}

/// Read one recorded field of a campaign phase by name.
pub fn read_phase_recorded(name: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let line = text.lines().find(|l| l.contains(&format!("\"name\": \"{name}\"")))?;
    parse_field(line, field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehdl_serve::CampaignConfig;

    #[test]
    fn smoke_campaign_summarizes_cleanly() {
        let report = run_campaign(&CampaignConfig {
            clients: 8,
            flows: 32,
            packets_per_phase: 120,
            ops_per_phase: 48,
            kill_packets: 1_000,
            ..Default::default()
        });
        let (phases, s) = summarize(&report);
        assert_eq!(phases.len(), 4);
        assert!(phases.iter().all(|p| p.offered > 0));
        assert!(s.availability > 0.99);
        assert!(s.ops_out <= s.ops_in);
        assert_eq!(s.kill_detected, 1);
        assert_eq!(s.lossy_gave_up, 0);
    }
}
