//! Telemetry: structured snapshots of a running pipeline, serialized to
//! JSON through [`crate::json`].

use crate::json::Json;
use crate::retry::ReliableSnapshot;
use ehdl_hwsim::{CtrlStats, SimCounters};

/// Per-stage occupancy telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTelemetry {
    /// Stage index in flow order.
    pub stage: usize,
    /// Cycles the stage held a packet.
    pub occupied_cycles: u64,
    /// `occupied_cycles / total cycles` (0 when the clock has not run).
    pub utilization: f64,
}

/// Per-map access telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MapTelemetry {
    /// Map id.
    pub id: u32,
    /// Map name.
    pub name: String,
    /// Datapath lookups issued.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl MapTelemetry {
    /// Hit fraction (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One full telemetry snapshot of a [`crate::Runtime`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Name of the loaded program.
    pub program: String,
    /// Reload epoch (number of completed swaps).
    pub epoch: u64,
    /// Cycles on the current design's clock.
    pub cycle: u64,
    /// Cycles across all designs ever loaded.
    pub total_cycles: u64,
    /// Datapath event counters.
    pub counters: SimCounters,
    /// Control-channel counters.
    pub ctrl: CtrlStats,
    /// Per-stage occupancy.
    pub stages: Vec<StageTelemetry>,
    /// Per-map access statistics.
    pub maps: Vec<MapTelemetry>,
    /// Achieved throughput in packets per second of simulated time.
    pub throughput_pps: f64,
    /// Reliable-submission statistics (`None` on a lossless channel,
    /// which bypasses the retry layer).
    pub reliability: Option<ReliableSnapshot>,
    /// Serving-level SLO accounting (`None` outside a serving reactor).
    pub slo: Option<SloSnapshot>,
}

/// Serving-level SLO figures, filled in by `ehdl-serve`'s reactor: the
/// request-grained view (how many packets/ops were served, how fast, and
/// what fraction of the error budget the failures burned) that rides
/// along with the device-grained counters above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Requests offered (packets + accepted ops).
    pub offered: u64,
    /// Requests served successfully.
    pub served: u64,
    /// Requests that failed (lost packets, errored/abandoned ops).
    pub failed: u64,
    /// Ops refused at admission (`ServeError::Overloaded`); backpressure,
    /// not failure — counted separately from the SLI.
    pub shed: u64,
    /// `served / offered` (1.0 with nothing offered).
    pub availability: f64,
    /// Cycles the datapath was unavailable (reload swaps, watchdog
    /// recovery windows).
    pub downtime_cycles: u64,
    /// Fraction of the error budget consumed (1.0 = budget exhausted;
    /// may exceed 1.0).
    pub error_budget_consumed: f64,
    /// Observed failure rate over the *unavailability* budget: 1.0 means
    /// failures arrive exactly at the sustainable rate.
    pub burn_rate: f64,
    /// p50 packet latency in cycles.
    pub pkt_p50_cycles: u64,
    /// p99 packet latency in cycles.
    pub pkt_p99_cycles: u64,
    /// p999 packet latency in cycles.
    pub pkt_p999_cycles: u64,
    /// p50 op latency (client submit to ack) in cycles.
    pub op_p50_cycles: u64,
    /// p99 op latency in cycles.
    pub op_p99_cycles: u64,
    /// p999 op latency in cycles.
    pub op_p999_cycles: u64,
}

impl RuntimeStats {
    /// Serialize the snapshot as a JSON object: one top-level member per
    /// line, each section on its own line. Program and map names come
    /// from ELF section strings and are escaped by the writer.
    pub fn to_json(&self) -> String {
        let mut j = Json::pretty();
        j.begin_obj();
        j.key("program").str(&self.program);
        j.key("epoch").uint(self.epoch);
        j.key("cycle").uint(self.cycle);
        j.key("total_cycles").uint(self.total_cycles);
        j.key("throughput_pps").fixed(self.throughput_pps, 1);
        let c = &self.counters;
        j.key("counters").begin_row();
        j.key("injected").uint(c.injected);
        j.key("completed").uint(c.completed);
        j.key("rx_dropped").uint(c.rx_dropped);
        j.key("flushes").uint(c.flushes);
        j.key("flush_replays").uint(c.flush_replays);
        j.key("bounds_faults").uint(c.bounds_faults);
        j.key("fault_replays").uint(c.fault_replays);
        j.key("watchdog_resets").uint(c.watchdog_resets);
        j.key("host_ops").uint(c.host_ops);
        j.key("host_op_flushes").uint(c.host_op_flushes);
        j.key("mem_stall_cycles").uint(c.mem_stall_cycles);
        j.end_obj();
        let k = &self.ctrl;
        j.key("ctrl").begin_row();
        j.key("submitted").uint(k.submitted);
        j.key("completed").uint(k.completed);
        j.key("failed").uint(k.failed);
        j.key("rejected").uint(k.rejected);
        j.key("flushes").uint(k.flushes);
        j.key("flushed_readers").uint(k.flushed_readers);
        j.key("mean_latency_cycles").fixed(k.mean_latency_cycles(), 2);
        j.key("max_latency_cycles").uint(k.latency_cycles_max);
        j.end_obj();
        if let Some(r) = &self.reliability {
            j.key("reliability").begin_row();
            j.key("ops").uint(r.ops);
            j.key("completed").uint(r.completed);
            j.key("retries").uint(r.retries);
            j.key("dup_completions_suppressed").uint(r.dup_completions_suppressed);
            j.key("gave_up").uint(r.gave_up);
            j.key("p99_latency_cycles").uint(r.p99_latency_cycles);
            j.end_obj();
        }
        if let Some(o) = &self.slo {
            j.key("slo").begin_row();
            j.key("offered").uint(o.offered);
            j.key("served").uint(o.served);
            j.key("failed").uint(o.failed);
            j.key("shed").uint(o.shed);
            j.key("availability").fixed(o.availability, 6);
            j.key("downtime_cycles").uint(o.downtime_cycles);
            j.key("error_budget_consumed").fixed(o.error_budget_consumed, 4);
            j.key("burn_rate").fixed(o.burn_rate, 4);
            for (name, [p50, p99, p999]) in [
                ("pkt_latency_cycles", [o.pkt_p50_cycles, o.pkt_p99_cycles, o.pkt_p999_cycles]),
                ("op_latency_cycles", [o.op_p50_cycles, o.op_p99_cycles, o.op_p999_cycles]),
            ] {
                j.key(name).begin_obj();
                j.key("p50").uint(p50).key("p99").uint(p99).key("p999").uint(p999);
                j.end_obj();
            }
            j.end_obj();
        }
        j.key("stages").begin_row_arr();
        for st in &self.stages {
            j.begin_obj();
            j.key("stage").uint(st.stage as u64);
            j.key("occupied_cycles").uint(st.occupied_cycles);
            j.key("utilization").fixed(st.utilization, 4);
            j.end_obj();
        }
        j.end_arr();
        j.key("maps").begin_row_arr();
        for m in &self.maps {
            j.begin_obj();
            j.key("id").uint(u64::from(m.id));
            j.key("name").str(&m.name);
            j.key("lookups").uint(m.lookups);
            j.key("hits").uint(m.hits);
            j.key("hit_rate").fixed(m.hit_rate(), 4);
            j.key("entries").uint(m.entries as u64);
            j.key("capacity").uint(m.capacity as u64);
            j.end_obj();
        }
        j.end_arr().end_obj();
        j.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn json_contains_every_section() {
        let stats = RuntimeStats {
            program: "fw".into(),
            epoch: 2,
            cycle: 10,
            total_cycles: 30,
            counters: SimCounters { completed: 5, ..Default::default() },
            ctrl: CtrlStats { submitted: 3, completed: 3, ..Default::default() },
            stages: vec![StageTelemetry { stage: 0, occupied_cycles: 7, utilization: 0.7 }],
            maps: vec![MapTelemetry {
                id: 0,
                name: "sessions".into(),
                lookups: 10,
                hits: 4,
                entries: 2,
                capacity: 64,
            }],
            throughput_pps: 1.0e6,
            reliability: None,
            slo: None,
        };
        let json = stats.to_json();
        for key in [
            "\"program\"",
            "\"epoch\"",
            "\"counters\"",
            "\"ctrl\"",
            "\"stages\"",
            "\"maps\"",
            "\"hit_rate\": 0.4000",
            "\"utilization\": 0.7000",
            "\"mean_latency_cycles\"",
            "\"mem_stall_cycles\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    fn full_stats() -> RuntimeStats {
        // Every optional section populated: reliability, slo.
        RuntimeStats {
            program: "fw".into(),
            epoch: 2,
            cycle: 10,
            total_cycles: 30,
            counters: SimCounters { completed: 5, ..Default::default() },
            ctrl: CtrlStats { submitted: 3, completed: 3, ..Default::default() },
            stages: vec![StageTelemetry { stage: 0, occupied_cycles: 7, utilization: 0.7 }],
            maps: vec![MapTelemetry {
                id: 0,
                name: "sessions".into(),
                lookups: 10,
                hits: 4,
                entries: 2,
                capacity: 64,
            }],
            throughput_pps: 1.0e6,
            reliability: Some(ReliableSnapshot {
                ops: 9,
                completed: 9,
                retries: 2,
                dup_completions_suppressed: 1,
                gave_up: 0,
                p99_latency_cycles: 640,
            }),
            slo: Some(SloSnapshot {
                offered: 1000,
                served: 995,
                failed: 5,
                shed: 3,
                availability: 0.995,
                downtime_cycles: 4096,
                error_budget_consumed: 0.5,
                burn_rate: 1.25,
                pkt_p50_cycles: 40,
                pkt_p99_cycles: 90,
                pkt_p999_cycles: 130,
                op_p50_cycles: 70,
                op_p99_cycles: 700,
                op_p999_cycles: 1400,
            }),
        }
    }

    #[test]
    fn every_snapshot_shape_serializes_to_valid_json() {
        // The independent parser accepts every exported shape: fully
        // populated (incl. the SLO section), each optional section
        // dropped in turn, none of them, and empty arrays.
        let mut stats = full_stats();
        validate(&stats.to_json()).expect("full shape");
        stats.slo = None;
        validate(&stats.to_json()).expect("no slo");
        stats.reliability = None;
        let bare = stats.to_json();
        validate(&bare).expect("bare shape");
        for section in ["\"reliability\"", "\"slo\""] {
            assert!(!bare.contains(section), "an absent section is omitted, not null: {bare}");
        }
        stats.stages.clear();
        stats.maps.clear();
        validate(&stats.to_json()).expect("empty arrays");
    }

    #[test]
    fn hostile_names_are_escaped() {
        // Program and map names come from ELF strings; quotes and
        // backslashes in them used to produce syntactically broken JSON.
        let mut stats = full_stats();
        stats.program = "fw\"1.0\"\\prod\n".into();
        stats.maps[0].name = "tab\tle\u{1}".into();
        let json = stats.to_json();
        validate(&json).unwrap_or_else(|e| panic!("hostile names break JSON: {e}\n{json}"));
        assert!(json.contains("fw\\\"1.0\\\"\\\\prod\\n"));
        assert!(json.contains("tab\\tle\\u0001"));
        // A name made of nothing but control characters.
        stats.program = "\u{0}\u{7}\u{1f}\r".into();
        let json = stats.to_json();
        validate(&json).unwrap_or_else(|e| panic!("control characters break JSON: {e}\n{json}"));
        assert!(json.contains("\"program\": \"\\u0000\\u0007\\u001f\\r\""));
    }
}
