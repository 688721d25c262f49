//! Host control plane for eHDL NICs.
//!
//! The paper's prototype is driven from the host like any XDP deployment:
//! the control plane installs rules, reads counters, and replaces the
//! loaded program — all while packets stream through the generated
//! pipeline at line rate. This crate models that host side on top of the
//! cycle-level simulator:
//!
//! * [`Runtime`] — owns a pipeline, its PCIe/AXI-Lite control channel,
//!   and the arrival schedule; drives interleaved packet/op workloads
//!   from [`ehdl_traffic::ctrlgen`];
//! * [`RuntimeStats`] — telemetry snapshots (per-stage occupancy,
//!   flush/fault counters, map hit rates, host-op latency) serialized
//!   through [`json`], the workspace's one JSON writer (no serde);
//! * [`Runtime::reload`] — drain-and-swap program replacement: quiesce
//!   ingress, drain the pipeline, migrate every keyspec-compatible map,
//!   switch to the new design, and report the measured downtime in
//!   cycles.
//!
//! Live map access is *barrier-ordered* (see [`ehdl_hwsim::ctrl`]): an op
//! behaves exactly as if it executed between two specific packets of a
//! sequential run, which the differential tests enforce against the
//! reference interpreter even when host writes land inside open RAW
//! hazard windows.

#![deny(clippy::unwrap_used)]

mod control;
pub mod json;
mod retry;
mod telemetry;

pub use control::{
    to_host_op, Runtime, RuntimeOptions, ScheduleReport, SwapError, SwapReport,
    RECONFIG_BASE_CYCLES, RECONFIG_CYCLES_PER_STAGE,
};
pub use retry::{ReliableCtrl, ReliableSnapshot, ReliableStats, RELIABLE_SEQ_BASE};
pub use telemetry::{MapTelemetry, RuntimeStats, SloSnapshot, StageTelemetry};
