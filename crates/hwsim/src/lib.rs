//! Cycle-level simulator for eHDL-generated hardware pipelines, plus a
//! Corundum-like NIC shell model.
//!
//! The paper prototypes generated designs on a Xilinx Alveo U50; this crate
//! is the reproduction's substitute for that FPGA. It executes a
//! [`ehdl_core::PipelineDesign`] with RTL-equivalent timing semantics:
//!
//! * one packet may occupy each stage; the whole pipeline advances every
//!   clock cycle (250 MHz), so up to `stage_count` packets are processed in
//!   parallel;
//! * stages read their *incoming* state copy and write the next stage's
//!   copy (two-phase), matching the schedule's dependence model;
//! * control flow is predication: disabled stages forward state untouched;
//! * map accesses hit shared `eHDLmap` blocks, reproducing the §4.1 data
//!   hazards — RAW hazards trigger Flush-Evaluation-Block pipeline flushes
//!   (with checkpointed side effects per App. A.2), WAR hazards engage
//!   write-delay buffers with same-packet forwarding, and atomics update
//!   map memory in place;
//! * packets are streamed in 64-byte frames, so larger packets take
//!   proportionally longer to inject — exactly the line-rate arithmetic of
//!   the testbed.
//!
//! [`diff`] provides the differential harness: one [`diff::Scenario`] —
//! one pipeline or N replicas, packets and host ops, optional coalescing,
//! injected faults — and one [`diff::check`] against the reference
//! interpreter, packet by packet, op by op and map by map.
//! [`fault`] injects deterministic, seeded faults into the modeled
//! hardware so the hardened designs' protection machinery (parity, SECDED
//! ECC, watchdog recovery) can be measured rather than asserted.
//! [`ctrl`] models the host control channel — live map access over a
//! PCIe/AXI-Lite-like path, barrier-ordered against in-flight packets.
//! [`shared`] scales one design out to N replicas behind RSS flow
//! steering, with shared maps served by a banked memory interconnect.

#![deny(clippy::unwrap_used)]

pub mod batch;
pub mod ctrl;
pub mod diff;
pub mod fault;
pub mod hist;
pub mod shared;
pub mod shell;
pub mod sim;

pub use batch::{coalesce_ops, expand_results, CoalesceStats, CoalescedOp, MapShape, OpAnswer};
pub use ctrl::{
    crc32, decode_frame, encode_frame, gather_capacity, CtrlError, CtrlLossConfig, CtrlOptions,
    CtrlStats, FrameError, HostCompletion, HostOp, HostOpResult, Rows, FRAME_HEADER_LEN,
    FRAME_MAGIC, MAX_FRAME_LEN,
};
pub use diff::{Divergence, HostEvent};
pub use fault::{
    FaultConfig, FaultEngine, FaultEvent, FaultKind, FaultOutcome, FaultSite, FaultStats,
    ReplicaFault, ReplicaFaultConfig, ReplicaFaultKind, ReplicaFaultStats,
};
pub use hist::Log2Histogram;
pub use shared::{
    check_linearizable, fabric_from_plan, map_key_hash, rss_flow_hash, CompiledSteering,
    LinearizabilityViolation, MapAccess, MapEvent, MapEventKind, ShardReport, ShardedNic,
    SharedEvent, SharedMapOptions, SharedMapStats, SharedOpCompletion, HOST_REPLICA,
};
pub use shell::{NicShell, ShellOptions, ShellReport};
pub use sim::{PipelineSim, SimCounters, SimError, SimOptions, SimOutcome};
