//! Reliable host-op submission over a lossy control channel.
//!
//! The hardware mailbox is a posted-write path: a frame accepted at the
//! PCIe doorbell may still be dropped, duplicated, corrupted, or delayed
//! before the device applies it — and the completion ride back is just
//! as unreliable ([`ehdl_hwsim::CtrlLossConfig`]). This module is the
//! driver-side recovery protocol that turns that channel into
//! exactly-once semantics:
//!
//! * every op is wrapped in a sequence-numbered frame
//!   ([`ehdl_hwsim::encode_frame`]); the device deduplicates on the
//!   sequence number and answers retransmissions from its applied-op
//!   cache, so a resubmitted op is *idempotent*;
//! * each outstanding op carries a per-attempt deadline; a missed
//!   deadline resubmits the identical frame with bounded exponential
//!   backoff;
//! * duplicate completions (the device answered both the original and a
//!   retransmission) are suppressed by sequence number — the first
//!   resolution wins and later copies are counted, not delivered;
//! * ops are applied *in submission order*: the channel can delay or
//!   reorder frames, so the layer keeps at most one frame on the wire
//!   and parks later ops in a FIFO until the head resolves. A retried
//!   `Delete` can therefore never leapfrog the `Update` submitted after
//!   it — retried op sequences are reference-identical to a lossless
//!   channel.

use ehdl_hwsim::{encode_frame, CtrlError, HostCompletion, HostOp, Log2Histogram, PipelineSim};
use std::collections::VecDeque;

/// Sequence numbers for reliable frames start far above the backdoor
/// op-id range, so the two completion streams can never collide.
pub const RELIABLE_SEQ_BASE: u64 = 1 << 32;

/// Cycles to wait for a completion before the first retransmission.
const RETRY_TIMEOUT_CYCLES: u64 = 64;

/// Backoff multiplier applied to the deadline after each attempt.
const RETRY_BACKOFF_FACTOR: u64 = 2;

/// Ceiling on the per-attempt deadline, in cycles.
const RETRY_MAX_BACKOFF_CYCLES: u64 = 8192;

/// Attempts (including the first) before an op is abandoned.
const RETRY_MAX_ATTEMPTS: u32 = 16;

/// Counters for the reliable layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReliableStats {
    /// Ops handed to the layer.
    pub ops: u64,
    /// Ops that resolved with a completion.
    pub completed: u64,
    /// Frame retransmissions after a missed deadline.
    pub retries: u64,
    /// Retransmissions the mailbox refused (queue full); the op stays
    /// outstanding and backs off.
    pub resubmit_rejected: u64,
    /// Completions discarded because their op had already resolved or
    /// been abandoned.
    pub dup_completions_suppressed: u64,
    /// Ops abandoned after `RETRY_MAX_ATTEMPTS` (16) attempts.
    pub gave_up: u64,
    /// Submit-to-resolve latency distribution, in cycles. A fixed-size
    /// log2-bucket histogram: long-haul serving campaigns complete
    /// millions of ops, so the per-sample `Vec` this used to be grew
    /// without bound and re-sorted on every telemetry snapshot.
    latencies: Log2Histogram,
}

impl ReliableStats {
    /// p99 of submit-to-resolve latency (0 with no completions; bucket
    /// upper edge, within 12.5% of the exact order statistic).
    pub fn p99_latency_cycles(&self) -> u64 {
        self.latencies.percentile(0.99)
    }

    /// Fixed-size projection for telemetry snapshots.
    pub fn snapshot(&self) -> ReliableSnapshot {
        ReliableSnapshot {
            ops: self.ops,
            completed: self.completed,
            retries: self.retries,
            dup_completions_suppressed: self.dup_completions_suppressed,
            gave_up: self.gave_up,
            p99_latency_cycles: self.p99_latency_cycles(),
        }
    }
}

/// Copyable summary of [`ReliableStats`] for [`crate::RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableSnapshot {
    /// Ops handed to the layer.
    pub ops: u64,
    /// Ops that resolved with a completion.
    pub completed: u64,
    /// Frame retransmissions.
    pub retries: u64,
    /// Duplicate completions suppressed.
    pub dup_completions_suppressed: u64,
    /// Ops abandoned after exhausting attempts.
    pub gave_up: u64,
    /// p99 submit-to-resolve latency in cycles.
    pub p99_latency_cycles: u64,
}

/// One op awaiting its completion.
#[derive(Debug)]
struct Outstanding {
    seq: u64,
    frame: Vec<u8>,
    first_submit: u64,
    attempts: u32,
    backoff: u64,
    deadline: u64,
}

/// Driver-side exactly-once submission state machine. Op `n` (from 0)
/// travels as sequence number `RELIABLE_SEQ_BASE + n`.
#[derive(Debug, Default)]
pub struct ReliableCtrl {
    /// The op currently on the wire (at most one, for in-order apply).
    outstanding: Option<Outstanding>,
    /// Ops waiting behind the head of line, in submission order.
    pending: VecDeque<Outstanding>,
    /// Completions of resolved ops, in sequence order.
    resolved: Vec<HostCompletion>,
    passthrough: Vec<HostCompletion>,
    stats: ReliableStats,
}

impl ReliableCtrl {
    /// Submit `op` reliably, returning its sequence number. A full
    /// mailbox is not an error here — the op stays outstanding and
    /// [`ReliableCtrl::pump`] retries it; nor is a busy head-of-line op
    /// — the op queues behind it. Only structural failures (no channel,
    /// unknown map, bad frame) surface immediately.
    ///
    /// # Errors
    ///
    /// [`CtrlError::NotAttached`], [`CtrlError::NoSuchMap`], or
    /// [`CtrlError::BadFrame`] from driver-side validation.
    pub fn submit(&mut self, sim: &mut PipelineSim, op: &HostOp) -> Result<u64, CtrlError> {
        let seq = RELIABLE_SEQ_BASE + self.stats.ops;
        let frame = encode_frame(seq, op);
        let cycle = sim.cycle();
        self.stats.ops += 1;
        let mut o = Outstanding {
            seq,
            frame,
            first_submit: cycle,
            attempts: 0,
            backoff: RETRY_TIMEOUT_CYCLES,
            deadline: cycle,
        };
        if self.outstanding.is_none() {
            self.transmit(sim, &mut o)?;
            self.outstanding = Some(o);
        } else {
            self.pending.push_back(o);
        }
        Ok(seq)
    }

    /// Put `o`'s frame on the wire: on acceptance arm the timeout, on a
    /// full mailbox leave the deadline at `now` so the next pump retries.
    fn transmit(&mut self, sim: &mut PipelineSim, o: &mut Outstanding) -> Result<(), CtrlError> {
        let cycle = sim.cycle();
        o.attempts += 1;
        match sim.submit_host_frame(&o.frame) {
            Ok(_) => {
                if o.attempts > 1 {
                    self.stats.retries += 1;
                }
                o.deadline = cycle + o.backoff;
                Ok(())
            }
            Err(CtrlError::QueueFull { .. }) => {
                if o.attempts > 1 {
                    self.stats.resubmit_rejected += 1;
                }
                o.deadline = cycle;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Collect completions, retransmit the head-of-line op if it missed
    /// its deadline, and promote the next queued op once the head
    /// resolves. Call once per simulation step (or per batch of steps)
    /// while ops are outstanding.
    pub fn pump(&mut self, sim: &mut PipelineSim) {
        let cycle = sim.cycle();
        for c in sim.host_completions() {
            if let Some(o) = self.outstanding.take_if(|o| o.seq == c.id) {
                self.stats.completed += 1;
                self.stats.latencies.record(cycle.saturating_sub(o.first_submit));
                self.resolved.push(c);
            } else if c.id >= RELIABLE_SEQ_BASE {
                // Ops go on the wire one at a time, in order, so any other
                // reliable completion answers an op that already resolved
                // or was abandoned: a duplicate, or the answer to a
                // retransmission.
                self.stats.dup_completions_suppressed += 1;
            } else {
                // Not ours (a backdoor op's completion) — hand it back.
                self.passthrough.push(c);
            }
        }
        // Retransmit a head-of-line op past its deadline (with backoff),
        // or abandon it after RETRY_MAX_ATTEMPTS.
        if let Some(mut o) = self.outstanding.take() {
            if cycle < o.deadline {
                self.outstanding = Some(o);
            } else if o.attempts >= RETRY_MAX_ATTEMPTS {
                self.stats.gave_up += 1;
            } else {
                o.backoff =
                    o.backoff.saturating_mul(RETRY_BACKOFF_FACTOR).min(RETRY_MAX_BACKOFF_CYCLES);
                if self.transmit(sim, &mut o).is_ok() {
                    self.outstanding = Some(o);
                } else {
                    self.stats.gave_up += 1;
                }
            }
        }
        // Promote the next queued op once the wire is free.
        while self.outstanding.is_none() {
            let Some(mut o) = self.pending.pop_front() else { break };
            if self.transmit(sim, &mut o).is_ok() {
                self.outstanding = Some(o);
            } else {
                self.stats.gave_up += 1;
            }
        }
    }

    /// Step the simulator until every outstanding op resolves (or is
    /// abandoned) and the pipeline is idle, bounded by `budget` cycles.
    /// Returns whether everything settled.
    pub fn drive(&mut self, sim: &mut PipelineSim, budget: u64) -> bool {
        for _ in 0..budget {
            self.pump(sim);
            if self.outstanding() == 0 && sim.is_idle() {
                return true;
            }
            sim.step();
        }
        self.pump(sim);
        self.outstanding() == 0 && sim.is_idle()
    }

    /// Ops still awaiting completion (on the wire or queued behind it).
    pub fn outstanding(&self) -> usize {
        usize::from(self.outstanding.is_some()) + self.pending.len()
    }

    /// Take every resolved completion, ordered by sequence number.
    pub fn take_resolved(&mut self) -> Vec<HostCompletion> {
        std::mem::take(&mut self.resolved)
    }

    /// Take completions that did not belong to this layer (backdoor
    /// submissions sharing the channel).
    pub fn take_passthrough(&mut self) -> Vec<HostCompletion> {
        std::mem::take(&mut self.passthrough)
    }

    /// The layer's counters.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }
}
