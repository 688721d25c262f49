//! Host control channel: the PCIe/AXI-Lite path through which the host
//! reaches the pipeline's maps while packets are in flight (§4.5).
//!
//! The channel models a memory-mapped slave with a configurable one-way
//! latency and a bounded command queue. Ops are *barrier-ordered*: an op
//! submitted when the next arrival sequence number is `B` behaves exactly
//! as if it executed between packet `B-1` and packet `B` of a sequential
//! reference run. The simulator enforces this with three mechanisms
//! (implemented in [`crate::sim`]):
//!
//! 1. **Fence** — the op waits until every packet older than `B` has
//!    drained past the last pipeline stage touching the target map (and
//!    none of its WAR-delayed writes are still buffered).
//! 2. **Reservation** — while the op is queued, younger packets stall at
//!    any stage that would *irreversibly* write the target map (helper
//!    writes, value stores, atomics), and at the retirement boundary if
//!    they hold a read the op is about to invalidate.
//! 3. **Flush** — a host update/delete that lands while younger packets
//!    hold unconfirmed reads of the same key triggers the very same
//!    flush/replay machinery a pipeline RAW hazard uses, rolling the
//!    readers back past their stale read.

use ehdl_ebpf::maps::{Map, MapError, MapStore, UpdateFlags};
use ehdl_rng::Rng;
use std::collections::{BTreeMap, VecDeque};

/// A host-side map operation submitted over the control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOp {
    /// Read the value under `key` (None when absent).
    Lookup {
        /// Target map id.
        map: u32,
        /// Key bytes (must match the map's key size).
        key: Vec<u8>,
    },
    /// Insert or replace the value under `key`.
    Update {
        /// Target map id.
        map: u32,
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes (must match the map's value size).
        value: Vec<u8>,
        /// BPF update flags (`Any` / `NoExist` / `Exist`).
        flags: UpdateFlags,
    },
    /// Remove the entry under `key`.
    Delete {
        /// Target map id.
        map: u32,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Batch-read every live entry (slot order).
    Dump {
        /// Target map id.
        map: u32,
    },
    /// Read the values under `keys` against one map state, in key order:
    /// `keys.len()` lookups in one frame and one queue slot. What a run
    /// of client lookups is coalesced into ([`crate::batch`]).
    Gather {
        /// Target map id.
        map: u32,
        /// Keys to read, each of the map's key size; a key of the wrong
        /// size fails the whole gather, any other per-key error (an array
        /// index out of range) only that key's answer. One frame carries
        /// at most [`gather_capacity`] of them.
        keys: Vec<Vec<u8>>,
    },
}

impl HostOp {
    /// The map this op targets.
    pub fn map(&self) -> u32 {
        match self {
            HostOp::Lookup { map, .. }
            | HostOp::Update { map, .. }
            | HostOp::Delete { map, .. }
            | HostOp::Dump { map }
            | HostOp::Gather { map, .. } => *map,
        }
    }

    /// The key this op targets, when it has one.
    pub fn key(&self) -> Option<&[u8]> {
        match self {
            HostOp::Lookup { key, .. }
            | HostOp::Update { key, .. }
            | HostOp::Delete { key, .. } => Some(key),
            HostOp::Dump { .. } | HostOp::Gather { .. } => None,
        }
    }

    /// Does this op mutate the map (and thus arbitrate against the FEB
    /// machinery)?
    pub fn mutates(&self) -> bool {
        matches!(self, HostOp::Update { .. } | HostOp::Delete { .. })
    }

    /// What this op does to `maps`: the one definition of a host op's
    /// effect and result, shared by the pipeline's control channel, the
    /// sharded NIC's canonical store and the sequential reference.
    ///
    /// # Panics
    ///
    /// Panics if the op targets a map `maps` does not hold (the channels
    /// validate map ids at submission).
    pub fn apply(&self, maps: &mut MapStore) -> Result<HostOpResult, MapError> {
        let m = maps.get_mut(self.map()).expect("host op targets a known map");
        match self {
            HostOp::Lookup { key, .. } => read_value(m, key).map(HostOpResult::Value),
            HostOp::Update { key, value, flags, .. } => {
                m.update(key, value, *flags).map(|_| HostOpResult::Updated)
            }
            HostOp::Delete { key, .. } => m.delete(key).map(|()| HostOpResult::Deleted),
            HostOp::Dump { .. } => Ok(HostOpResult::Entries(Rows::of(m))),
            // A key of the wrong size makes the op itself malformed and
            // fails it before any key is read (an LRU map is not touched).
            HostOp::Gather { keys, .. } => {
                let expected = m.def().key_size;
                if let Some(bad) = keys.iter().find(|k| k.len() != expected as usize) {
                    return Err(MapError::BadKeySize { expected, got: bad.len() });
                }
                Ok(HostOpResult::Values(keys.iter().map(|k| read_value(m, k)).collect()))
            }
        }
    }
}

/// Successful result payload of a host op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOpResult {
    /// Lookup result: the value bytes, or `None` for a miss.
    Value(Option<Vec<u8>>),
    /// Update applied.
    Updated,
    /// Delete applied.
    Deleted,
    /// Dump result: every live `(key, value)` row, in slot order.
    Entries(Rows),
    /// Gather result: per key, in key order, what a `Lookup` of that key
    /// returns — the value, `None` for a miss, or that key's own error.
    Values(Vec<Result<Option<Vec<u8>>, MapError>>),
}

/// The rows of a dump, in the map's own shape: all keys back to back in one
/// buffer, all values in another. Built in one walk over the map and moved,
/// never copied, from the device to the client's ack. Prints (`Debug`)
/// exactly as the list of `(key, value)` pairs it holds.
#[derive(Clone, PartialEq, Eq)]
pub struct Rows {
    key_size: usize,
    value_size: usize,
    len: usize,
    keys: Vec<u8>,
    values: Vec<u8>,
}

impl Rows {
    /// No rows yet, each to hold a `key_size`-byte key and a
    /// `value_size`-byte value.
    pub(crate) fn new(key_size: usize, value_size: usize) -> Rows {
        Rows { key_size, value_size, len: 0, keys: Vec::new(), values: Vec::new() }
    }

    /// Every live entry of `m`, in slot order: two allocations whatever
    /// the table holds.
    fn of(m: &Map) -> Rows {
        let (key_size, value_size) = (m.key_width(), m.def().value_size as usize);
        let mut rows = Rows {
            keys: Vec::with_capacity(m.len() * key_size),
            values: Vec::with_capacity(m.len() * value_size),
            ..Rows::new(key_size, value_size)
        };
        for (_, key, value) in m.iter() {
            rows.push(key, value);
        }
        rows
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `value` is not of the rows' size.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) {
        assert!(key.len() == self.key_size && value.len() == self.value_size, "row of wrong size");
        self.keys.extend_from_slice(key);
        self.values.extend_from_slice(value);
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(key, value)` rows, in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> + '_ {
        let (k, v) = (self.key_size, self.value_size);
        (0..self.len).map(move |i| (&self.keys[i * k..][..k], &self.values[i * v..][..v]))
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The value under `key`, copied out: the body of a [`HostOp::Lookup`] and
/// of each key of a [`HostOp::Gather`].
fn read_value(m: &mut Map, key: &[u8]) -> Result<Option<Vec<u8>>, MapError> {
    Ok(m.lookup(key)?.map(|slot| m.value(slot).to_vec()))
}

/// A retired host op with its timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostCompletion {
    /// Submission id (monotonic per channel).
    pub id: u64,
    /// Target map id.
    pub map: u32,
    /// Outcome: payload or the typed map error the hardware raised.
    pub result: Result<HostOpResult, MapError>,
    /// Cycle the op was submitted.
    pub issued_cycle: u64,
    /// Cycle the op actually touched the map (post-latency, post-fence).
    pub applied_cycle: u64,
    /// In-flight packets rolled back because they held a stale read of
    /// the op's key (0 for reads and for writes landing outside any RAW
    /// window).
    pub flushed_readers: u64,
}

/// Control-channel configuration.
#[derive(Debug, Clone, Copy)]
pub struct CtrlOptions {
    /// One-way host→NIC command latency in pipeline cycles (PCIe round
    /// trips are hundreds of cycles at 250 MHz; the default models a
    /// posted write through a shallow mailbox).
    pub latency_cycles: u64,
    /// Command queue depth; submissions beyond it are rejected.
    pub queue_depth: usize,
}

impl Default for CtrlOptions {
    fn default() -> CtrlOptions {
        CtrlOptions { latency_cycles: 64, queue_depth: 64 }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlError {
    /// No control channel attached to the simulator.
    NotAttached,
    /// The command queue is at capacity.
    QueueFull {
        /// Configured depth.
        depth: usize,
    },
    /// The design has no map with this id.
    NoSuchMap {
        /// Offending id.
        map: u32,
    },
    /// The submitted wire frame does not decode (driver-side validation;
    /// a frame this mangled never reaches the DMA engine).
    BadFrame(FrameError),
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::NotAttached => write!(f, "no control channel attached"),
            CtrlError::QueueFull { depth } => {
                write!(f, "control command queue full ({depth} ops)")
            }
            CtrlError::NoSuchMap { map } => write!(f, "no map with id {map}"),
            CtrlError::BadFrame(e) => write!(f, "malformed control frame: {e}"),
        }
    }
}

impl std::error::Error for CtrlError {}

/// Control-channel event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Ops accepted into the queue.
    pub submitted: u64,
    /// Ops applied with an `Ok` result.
    pub completed: u64,
    /// Ops applied with a `MapError` result.
    pub failed: u64,
    /// Submissions refused (queue full / unknown map).
    pub rejected: u64,
    /// Host writes that landed inside an open RAW window and triggered a
    /// pipeline flush.
    pub flushes: u64,
    /// In-flight packets rolled back by those flushes.
    pub flushed_readers: u64,
    /// Sum of submit→apply latencies over all applied ops, in cycles.
    pub latency_cycles_total: u64,
    /// Worst-case submit→apply latency, in cycles.
    pub latency_cycles_max: u64,
    /// Request frames lost in transit (accepted, never delivered).
    pub req_dropped: u64,
    /// Request frames delivered twice by the link.
    pub req_duplicated: u64,
    /// Request frames mangled in transit past the CRC (delivered as
    /// garbage, discarded at the NIC — indistinguishable from a drop to
    /// the host, which recovers by retry).
    pub req_corrupted: u64,
    /// Request frames held extra cycles by the link.
    pub req_delayed: u64,
    /// Completions lost on the return path.
    pub comp_dropped: u64,
    /// Completions delivered twice by the link.
    pub comp_duplicated: u64,
    /// Completions held extra cycles by the link.
    pub comp_delayed: u64,
    /// Retransmitted frames answered from the applied-op cache instead of
    /// re-executing (exactly-once application under at-least-once
    /// delivery).
    pub dedupe_hits: u64,
}

impl CtrlStats {
    /// Mean submit→apply latency in cycles (0 with no applied ops).
    pub fn mean_latency_cycles(&self) -> f64 {
        let n = self.completed.saturating_add(self.failed);
        if n == 0 {
            0.0
        } else {
            self.latency_cycles_total as f64 / n as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Lossy-link model
// ---------------------------------------------------------------------------

/// Seeded loss model for the control link. Each rate is an independent
/// per-message probability; `lossless()` (the default) disables the model
/// entirely. Attach with [`crate::PipelineSim::attach_ctrl_loss`] — only
/// wire-frame submissions ([`crate::PipelineSim::submit_host_frame`]) and
/// their completions traverse the lossy link; the legacy
/// `submit_host_op` path models a debug backdoor and stays reliable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlLossConfig {
    /// RNG seed; identical seeds reproduce the fault pattern bit-exactly.
    pub seed: u64,
    /// Probability a message vanishes in transit.
    pub drop_rate: f64,
    /// Probability a message is delivered twice.
    pub dup_rate: f64,
    /// Probability a message is bit-flipped in transit (caught by the
    /// frame CRC and discarded — effectively a detected drop).
    pub corrupt_rate: f64,
    /// Probability a message is held extra cycles.
    pub delay_rate: f64,
    /// Upper bound on the extra delay, in cycles.
    pub max_extra_delay: u64,
}

impl CtrlLossConfig {
    /// A perfectly reliable link.
    pub fn lossless() -> CtrlLossConfig {
        CtrlLossConfig {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            max_extra_delay: 0,
        }
    }

    /// Every failure mode at the same `rate` (delay up to 256 cycles).
    pub fn uniform(seed: u64, rate: f64) -> CtrlLossConfig {
        CtrlLossConfig {
            seed,
            drop_rate: rate,
            dup_rate: rate,
            corrupt_rate: rate,
            delay_rate: rate,
            max_extra_delay: 256,
        }
    }

    /// Does any failure mode have a non-zero rate?
    pub fn is_lossy(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.delay_rate > 0.0
    }
}

impl Default for CtrlLossConfig {
    fn default() -> CtrlLossConfig {
        CtrlLossConfig::lossless()
    }
}

/// Live loss-model state: the config plus its private RNG stream.
#[derive(Debug, Clone)]
pub(crate) struct LossState {
    pub(crate) cfg: CtrlLossConfig,
    pub(crate) rng: Rng,
}

impl LossState {
    pub(crate) fn new(cfg: CtrlLossConfig) -> LossState {
        LossState { rng: Rng::seed_from_u64(cfg.seed), cfg }
    }

    /// One Bernoulli trial. Always advances the RNG so the fault pattern
    /// for later messages does not depend on which rates are zero.
    pub(crate) fn roll(&mut self, rate: f64) -> bool {
        self.rng.gen_f64() < rate
    }

    /// Extra in-transit delay for a delayed message (≥ 1 cycle).
    pub(crate) fn extra_delay(&mut self) -> u64 {
        self.rng.gen_range_u64(1, self.cfg.max_extra_delay.max(1) + 1)
    }

    /// Flip 1–4 bits somewhere in `frame`.
    pub(crate) fn mangle(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let flips = 1 + self.rng.gen_index(4);
        for _ in 0..flips {
            let byte = self.rng.gen_index(frame.len());
            frame[byte] ^= 1 << self.rng.gen_index(8);
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-frame codec
// ---------------------------------------------------------------------------

/// Frame magic: "EHC1" (eHDL control, version 1).
pub const FRAME_MAGIC: u32 = 0x4548_4331;
/// Fixed header bytes before the variable payload.
pub const FRAME_HEADER_LEN: usize = 22;
/// Largest accepted frame (header + payload + CRC).
pub const MAX_FRAME_LEN: usize = 4096;

const KIND_LOOKUP: u8 = 0;
const KIND_UPDATE: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_DUMP: u8 = 3;
const KIND_GATHER: u8 = 4;

/// Keys of `key_size` bytes one [`HostOp::Gather`] frame can carry within
/// [`MAX_FRAME_LEN`].
pub fn gather_capacity(key_size: usize) -> usize {
    (MAX_FRAME_LEN - FRAME_HEADER_LEN - 2 - 4).checked_div(key_size).unwrap_or(0)
}

/// Why a wire frame failed to decode. All variants are typed and `Copy`;
/// a malformed frame must never panic the decoder (fuzzed in
/// `tests/fuzz_ctrl.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header + CRC.
    Truncated {
        /// Bytes actually present.
        got: usize,
    },
    /// Longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// Bytes actually present.
        len: usize,
    },
    /// First word is not [`FRAME_MAGIC`].
    BadMagic {
        /// Word actually found.
        magic: u32,
    },
    /// Unknown op kind byte.
    BadKind {
        /// Byte actually found.
        kind: u8,
    },
    /// Flags byte invalid for the op kind (non-update ops must carry 0).
    BadFlags {
        /// Byte actually found.
        flags: u8,
    },
    /// Declared key/value lengths disagree with the frame length.
    LengthMismatch {
        /// Header + declared payload + CRC.
        declared: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Keyed op with a zero-length key, a dump with a payload, or a
    /// gather whose key bytes are not a whole number of keys.
    BadShape {
        /// Op kind byte.
        kind: u8,
    },
    /// CRC-32 over header+payload does not match the trailer.
    BadChecksum {
        /// CRC computed over the received bytes.
        want: u32,
        /// CRC carried in the trailer.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { got } => write!(f, "truncated frame ({got} bytes)"),
            FrameError::Oversized { len } => {
                write!(f, "oversized frame ({len} > {MAX_FRAME_LEN} bytes)")
            }
            FrameError::BadMagic { magic } => write!(f, "bad magic {magic:#010x}"),
            FrameError::BadKind { kind } => write!(f, "unknown op kind {kind}"),
            FrameError::BadFlags { flags } => write!(f, "invalid flags byte {flags}"),
            FrameError::LengthMismatch { declared, got } => {
                write!(f, "length mismatch (declared {declared}, got {got})")
            }
            FrameError::BadShape { kind } => write!(f, "invalid payload shape for kind {kind}"),
            FrameError::BadChecksum { want, got } => {
                write!(f, "bad checksum (computed {want:#010x}, trailer {got:#010x})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32 remainders of every byte value (reflected polynomial 0xEDB88320).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// Encode `(seq, op)` as a wire frame:
///
/// ```text
/// magic:u32  kind:u8  flags:u8  map:u32  seq:u64  key_len:u16  val_len:u16
/// key[key_len]  value[val_len]  crc32:u32          (all little-endian)
/// ```
///
/// A gather's key field is its keys back to back and its value field the
/// length of one key (`u16`); keys of unequal length have no wire form and
/// encode to a frame [`decode_frame`] rejects as [`FrameError::BadShape`].
///
/// `seq` is the host's retransmission sequence number: frames carrying the
/// same `seq` are the same logical op, and the channel applies it at most
/// once no matter how many copies arrive.
pub fn encode_frame(seq: u64, op: &HostOp) -> Vec<u8> {
    let per_key: [u8; 2];
    let (kind, flags, keys, value): (u8, u8, &[Vec<u8>], &[u8]) = match op {
        HostOp::Lookup { key, .. } => (KIND_LOOKUP, 0, std::slice::from_ref(key), &[]),
        HostOp::Update { key, value, flags, .. } => {
            (KIND_UPDATE, *flags as u8, std::slice::from_ref(key), value)
        }
        HostOp::Delete { key, .. } => (KIND_DELETE, 0, std::slice::from_ref(key), &[]),
        HostOp::Dump { .. } => (KIND_DUMP, 0, &[], &[]),
        HostOp::Gather { keys, .. } => {
            let len = keys.first().map_or(0, Vec::len);
            let uniform = keys.iter().all(|k| k.len() == len);
            per_key = (if uniform { len as u16 } else { 0 }).to_le_bytes();
            (KIND_GATHER, 0, keys, &per_key)
        }
    };
    let key_len: usize = keys.iter().map(Vec::len).sum();
    let mut f = Vec::with_capacity(FRAME_HEADER_LEN + key_len + value.len() + 4);
    f.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    f.push(kind);
    f.push(flags);
    f.extend_from_slice(&op.map().to_le_bytes());
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&(key_len as u16).to_le_bytes());
    f.extend_from_slice(&(value.len() as u16).to_le_bytes());
    for key in keys {
        f.extend_from_slice(key);
    }
    f.extend_from_slice(value);
    let crc = crc32(&f);
    f.extend_from_slice(&crc.to_le_bytes());
    f
}

/// Decode a wire frame back into `(seq, op)`. Total function over
/// arbitrary bytes: every malformed input maps to a typed [`FrameError`].
pub fn decode_frame(frame: &[u8]) -> Result<(u64, HostOp), FrameError> {
    if frame.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len: frame.len() });
    }
    if frame.len() < FRAME_HEADER_LEN + 4 {
        return Err(FrameError::Truncated { got: frame.len() });
    }
    let word = |at: usize| -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&frame[at..at + 4]);
        u32::from_le_bytes(b)
    };
    let magic = word(0);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { magic });
    }
    let kind = frame[4];
    let flags = frame[5];
    let map = word(6);
    let mut seq_b = [0u8; 8];
    seq_b.copy_from_slice(&frame[10..18]);
    let seq = u64::from_le_bytes(seq_b);
    let key_len = usize::from(u16::from_le_bytes([frame[18], frame[19]]));
    let val_len = usize::from(u16::from_le_bytes([frame[20], frame[21]]));
    let declared = FRAME_HEADER_LEN + key_len + val_len + 4;
    if declared != frame.len() {
        return Err(FrameError::LengthMismatch { declared, got: frame.len() });
    }
    let body_end = FRAME_HEADER_LEN + key_len + val_len;
    let want = crc32(&frame[..body_end]);
    let got = word(body_end);
    if want != got {
        return Err(FrameError::BadChecksum { want, got });
    }
    let key = &frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + key_len];
    let value = &frame[FRAME_HEADER_LEN + key_len..body_end];
    let op = match kind {
        KIND_LOOKUP | KIND_DELETE => {
            if flags != 0 {
                return Err(FrameError::BadFlags { flags });
            }
            if key_len == 0 || val_len != 0 {
                return Err(FrameError::BadShape { kind });
            }
            if kind == KIND_LOOKUP {
                HostOp::Lookup { map, key: key.to_vec() }
            } else {
                HostOp::Delete { map, key: key.to_vec() }
            }
        }
        KIND_UPDATE => {
            let Some(flags) = UpdateFlags::from_raw(u64::from(flags)) else {
                return Err(FrameError::BadFlags { flags });
            };
            if key_len == 0 {
                return Err(FrameError::BadShape { kind });
            }
            HostOp::Update { map, key: key.to_vec(), value: value.to_vec(), flags }
        }
        KIND_DUMP => {
            if flags != 0 {
                return Err(FrameError::BadFlags { flags });
            }
            if key_len != 0 || val_len != 0 {
                return Err(FrameError::BadShape { kind });
            }
            HostOp::Dump { map }
        }
        KIND_GATHER => {
            if flags != 0 {
                return Err(FrameError::BadFlags { flags });
            }
            let &[lo, hi] = value else { return Err(FrameError::BadShape { kind }) };
            let per_key = usize::from(u16::from_le_bytes([lo, hi]));
            if per_key == 0 || key_len == 0 || !key_len.is_multiple_of(per_key) {
                return Err(FrameError::BadShape { kind });
            }
            HostOp::Gather { map, keys: key.chunks_exact(per_key).map(<[u8]>::to_vec).collect() }
        }
        kind => return Err(FrameError::BadKind { kind }),
    };
    Ok((seq, op))
}

/// A queued op with its ordering barrier.
#[derive(Debug, Clone)]
pub(crate) struct QueuedOp {
    pub(crate) id: u64,
    pub(crate) op: HostOp,
    /// Packets with `seq < barrier_seq` logically precede this op;
    /// packets with `seq >= barrier_seq` logically follow it.
    pub(crate) barrier_seq: u64,
    pub(crate) issued_cycle: u64,
    /// Earliest cycle the command can reach the map block (arrival
    /// latency); the fence may hold it longer.
    pub(crate) ready_cycle: u64,
    /// Host retransmission seq for frame-submitted ops (`None` for the
    /// reliable backdoor path). Keys the exactly-once dedupe cache.
    pub(crate) frame_seq: Option<u64>,
}

/// Retransmission seqs remembered for duplicate suppression. Old entries
/// are evicted lowest-seq-first once the window fills; a host that
/// retransmits an op more than ~a window of newer ops later would re-apply
/// it, so the runtime's retry horizon must stay inside this.
pub(crate) const DEDUPE_WINDOW: usize = 1024;

/// Per-simulator control-channel state (owned by [`crate::PipelineSim`]).
#[derive(Debug, Clone)]
pub(crate) struct CtrlState {
    pub(crate) options: CtrlOptions,
    pub(crate) queue: VecDeque<QueuedOp>,
    pub(crate) completions: Vec<HostCompletion>,
    pub(crate) next_id: u64,
    pub(crate) stats: CtrlStats,
    /// Lossy-link model (`None` = reliable link, zero overhead).
    pub(crate) loss: Option<Box<LossState>>,
    /// frame_seq → completion already produced for that seq (exactly-once
    /// application: retransmissions are answered from this cache).
    pub(crate) applied: BTreeMap<u64, HostCompletion>,
    /// Completions held in transit by the delay model:
    /// `(deliver_cycle, completion)`.
    pub(crate) delayed: Vec<(u64, HostCompletion)>,
}

impl CtrlState {
    pub(crate) fn new(options: CtrlOptions) -> CtrlState {
        CtrlState {
            options,
            queue: VecDeque::new(),
            completions: Vec::new(),
            next_id: 0,
            stats: CtrlStats::default(),
            loss: None,
            applied: BTreeMap::new(),
            delayed: Vec::new(),
        }
    }

    /// Remember `seq`'s completion for duplicate suppression, evicting the
    /// oldest entry once the window fills.
    pub(crate) fn remember_applied(&mut self, seq: u64, completion: HostCompletion) {
        self.applied.insert(seq, completion);
        while self.applied.len() > DEDUPE_WINDOW {
            self.applied.pop_first();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_every_op_kind() {
        let ops = [
            HostOp::Lookup { map: 3, key: vec![1, 2, 3, 4] },
            HostOp::Update {
                map: 0,
                key: vec![9; 13],
                value: vec![7; 8],
                flags: UpdateFlags::NoExist,
            },
            HostOp::Update { map: 2, key: vec![1], value: vec![], flags: UpdateFlags::Exist },
            HostOp::Delete { map: 1, key: vec![0xff; 2] },
            HostOp::Dump { map: 42 },
            HostOp::Gather { map: 5, keys: vec![vec![1, 2, 3], vec![4, 5, 6], vec![1, 2, 3]] },
            HostOp::Gather { map: 0, keys: vec![vec![0xaa; 13]; gather_capacity(13)] },
        ];
        for (i, op) in ops.iter().enumerate() {
            let seq = 1000 + i as u64;
            let frame = encode_frame(seq, op);
            let (got_seq, got_op) = decode_frame(&frame).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(&got_op, op);
        }
    }

    /// A dump's text is what clients and the benchmark's ack digest read:
    /// it must print as the `(key, value)` pair list a dump used to be.
    #[test]
    fn a_dump_prints_as_its_pair_list_in_slot_order() {
        use ehdl_ebpf::maps::{MapDef, MapKind};
        let defs = [
            MapDef::new(0, "flows", MapKind::Hash, 13, 8, 16),
            MapDef::new(1, "empty", MapKind::Hash, 13, 8, 16),
            MapDef::new(2, "stats", MapKind::Array, 4, 8, 3),
        ];
        let mut store = MapStore::new(&defs);
        let flows = store.get_mut(0).unwrap();
        for k in 1..=3u8 {
            flows.update(&[k; 13], &u64::from(k).to_le_bytes(), UpdateFlags::Any).unwrap();
        }
        // Key 4 takes the slot key 1 freed: slot order is not insertion order.
        flows.delete(&[1; 13]).unwrap();
        flows.update(&[4; 13], &4u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        let stats = store.get_mut(2).unwrap();
        stats.update(&1u32.to_le_bytes(), &7u64.to_le_bytes(), UpdateFlags::Any).unwrap();

        for map in 0..3 {
            let m = store.get(map).unwrap().clone();
            let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                m.iter().map(|(_, k, v)| (k.to_vec(), v.to_vec())).collect();
            let slot_order: Vec<(&[u8], &[u8])> = m.iter().map(|(_, k, v)| (k, v)).collect();
            let dumped = HostOp::Dump { map }.apply(&mut store);
            let Ok(HostOpResult::Entries(rows)) = &dumped else { panic!("{dumped:?}") };
            assert_eq!(rows.iter().collect::<Vec<_>>(), slot_order, "map {map}");
            assert_eq!(format!("{dumped:?}"), format!("Ok(Entries({pairs:?}))"), "map {map}");
            assert_eq!(format!("{rows:#?}"), format!("{pairs:#?}"), "map {map}");
        }
        let [text0, text1, text2] =
            [0, 1, 2].map(|map| format!("{:?}", HostOp::Dump { map }.apply(&mut store)));
        assert!(text0.starts_with(&format!("Ok(Entries([({:?}, ", [4u8; 13])), "{text0}");
        assert_eq!(text1, "Ok(Entries([]))");
        assert!(text2.contains("([1, 0, 0, 0], [7, 0, 0, 0, 0, 0, 0, 0])"), "{text2}");
    }

    #[test]
    fn decode_rejects_structural_damage_with_typed_errors() {
        let frame = encode_frame(7, &HostOp::Lookup { map: 0, key: vec![1, 2, 3, 4] });
        assert!(matches!(decode_frame(&frame[..10]), Err(FrameError::Truncated { .. })));
        assert!(matches!(
            decode_frame(&vec![0u8; MAX_FRAME_LEN + 1]),
            Err(FrameError::Oversized { .. })
        ));
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic { .. })));
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadChecksum { .. })));
        let mut longer = frame.clone();
        longer.push(0);
        assert!(matches!(decode_frame(&longer), Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn crc_table_computes_the_ieee_remainder() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926, "the CRC-32/ISO-HDLC check value");
        // Bit at a time, as the polynomial is defined.
        let bitwise = |bytes: &[u8]| {
            !bytes.iter().fold(!0u32, |crc, &b| {
                (0..8).fold(crc ^ u32::from(b), |c, _| {
                    (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg())
                })
            })
        };
        let mut rng = Rng::seed_from_u64(32);
        for len in 0..300 {
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            assert_eq!(crc32(&bytes), bitwise(&bytes), "{len} bytes");
        }
    }

    #[test]
    fn crc_catches_single_bit_flips_anywhere() {
        let frame = encode_frame(
            9,
            &HostOp::Update { map: 1, key: vec![5; 4], value: vec![6; 8], flags: UpdateFlags::Any },
        );
        for byte in 0..frame.len() - 4 {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
