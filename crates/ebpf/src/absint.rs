//! Abstract-interpretation value analysis over decoded bytecode.
//!
//! The structural [`crate::verifier`] deliberately stops short of value
//! tracking; this module closes that gap with a kernel-verifier-style
//! abstract interpreter: per-register and per-stack-slot abstract values
//! combining a signed interval, known bits (a *tnum*), and pointer
//! provenance, iterated to a fixpoint on a worklist over the instruction
//! graph.
//!
//! Its products are *facts* the compiler may rely on:
//!
//! * per-access packet-bounds facts — an access through a packet pointer
//!   whose offset interval provably fits inside the path-proven minimum
//!   packet length compiles to an **unguarded** load/store primitive;
//! * statically-decided branch outcomes — dead branches are cut from the
//!   CFG before predication;
//! * the maximum proven packet offset — narrows per-stage frame slices;
//! * constant / narrow stack slots — shrinks the carried-state estimate.
//!
//! Soundness contract: every fact is an over-approximation of what the
//! reference [`crate::vm::Vm`] can do. The VM's assertion mode
//! ([`crate::vm::Vm::check_facts`]) and the hardware simulator re-check
//! every fact at runtime; the differential and fuzz campaigns gate on zero
//! violations. On anything it cannot model the analysis degrades to ⊤ (no
//! facts), and a global work budget stops it rather than looping:
//! [`analyze_with`] reports that as [`BudgetExceeded`], [`analyze`] as an
//! empty [`Analysis`].
//!
//! [`analyze_with`] also hands each reached instruction's register file to
//! a caller, which is how the compiler labels memory instructions (§3.1)
//! without a second fixpoint.

use crate::insn::{Decoded, Instruction, Operand};
use crate::opcode::{AluOp, AtomicOp, JmpOp, MemSize, Width};
use crate::vm::{alu_eval, cond_eval, endian_eval};

/// Number of tracked 8-byte stack slots (512-byte frame).
pub const STACK_SLOTS: usize = 64;

/// Join count after which interval bounds are widened straight to ⊤ so
/// the fixpoint terminates on (bounded or malformed) loops.
const WIDEN_AFTER: u32 = 8;

/// Hard ceiling on instructions stepped during the fixpoint; beyond it the
/// analysis gives up (fuzzed inputs must never hang the compiler).
const POP_BUDGET: usize = 200_000;

/// Offsets beyond this magnitude are not used for packet-length
/// refinement (keeps the address-comparison reasoning wrap-free).
const SANE_OFFSET: i64 = 1 << 20;

// ---------------------------------------------------------------------------
// Tnum: known-bits tracking (value/mask pairs, as in the kernel verifier).
// ---------------------------------------------------------------------------

/// A tracked number: bit `i` is known to be `value>>i & 1` when `mask>>i &
/// 1 == 0`, unknown otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tnum {
    /// Known bit values (zero at unknown positions).
    pub value: u64,
    /// Unknown-bit mask.
    pub mask: u64,
}

impl Tnum {
    /// Every bit unknown.
    pub const TOP: Tnum = Tnum { value: 0, mask: u64::MAX };

    /// A fully known constant.
    pub fn constant(v: u64) -> Tnum {
        Tnum { value: v, mask: 0 }
    }

    /// The constant this tnum represents, if fully known.
    pub fn as_const(self) -> Option<u64> {
        (self.mask == 0).then_some(self.value)
    }

    /// Does the concrete value `v` belong to this tnum?
    pub fn contains(self, v: u64) -> bool {
        (v & !self.mask) == self.value
    }

    /// Lattice join (union of represented sets).
    pub fn join(self, other: Tnum) -> Tnum {
        let mu = self.mask | other.mask | (self.value ^ other.value);
        Tnum { value: self.value & !mu, mask: mu }
    }

    /// Bitwise AND.
    pub fn and(self, other: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = other.value | other.mask;
        let v = self.value & other.value;
        Tnum { value: v, mask: alpha & beta & !v }
    }

    /// Bitwise OR.
    pub fn or(self, other: Tnum) -> Tnum {
        let v = self.value | other.value;
        let mu = self.mask | other.mask;
        Tnum { value: v, mask: mu & !v }
    }

    /// Bitwise XOR.
    pub fn xor(self, other: Tnum) -> Tnum {
        let v = self.value ^ other.value;
        let mu = self.mask | other.mask;
        Tnum { value: v & !mu, mask: mu }
    }

    /// Wrapping addition (kernel `tnum_add`).
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(other.mask);
        let sv = self.value.wrapping_add(other.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | other.mask;
        Tnum { value: sv & !mu, mask: mu }
    }

    /// Wrapping subtraction (kernel `tnum_sub`).
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(other.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(other.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | other.mask;
        Tnum { value: dv & !mu, mask: mu }
    }

    /// Left shift by a known amount.
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn shl(self, sh: u32) -> Tnum {
        Tnum { value: self.value.wrapping_shl(sh), mask: self.mask.wrapping_shl(sh) }
    }

    /// Logical right shift by a known amount.
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, sh: u32) -> Tnum {
        Tnum { value: self.value.wrapping_shr(sh), mask: self.mask.wrapping_shr(sh) }
    }

    /// Truncate to the low 32 bits (the high half becomes known-zero).
    pub fn cast32(self) -> Tnum {
        Tnum { value: self.value & 0xffff_ffff, mask: self.mask & 0xffff_ffff }
    }

    /// Smallest unsigned value in the set.
    pub fn umin(self) -> u64 {
        self.value
    }

    /// Largest unsigned value in the set.
    pub fn umax(self) -> u64 {
        self.value | self.mask
    }
}

// ---------------------------------------------------------------------------
// Signed interval.
// ---------------------------------------------------------------------------

/// A closed signed interval. Like the compiler's offset interval, ⊤ is
/// kept away from the `i64` extremes so saturating arithmetic stays exact
/// for any value actually representable in a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Iv {
    /// The full (unknown) range.
    pub const TOP: Iv = Iv { lo: i64::MIN / 4, hi: i64::MAX / 4 };

    /// A single point.
    pub fn point(v: i64) -> Iv {
        Iv { lo: v, hi: v }
    }

    /// Is this effectively unbounded?
    pub fn is_top(self) -> bool {
        self.lo <= Iv::TOP.lo || self.hi >= Iv::TOP.hi
    }

    /// The constant, if a single point.
    pub fn as_const(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Smallest interval covering both.
    pub fn join(self, other: Iv) -> Iv {
        Iv { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Interval addition (saturating; ⊤ absorbs).
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Iv) -> Iv {
        if self.is_top() || other.is_top() {
            return Iv::TOP;
        }
        Iv { lo: self.lo.saturating_add(other.lo), hi: self.hi.saturating_add(other.hi) }
    }

    /// Interval subtraction.
    // Domain transfer, not the std operator (abstract, not exact).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Iv) -> Iv {
        if self.is_top() || other.is_top() {
            return Iv::TOP;
        }
        Iv { lo: self.lo.saturating_sub(other.hi), hi: self.hi.saturating_sub(other.lo) }
    }
}

// ---------------------------------------------------------------------------
// Abstract values.
// ---------------------------------------------------------------------------

/// Pointer provenance of an abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prov {
    /// A plain number.
    Scalar,
    /// `data + offset`.
    PacketPtr,
    /// `data_end + offset`.
    PacketEnd,
    /// `r10 + offset` (offset ≤ 0 for valid accesses).
    StackPtr,
    /// Pointer into a value of map `id` (post null check).
    MapValue(u32),
    /// `bpf_map_lookup_elem` result before the null check.
    NullOrMapValue(u32),
    /// Opaque handle from `ld_map_fd`.
    MapHandle(u32),
    /// The `xdp_md` context pointer plus offset.
    Ctx,
    /// Conflicting or unmodeled — ⊤.
    Unknown,
}

/// Provenance of a single byte of a scalar value — the taint half of the
/// sharding-soundness analysis. Where [`Prov`] tracks what a value *points
/// at*, `ByteSrc` tracks where each of its eight data bytes *came from*,
/// so a map key assembled on the stack can be traced back to the packet
/// bytes (or constants) it was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteSrc {
    /// Known to be zero (zero-extension, zero constants, untouched pads).
    Zero,
    /// Some path-dependent constant, independent of the packet and maps.
    Const,
    /// The byte of the *original* (pre-rewrite, pre-adjust) packet at this
    /// absolute offset.
    Pkt(u16),
    /// Derived from a map value (lookup result or fetched atomic).
    MapVal,
    /// Anything else — arithmetic mixes, helper results, unknown loads.
    Other,
}

impl ByteSrc {
    /// Byte-wise lattice join: equal sources keep, `Zero` and `Const`
    /// collapse to `Const` (both packet- and map-independent), anything
    /// else conflicting degrades to `Other`.
    fn join(self, other: ByteSrc) -> ByteSrc {
        use ByteSrc::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Zero, Const) | (Const, Zero) => Const,
            _ => Other,
        }
    }
}

/// Eight unknown bytes.
const SRC_TOP: [ByteSrc; 8] = [ByteSrc::Other; 8];

/// Per-byte sources of a known constant.
fn src_of_const(v: u64) -> [ByteSrc; 8] {
    let mut out = [ByteSrc::Zero; 8];
    for (i, s) in out.iter_mut().enumerate() {
        if (v >> (8 * i)) as u8 != 0 {
            *s = ByteSrc::Const;
        }
    }
    out
}

/// An abstract value: provenance × interval × known bits × per-byte
/// sources. For pointers the interval/tnum describe the *offset from the
/// region base*; for scalars, the value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// What region (if any) the value points into.
    pub prov: Prov,
    /// Signed interval of the value/offset.
    pub iv: Iv,
    /// Known bits of the value/offset.
    pub tn: Tnum,
    /// Where each byte of the value came from (little-endian order).
    pub src: [ByteSrc; 8],
}

impl AbsVal {
    /// Completely unknown.
    pub const TOP: AbsVal =
        AbsVal { prov: Prov::Unknown, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP };

    /// A known scalar constant.
    pub fn constant(v: i64) -> AbsVal {
        AbsVal {
            prov: Prov::Scalar,
            iv: Iv::point(v),
            tn: Tnum::constant(v as u64),
            src: src_of_const(v as u64),
        }
    }

    /// A pointer into `prov` at a known offset.
    fn pointer(prov: Prov, off: i64) -> AbsVal {
        AbsVal { prov, iv: Iv::point(off), tn: Tnum::constant(off as u64), src: SRC_TOP }
    }

    /// An unknown scalar bounded by an access width (loads zero-extend).
    fn sized(size: MemSize) -> AbsVal {
        let mask = crate::vm::mask_for(size);
        if mask == u64::MAX {
            return AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP };
        }
        let mut src = [ByteSrc::Zero; 8];
        for s in src.iter_mut().take(size.bytes()) {
            *s = ByteSrc::Other;
        }
        AbsVal {
            prov: Prov::Scalar,
            iv: Iv { lo: 0, hi: mask as i64 },
            tn: Tnum { value: 0, mask },
            src,
        }
    }

    /// As [`AbsVal::sized`], but with every loaded byte tagged `tag`.
    fn sized_from(size: MemSize, tag: impl Fn(usize) -> ByteSrc) -> AbsVal {
        let mut v = AbsVal::sized(size);
        let n = size.bytes().min(8);
        for (i, s) in v.src.iter_mut().enumerate().take(n) {
            *s = tag(i);
        }
        v
    }

    /// The 64-bit constant, when fully known (tnum and interval agree by
    /// construction; the tnum is authoritative).
    pub fn as_const(self) -> Option<u64> {
        if self.prov != Prov::Scalar {
            return None;
        }
        self.tn.as_const()
    }

    /// Lattice join.
    pub fn join(self, other: AbsVal) -> AbsVal {
        let mut src = self.src;
        for (s, o) in src.iter_mut().zip(other.src) {
            *s = s.join(o);
        }
        let prov = match (self.prov, other.prov) {
            (a, b) if a == b => a,
            // A lookup result null-checked on one path only stays
            // maybe-null at the merge.
            (Prov::MapValue(m) | Prov::NullOrMapValue(m), _)
            | (_, Prov::MapValue(m) | Prov::NullOrMapValue(m))
                if self.is_null_or_value_of(m) && other.is_null_or_value_of(m) =>
            {
                return AbsVal { prov: Prov::NullOrMapValue(m), iv: Iv::TOP, tn: Tnum::TOP, src };
            }
            _ => Prov::Unknown,
        };
        if prov == Prov::Unknown {
            return AbsVal { src, ..AbsVal::TOP };
        }
        AbsVal { prov, iv: self.iv.join(other.iv), tn: self.tn.join(other.tn), src }
    }

    /// Is this NULL (only the constant 0), a value pointer of map `m` at
    /// offset 0, or a maybe-null lookup result of `m`: exactly what a later
    /// null check splits back out?
    fn is_null_or_value_of(self, m: u32) -> bool {
        match self.prov {
            Prov::Scalar => self.as_const() == Some(0),
            Prov::MapValue(n) => n == m && self.iv == Iv::point(0),
            Prov::NullOrMapValue(n) => n == m,
            _ => false,
        }
    }

    /// Truncate to 32-bit semantics (zero-extended), scalar only.
    fn cast32(self) -> AbsVal {
        let mut src = self.src;
        for s in src.iter_mut().skip(4) {
            *s = ByteSrc::Zero;
        }
        if self.prov != Prov::Scalar && self.prov != Prov::Unknown {
            return scalar32_top();
        }
        let tn = self.tn.cast32();
        let iv = if self.iv.lo >= 0 && self.iv.hi <= 0xffff_ffff && self.prov == Prov::Scalar {
            self.iv
        } else {
            // Derive from the truncated tnum: always within [0, 2^32).
            Iv { lo: tn.umin() as i64, hi: tn.umax() as i64 }
        };
        AbsVal { prov: Prov::Scalar, iv, tn, src }
    }
}

/// ⊤ restricted to a zero-extended 32-bit result.
fn scalar32_top() -> AbsVal {
    let mut src = [ByteSrc::Zero; 8];
    for s in src.iter_mut().take(4) {
        *s = ByteSrc::Other;
    }
    AbsVal {
        prov: Prov::Scalar,
        iv: Iv { lo: 0, hi: 0xffff_ffff },
        tn: Tnum { value: 0, mask: 0xffff_ffff },
        src,
    }
}

// ---------------------------------------------------------------------------
// Machine state.
// ---------------------------------------------------------------------------

/// Packet offsets whose exact values the analysis learns from equality
/// guards: EtherType bytes (12, 13) and the IPv4 protocol byte (23) —
/// exactly the bytes the RSS steering parser inspects before deciding a
/// packet is tuple-steered.
const GUARD_OFFSETS: [u16; 3] = [12, 13, 23];

fn guard_slot(off: u16) -> Option<usize> {
    GUARD_OFFSETS.iter().position(|&o| o == off)
}

/// The set of values a guarded packet byte may hold on the paths reaching
/// a point: unknown, exactly one value, or one of two (the `proto == TCP
/// || proto == UDP` join). Two values suffice for every guard the
/// steering parser cares about; wider joins degrade to ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// Unconstrained.
    Top,
    /// Exactly this value.
    One(u8),
    /// One of two values (normalized: first < second).
    Two(u8, u8),
}

impl Guard {
    fn two(a: u8, b: u8) -> Guard {
        if a == b {
            Guard::One(a)
        } else {
            Guard::Two(a.min(b), a.max(b))
        }
    }

    fn join(self, other: Guard) -> Guard {
        use Guard::*;
        match (self, other) {
            (a, b) if a == b => a,
            (One(a), One(b)) => Guard::two(a, b),
            (Two(a, b), One(c)) | (One(c), Two(a, b)) if c == a || c == b => Two(a, b),
            _ => Top,
        }
    }

    /// Is every possible value in `allowed`?
    pub fn within(self, allowed: &[u8]) -> bool {
        match self {
            Guard::Top => false,
            Guard::One(a) => allowed.contains(&a),
            Guard::Two(a, b) => allowed.contains(&a) && allowed.contains(&b),
        }
    }
}

/// Not `Clone`: a copy goes through [`State::copy_from`], which moves
/// only the slots a path wrote.
#[derive(Debug, PartialEq)]
struct State {
    regs: [AbsVal; 11],
    stack: [AbsVal; STACK_SLOTS],
    /// The slots some path to here may have stored to, one bit each; every
    /// other slot holds the entry zero. Joins and the slot summary visit
    /// only these.
    written: u64,
    /// Proven minimum of `data_end - data` on every path reaching here.
    pkt_len_min: i64,
    /// Constraints on original-packet bytes at [`GUARD_OFFSETS`], learned
    /// from equality branches on packet-derived values.
    pkt_guard: [Guard; GUARD_OFFSETS.len()],
    /// True once the packet may have been rewritten or re-geometried: from
    /// here on, packet loads no longer observe the bytes the steering hash
    /// consumed and get `ByteSrc::Other` instead of `ByteSrc::Pkt`.
    pkt_dirty: bool,
}

impl State {
    /// The state at program entry, on the heap: a state is never passed
    /// or returned by value.
    fn entry() -> Box<State> {
        let mut regs = [AbsVal::TOP; 11];
        regs[1] = AbsVal::pointer(Prov::Ctx, 0);
        regs[10] = AbsVal::pointer(Prov::StackPtr, 0);
        Box::new(State {
            regs,
            // The VM zero-fills the stack, so unwritten slots read as 0.
            stack: [AbsVal::constant(0); STACK_SLOTS],
            written: 0,
            pkt_len_min: 0,
            pkt_guard: [Guard::Top; GUARD_OFFSETS.len()],
            pkt_dirty: false,
        })
    }

    /// Become a copy of `src`: the registers, the packet facts and the
    /// stack slots either side wrote. Every other slot holds the entry
    /// zero on both sides already.
    fn copy_from(&mut self, src: &State) {
        self.regs = src.regs;
        for s in slots(self.written | src.written) {
            self.stack[s] = src.stack[s];
        }
        self.written = src.written;
        self.pkt_len_min = src.pkt_len_min;
        self.pkt_guard = src.pkt_guard;
        self.pkt_dirty = src.pkt_dirty;
    }

    /// Drop everything derived from packet geometry (`xdp_adjust_*`).
    fn clobber_packet(&mut self) {
        self.pkt_len_min = 0;
        self.pkt_guard = [Guard::Top; GUARD_OFFSETS.len()];
        self.pkt_dirty = true;
        let forget = |v: &mut AbsVal| {
            if matches!(v.prov, Prov::PacketPtr | Prov::PacketEnd) {
                *v = AbsVal::TOP;
            }
        };
        self.regs.iter_mut().for_each(forget);
        slots(self.written).for_each(|s| forget(&mut self.stack[s]));
    }

    fn clobber_stack(&mut self) {
        self.stack = [AbsVal::TOP; STACK_SLOTS];
        self.written = u64::MAX;
    }

    /// Model a store of `val` (or an unknown value) to stack bytes
    /// `[addr, addr+len)` where `addr` is relative to `r10` (negative).
    fn stack_store(&mut self, addr: i64, len: i64, val: Option<AbsVal>) {
        let base = addr + 512;
        if base < 0 || base + len > 512 {
            return; // out of frame: the VM faults, nothing to track
        }
        let first = (base / 8) as usize;
        let last = ((base + len - 1) / 8) as usize;
        self.written |= (u64::MAX >> (63 - last)) & (u64::MAX << first);
        if len == 8 && base % 8 == 0 {
            self.stack[first] = val.unwrap_or(AbsVal::TOP);
            return;
        }
        // Partial overwrite: the slot's 64-bit value becomes unknown, but
        // the per-byte sources stay exact — bytes inside the store take the
        // stored value's low bytes, bytes outside keep their old source.
        // This is what lets a key assembled from word/byte stores keep its
        // packet provenance.
        for s in first..=last {
            let mut src = self.stack[s].src;
            for (k, slot_byte) in src.iter_mut().enumerate() {
                let b = s as i64 * 8 + k as i64;
                if b >= base && b < base + len {
                    *slot_byte = match val {
                        Some(v) => v.src[(b - base) as usize],
                        None => ByteSrc::Other,
                    };
                }
            }
            self.stack[s] = AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src };
        }
    }

    fn stack_load(&self, addr: i64, len: i64) -> Option<AbsVal> {
        let base = addr + 512;
        if len == 8 && (0..=504).contains(&base) && base % 8 == 0 {
            return Some(self.stack[(base / 8) as usize]);
        }
        None
    }

    /// A sub-word stack load entirely inside one slot: value bounded by the
    /// access width, byte sources read straight out of the slot.
    fn stack_load_partial(&self, addr: i64, size: MemSize) -> Option<AbsVal> {
        let len = size.bytes() as i64;
        let base = addr + 512;
        if !(0..512).contains(&base) || base + len > 512 || base / 8 != (base + len - 1) / 8 {
            return None;
        }
        let slot = &self.stack[(base / 8) as usize];
        let off = (base % 8) as usize;
        Some(AbsVal::sized_from(size, |i| slot.src[off + i]))
    }

    /// Do the learned guards pin the packet to the steering parser's
    /// precondition set: EtherType 0x0800 and L4 proto TCP or UDP?
    fn tuple_guarded(&self) -> bool {
        self.pkt_guard[0].within(&[0x08])
            && self.pkt_guard[1].within(&[0x00])
            && self.pkt_guard[2].within(&[6, 17])
    }

    /// Byte sources of the stack bytes starting at r10-relative `addr`,
    /// up to `max` bytes (truncated at the end of the frame).
    fn stack_bytes(&self, addr: i64, max: usize) -> Option<Vec<ByteSrc>> {
        let base = addr + 512;
        if !(0..512).contains(&base) {
            return None;
        }
        let n = max.min((512 - base) as usize);
        Some(
            (0..n)
                .map(|i| {
                    let b = base as usize + i;
                    self.stack[b / 8].src[b % 8]
                })
                .collect(),
        )
    }
}

/// The indices of the set bits of `mask`, ascending.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (s < 64).then_some(s)
    })
}

fn join_states(old: &mut State, new: &State, widen: bool) -> bool {
    let mut changed = false;
    let widen_iv = |prev: Iv, j: Iv| -> Iv {
        Iv {
            lo: if j.lo < prev.lo { Iv::TOP.lo } else { j.lo },
            hi: if j.hi > prev.hi { Iv::TOP.hi } else { j.hi },
        }
    };
    let mut join = |o: &mut AbsVal, n: AbsVal| {
        if *o == n {
            return; // join is idempotent; most slots agree at a merge
        }
        let mut j = o.join(n);
        if widen && j != *o {
            j.iv = widen_iv(o.iv, j.iv);
        }
        if j != *o {
            *o = j;
            changed = true;
        }
    };
    for (o, n) in old.regs.iter_mut().zip(new.regs) {
        join(o, n);
    }
    // A slot neither side wrote is the entry zero on both: nothing to join.
    old.written |= new.written;
    for s in slots(old.written) {
        join(&mut old.stack[s], new.stack[s]);
    }
    let m = old.pkt_len_min.min(new.pkt_len_min);
    if m < old.pkt_len_min {
        old.pkt_len_min = if widen { 0 } else { m };
        changed = true;
    }
    for (o, n) in old.pkt_guard.iter_mut().zip(new.pkt_guard) {
        let j = o.join(n);
        if j != *o {
            *o = j;
            changed = true;
        }
    }
    if new.pkt_dirty && !old.pkt_dirty {
        old.pkt_dirty = true;
        changed = true;
    }
    changed
}

// ---------------------------------------------------------------------------
// Analysis results.
// ---------------------------------------------------------------------------

/// A packet-memory access fact, keyed by bytecode slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFact {
    /// Slot index of the load/store/atomic.
    pub pc: usize,
    /// Proven interval of the byte offset from `data`.
    pub lo: i64,
    /// Upper bound of the offset interval (inclusive).
    pub hi: i64,
    /// Access width in bytes.
    pub size: i64,
    /// Proven minimum packet length (`data_end - data`) at this point.
    pub min_len: i64,
    /// True when `lo ≥ 0` and `hi + size ≤ min_len`: the access can never
    /// leave the packet and needs no hardware guard.
    pub proven: bool,
}

/// Per-stack-slot summary for the carried-state estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Bits needed to represent every value the slot ever holds.
    pub width: u8,
    /// The single known constant the slot ever holds besides its implicit
    /// zero initialization (`Some(0)` when never written). Such a slot can
    /// be rematerialized from a one-bit valid flag instead of carried.
    pub constant: Option<u64>,
}

impl Default for SlotInfo {
    fn default() -> SlotInfo {
        SlotInfo { width: 64, constant: None }
    }
}

/// Key/value provenance of one map-helper call site (lookup, update or
/// delete), for the sharding-soundness pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapKeyFact {
    /// Slot index of the `call` instruction.
    pub pc: usize,
    /// Map id the call targets.
    pub map: u32,
    /// Helper number ([`crate::helpers`]).
    pub helper: u32,
    /// Byte sources of the stack region the key pointer addresses, from
    /// the key base to the end of the frame (the caller slices to the
    /// map's key size). `None` when the key pointer is not a constant
    /// stack address.
    pub key: Option<Vec<ByteSrc>>,
    /// For updates: byte sources of the value region, same convention.
    pub value: Option<Vec<ByteSrc>>,
    /// True when every path to this call proved EtherType == IPv4 and L4
    /// proto ∈ {TCP, UDP} — the steering parser's byte preconditions.
    pub tuple_guarded: bool,
    /// The single L4 protocol value proven on every path to this call,
    /// when the proto guard is that precise; `None` when paths join TCP
    /// and UDP (or the byte is unconstrained).
    pub proto: Option<u8>,
    /// Proven minimum packet length on every path to this call.
    pub min_len: i64,
}

/// How a direct access through a map-value pointer touches the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapValAccessKind {
    /// Plain load of value bytes.
    Load,
    /// Plain (non-atomic) store to value bytes.
    Store,
    /// Atomic add; `pure_operand` means the added delta is built only
    /// from constants (packet- and map-state-independent).
    AtomicAdd {
        /// Does the program observe the pre-add value?
        fetch: bool,
        /// Is the operand a path constant?
        pure_operand: bool,
    },
    /// Any other atomic (xchg, cmpxchg, fetching bitwise ops).
    AtomicOther,
}

/// One access through a map-value pointer, for the sharding pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapValAccessFact {
    /// Slot index of the load/store/atomic.
    pub pc: usize,
    /// Map id the value pointer came from.
    pub map: u32,
    /// Access shape.
    pub kind: MapValAccessKind,
}

/// The products of the abstract interpretation.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Sorted by `pc`: the final pass visits instructions in stream order.
    facts: Vec<AccessFact>,
    /// `(pc, outcome)`, sorted by `pc` likewise.
    branches: Vec<(usize, bool)>,
    /// Total packet accesses seen (reachable loads/stores/atomics through
    /// a packet pointer).
    pub packet_accesses: usize,
    /// How many of those are proven in-bounds.
    pub proven_accesses: usize,
    /// One past the highest proven-accessed packet byte, over proven
    /// accesses only.
    pub max_proven_end: Option<i64>,
    /// True when every reachable packet access is proven.
    pub all_packet_proven: bool,
    /// Stack-slot width/constant summary (8-byte slots, `fp-512` first).
    pub stack_slots: Vec<SlotInfo>,
    /// Per-call key/value provenance of every reachable map-helper call.
    pub map_keys: Vec<MapKeyFact>,
    /// Every reachable access through a map-value pointer.
    pub map_val_accesses: Vec<MapValAccessFact>,
}

impl Analysis {
    /// The packet access fact at bytecode slot `pc`, if the access goes
    /// through a packet pointer.
    pub fn packet_fact(&self, pc: usize) -> Option<&AccessFact> {
        self.facts.binary_search_by_key(&pc, |f| f.pc).ok().map(|i| &self.facts[i])
    }

    /// Statically-decided outcome of the conditional branch at `pc`.
    pub fn branch_outcome(&self, pc: usize) -> Option<bool> {
        self.branches.binary_search_by_key(&pc, |&(p, _)| p).ok().map(|i| self.branches[i].1)
    }

    /// All packet access facts, in `pc` order.
    pub fn facts(&self) -> impl Iterator<Item = &AccessFact> {
        self.facts.iter()
    }

    /// Number of statically decided branches.
    pub fn decided_branches(&self) -> usize {
        self.branches.len()
    }
}

// ---------------------------------------------------------------------------
// Transfer functions.
// ---------------------------------------------------------------------------

fn operand_val(st: &State, op: Operand) -> AbsVal {
    match op {
        Operand::Reg(r) => st.regs[r as usize],
        Operand::Imm(i) => AbsVal::constant(i as i64),
    }
}

/// Abstract ALU, mirroring [`alu_eval`] (constants fold through it so the
/// two can never disagree), with byte-source transfer layered on top.
fn alu_abs(op: AluOp, width: Width, a: AbsVal, b: AbsVal) -> AbsVal {
    // `neg` ignores its source operand entirely.
    let b = if op == AluOp::Neg { AbsVal::constant(0) } else { b };
    let mut out = alu_abs_core(op, width, a, b);
    if out.prov == Prov::Scalar {
        out.src = alu_src(op, width, a, b, out);
    }
    out
}

/// Per-byte source transfer for scalar ALU results. Only shapes that move
/// whole bytes are tracked exactly (mov, byte-aligned shifts, `or` merging
/// disjoint bytes, all-constant operands); everything else degrades to
/// `Other` per byte.
fn alu_src(op: AluOp, width: Width, a: AbsVal, b: AbsVal, out: AbsVal) -> [ByteSrc; 8] {
    use ByteSrc::*;
    // A folded constant needs no history.
    if let Some(k) = out.as_const() {
        return src_of_const(k);
    }
    let w32 = |mut src: [ByteSrc; 8]| {
        if width == Width::W32 {
            for s in src.iter_mut().skip(4) {
                *s = Zero;
            }
        }
        src
    };
    let data =
        |v: AbsVal| v.prov == Prov::Scalar && v.src.iter().all(|s| matches!(s, Zero | Const));
    match op {
        AluOp::Mov => w32(b.src),
        AluOp::Lsh => match b.as_const() {
            Some(sh) if sh < 64 && sh % 8 == 0 => {
                let by = (sh / 8) as usize;
                let mut src = [Zero; 8];
                src[by..].copy_from_slice(&a.src[..8 - by]);
                w32(src)
            }
            _ => w32(SRC_TOP),
        },
        AluOp::Rsh => match b.as_const() {
            Some(sh) if sh < 64 && sh % 8 == 0 => {
                let by = (sh / 8) as usize;
                let a = if width == Width::W32 { a.cast32() } else { a };
                let mut src = [Zero; 8];
                src[..8 - by].copy_from_slice(&a.src[by..]);
                w32(src)
            }
            _ => w32(SRC_TOP),
        },
        AluOp::Or => {
            let mut src = [Other; 8];
            for (i, s) in src.iter_mut().enumerate() {
                *s = match (a.src[i], b.src[i]) {
                    (Zero, x) | (x, Zero) => x,
                    (Const, Const) => Const,
                    _ => Other,
                };
            }
            w32(src)
        }
        // Any op over purely constant-derived operands stays
        // packet/map-independent even when the value is unknown.
        _ if data(a) && data(b) => w32([Const; 8]),
        _ => w32(SRC_TOP),
    }
}

fn alu_abs_core(op: AluOp, width: Width, a: AbsVal, b: AbsVal) -> AbsVal {
    use Prov::*;
    if op == AluOp::Mov {
        return match width {
            Width::W64 => b,
            Width::W32 => b.cast32(),
        };
    }
    // Full constant folding, for any op and width.
    let a_const = if a.prov == Scalar { a.tn.as_const() } else { None };
    let b_const = if b.prov == Scalar { b.tn.as_const() } else { None };
    if op == AluOp::Neg {
        if let Some(x) = a_const {
            return AbsVal::constant(alu_eval(op, width, x, 0) as i64);
        }
    } else if let (Some(x), Some(y)) = (a_const, b_const) {
        return AbsVal::constant(alu_eval(op, width, x, y) as i64);
    }
    // Pointer arithmetic (64-bit add/sub with a scalar offset keeps
    // provenance; anything else loses it).
    let ptr = |p: Prov| matches!(p, PacketPtr | PacketEnd | StackPtr | MapValue(_));
    if ptr(a.prov) || ptr(b.prov) {
        if width == Width::W64 {
            match op {
                AluOp::Add if ptr(a.prov) && b.prov == Scalar => {
                    return AbsVal {
                        prov: a.prov,
                        iv: a.iv.add(b.iv),
                        tn: a.tn.add(b.tn),
                        src: SRC_TOP,
                    };
                }
                AluOp::Add if a.prov == Scalar && ptr(b.prov) => {
                    return AbsVal {
                        prov: b.prov,
                        iv: b.iv.add(a.iv),
                        tn: b.tn.add(a.tn),
                        src: SRC_TOP,
                    };
                }
                AluOp::Sub if ptr(a.prov) && b.prov == Scalar => {
                    return AbsVal {
                        prov: a.prov,
                        iv: a.iv.sub(b.iv),
                        tn: a.tn.sub(b.tn),
                        src: SRC_TOP,
                    };
                }
                _ => {}
            }
        }
        return AbsVal::TOP;
    }
    if a.prov != Scalar || b.prov != Scalar {
        return AbsVal::TOP;
    }
    // Scalar × scalar. Evaluate in 64-bit then truncate for W32.
    let (a, b) = match width {
        Width::W64 => (a, b),
        Width::W32 => (a.cast32(), b.cast32()),
    };
    let out = scalar_alu64(op, a, b);
    match width {
        Width::W64 => out,
        Width::W32 => out.cast32(),
    }
}

fn scalar_alu64(op: AluOp, a: AbsVal, b: AbsVal) -> AbsVal {
    let from_tnum = |tn: Tnum| -> AbsVal {
        let iv = if tn.umax() <= i64::MAX as u64 {
            Iv { lo: tn.umin() as i64, hi: tn.umax() as i64 }
        } else {
            Iv::TOP
        };
        AbsVal { prov: Prov::Scalar, iv, tn, src: SRC_TOP }
    };
    match op {
        AluOp::Add => {
            AbsVal { prov: Prov::Scalar, iv: a.iv.add(b.iv), tn: a.tn.add(b.tn), src: SRC_TOP }
        }
        AluOp::Sub => {
            AbsVal { prov: Prov::Scalar, iv: a.iv.sub(b.iv), tn: a.tn.sub(b.tn), src: SRC_TOP }
        }
        AluOp::And => {
            let mut v = from_tnum(a.tn.and(b.tn));
            // Masking with a non-negative constant bounds the result.
            if let Some(k) = b.tn.as_const() {
                if k <= i64::MAX as u64 {
                    v.iv = Iv { lo: v.iv.lo.max(0), hi: v.iv.hi.min(k as i64) };
                }
            }
            v
        }
        AluOp::Or => from_tnum(a.tn.or(b.tn)),
        AluOp::Xor => from_tnum(a.tn.xor(b.tn)),
        AluOp::Lsh => match b.tn.as_const() {
            Some(sh) if sh < 64 => from_tnum(a.tn.shl(sh as u32)),
            _ => AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP },
        },
        AluOp::Rsh => match b.tn.as_const() {
            Some(sh) if sh < 64 => from_tnum(a.tn.shr(sh as u32)),
            _ => AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP },
        },
        AluOp::Mod => match b.tn.as_const() {
            // x % m (unsigned) is < m for m > 0.
            Some(m) if m > 0 && m <= i64::MAX as u64 => AbsVal {
                prov: Prov::Scalar,
                iv: Iv { lo: 0, hi: m as i64 - 1 },
                tn: Tnum::TOP,
                src: SRC_TOP,
            },
            _ => AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP },
        },
        AluOp::Div => {
            // Unsigned division can only shrink a non-negative dividend.
            if a.iv.lo >= 0 && !a.iv.is_top() {
                AbsVal {
                    prov: Prov::Scalar,
                    iv: Iv { lo: 0, hi: a.iv.hi },
                    tn: Tnum::TOP,
                    src: SRC_TOP,
                }
            } else {
                AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP }
            }
        }
        AluOp::Neg => {
            if !a.iv.is_top() {
                AbsVal {
                    prov: Prov::Scalar,
                    iv: Iv { lo: a.iv.hi.saturating_neg(), hi: a.iv.lo.saturating_neg() },
                    tn: Tnum::TOP,
                    src: SRC_TOP,
                }
            } else {
                AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP }
            }
        }
        _ => AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP },
    }
}

/// Classify the memory region a `base + off` access targets, and produce
/// the packet fact when it is a packet access.
fn access_fact(st: &State, base: AbsVal, off: i16, size: MemSize, pc: usize) -> Option<AccessFact> {
    if base.prov != Prov::PacketPtr {
        return None;
    }
    let iv = base.iv.add(Iv::point(off as i64));
    let size = size.bytes() as i64;
    let proven = !iv.is_top() && iv.lo >= 0 && iv.hi.saturating_add(size) <= st.pkt_len_min;
    Some(AccessFact { pc, lo: iv.lo, hi: iv.hi, size, min_len: st.pkt_len_min, proven })
}

/// Decide a comparison statically, if the abstract operands allow it.
fn decide(op: JmpOp, width: Width, l: AbsVal, r: AbsVal) -> Option<bool> {
    if l.prov != Prov::Scalar || r.prov != Prov::Scalar {
        return None;
    }
    // Fully known on the compared width: evaluate exactly.
    let known = |v: AbsVal| match width {
        Width::W64 => v.tn.as_const(),
        Width::W32 => v.tn.cast32().as_const(),
    };
    if let (Some(x), Some(y)) = (known(l), known(r)) {
        return Some(cond_eval(op, width, x, y));
    }
    if width == Width::W32 {
        return None;
    }
    let (a, b) = (l.iv, r.iv);
    if a.is_top() || b.is_top() {
        // A tnum contradiction can still settle (in)equality.
        let disjoint = (l.tn.value ^ r.tn.value) & !l.tn.mask & !r.tn.mask != 0;
        return match op {
            JmpOp::Jeq if disjoint => Some(false),
            JmpOp::Jne if disjoint => Some(true),
            _ => None,
        };
    }
    let nonneg = a.lo >= 0 && b.lo >= 0;
    match op {
        JmpOp::Jeq => (a.hi < b.lo || b.hi < a.lo).then_some(false),
        JmpOp::Jne => (a.hi < b.lo || b.hi < a.lo).then_some(true),
        JmpOp::Jsgt => decide_gt(a, b, false),
        JmpOp::Jsge => decide_ge(a, b, false),
        JmpOp::Jslt => decide_gt(b, a, false),
        JmpOp::Jsle => decide_ge(b, a, false),
        JmpOp::Jgt if nonneg => decide_gt(a, b, true),
        JmpOp::Jge if nonneg => decide_ge(a, b, true),
        JmpOp::Jlt if nonneg => decide_gt(b, a, true),
        JmpOp::Jle if nonneg => decide_ge(b, a, true),
        _ => None,
    }
}

fn decide_gt(a: Iv, b: Iv, _unsigned_on_nonneg: bool) -> Option<bool> {
    if a.lo > b.hi {
        Some(true)
    } else if a.hi <= b.lo {
        Some(false)
    } else {
        None
    }
}

fn decide_ge(a: Iv, b: Iv, _unsigned_on_nonneg: bool) -> Option<bool> {
    if a.lo >= b.hi {
        Some(true)
    } else if a.hi < b.lo {
        Some(false)
    } else {
        None
    }
}

fn sane(iv: Iv) -> bool {
    !iv.is_top() && iv.lo.abs() <= SANE_OFFSET && iv.hi.abs() <= SANE_OFFSET
}

/// Refine the taken/fall states of a conditional branch: packet-length
/// bounds checks, null checks, and constant comparisons.
fn refine_edges(
    c: crate::insn::JumpCond,
    l: AbsVal,
    r: AbsVal,
    taken: &mut State,
    fall: &mut State,
) {
    let lr = c.lhs as usize;

    if c.width == Width::W64 {
        // §3.1 packet bounds-check shapes: data + a {cmp} data_end + b.
        // The in-bounds edge proves data_end - data ≥ a - b, i.e. at least
        // a.lo - b.hi (strict compares add one). Offsets must be small so
        // the unsigned address comparison cannot wrap.
        match (l.prov, r.prov) {
            (Prov::PacketPtr, Prov::PacketEnd) if sane(l.iv) && sane(r.iv) => {
                let ge = l.iv.lo - r.iv.hi;
                match c.op {
                    JmpOp::Jgt => fall.pkt_len_min = fall.pkt_len_min.max(ge),
                    JmpOp::Jge => fall.pkt_len_min = fall.pkt_len_min.max(ge + 1),
                    JmpOp::Jle => taken.pkt_len_min = taken.pkt_len_min.max(ge),
                    JmpOp::Jlt => taken.pkt_len_min = taken.pkt_len_min.max(ge + 1),
                    _ => {}
                }
            }
            (Prov::PacketEnd, Prov::PacketPtr) if sane(l.iv) && sane(r.iv) => {
                let ge = r.iv.lo - l.iv.hi;
                match c.op {
                    JmpOp::Jlt => fall.pkt_len_min = fall.pkt_len_min.max(ge),
                    JmpOp::Jle => fall.pkt_len_min = fall.pkt_len_min.max(ge + 1),
                    JmpOp::Jge => taken.pkt_len_min = taken.pkt_len_min.max(ge),
                    JmpOp::Jgt => taken.pkt_len_min = taken.pkt_len_min.max(ge + 1),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    // Null check on a lookup result.
    if let Prov::NullOrMapValue(m) = l.prov {
        if matches!(c.rhs, Operand::Imm(0)) {
            let null = AbsVal::constant(0);
            let value = AbsVal::pointer(Prov::MapValue(m), 0);
            match c.op {
                JmpOp::Jeq => {
                    taken.regs[lr] = null;
                    fall.regs[lr] = value;
                }
                JmpOp::Jne => {
                    taken.regs[lr] = value;
                    fall.regs[lr] = null;
                }
                _ => {}
            }
        }
    }

    // Equality against a constant pins packet-sourced bytes on the equal
    // edge: each byte of the compared value that *is* an original packet
    // byte at a guarded offset must equal the constant's byte there.
    if matches!(c.op, JmpOp::Jeq | JmpOp::Jne) && l.prov == Prov::Scalar {
        if let Some(k) = (r.prov == Prov::Scalar).then(|| r.tn.as_const()).flatten() {
            let n = if c.width == Width::W32 { 4 } else { 8 };
            let edge = if c.op == JmpOp::Jeq { &mut *taken } else { &mut *fall };
            for (i, s) in l.src.iter().enumerate().take(n) {
                if let ByteSrc::Pkt(o) = s {
                    if let Some(g) = guard_slot(*o) {
                        edge.pkt_guard[g] = Guard::One((k >> (8 * i)) as u8);
                    }
                }
            }
        }
    }

    // Constant comparisons clamp the scalar interval on each edge.
    if c.width == Width::W64 && l.prov == Prov::Scalar {
        if let Some(k) = (r.prov == Prov::Scalar).then(|| r.tn.as_const()).flatten() {
            let k = k as i64;
            let clamp = |v: &mut AbsVal, lo: Option<i64>, hi: Option<i64>| {
                let mut iv = v.iv;
                if let Some(lo) = lo {
                    iv.lo = iv.lo.max(lo);
                }
                if let Some(hi) = hi {
                    iv.hi = iv.hi.min(hi);
                }
                if iv.lo <= iv.hi {
                    v.iv = iv;
                }
            };
            let nonneg = l.iv.lo >= 0 && k >= 0;
            match c.op {
                JmpOp::Jeq => taken.regs[lr] = AbsVal::constant(k),
                JmpOp::Jne => fall.regs[lr] = AbsVal::constant(k),
                JmpOp::Jsgt => {
                    clamp(&mut taken.regs[lr], Some(k + 1), None);
                    clamp(&mut fall.regs[lr], None, Some(k));
                }
                JmpOp::Jsge => {
                    clamp(&mut taken.regs[lr], Some(k), None);
                    clamp(&mut fall.regs[lr], None, Some(k - 1));
                }
                JmpOp::Jslt => {
                    clamp(&mut taken.regs[lr], None, Some(k - 1));
                    clamp(&mut fall.regs[lr], Some(k), None);
                }
                JmpOp::Jsle => {
                    clamp(&mut taken.regs[lr], None, Some(k));
                    clamp(&mut fall.regs[lr], Some(k + 1), None);
                }
                JmpOp::Jgt if nonneg => {
                    clamp(&mut taken.regs[lr], Some(k + 1), None);
                    clamp(&mut fall.regs[lr], Some(0), Some(k));
                }
                JmpOp::Jge if nonneg => {
                    clamp(&mut taken.regs[lr], Some(k), None);
                    clamp(&mut fall.regs[lr], Some(0), Some(k - 1));
                }
                JmpOp::Jlt if nonneg => {
                    clamp(&mut taken.regs[lr], Some(0), Some(k - 1));
                    clamp(&mut fall.regs[lr], Some(k), None);
                }
                JmpOp::Jle if nonneg => {
                    clamp(&mut taken.regs[lr], Some(0), Some(k));
                    clamp(&mut fall.regs[lr], Some(k + 1), None);
                }
                _ => {}
            }
        }
    }
}

/// Apply one non-branch instruction to `st`. Returns `false` for `Exit`
/// (no fall-through successor).
fn step(st: &mut State, insn: &Instruction) -> bool {
    use crate::helpers::*;
    match *insn {
        Instruction::Alu { op, width, dst, src } => {
            let b = operand_val(st, src);
            st.regs[dst as usize] = alu_abs(op, width, st.regs[dst as usize], b);
        }
        Instruction::Endian { dst, bits, to_be } => {
            let v = st.regs[dst as usize];
            st.regs[dst as usize] = match v.as_const() {
                Some(x) => AbsVal::constant(endian_eval(x, bits, to_be) as i64),
                None => {
                    let mut out = match bits {
                        16 => AbsVal::sized(MemSize::H),
                        32 => AbsVal::sized(MemSize::W),
                        _ => {
                            AbsVal { prov: Prov::Scalar, iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP }
                        }
                    };
                    // Byte sources move whole: `to_be` on a little-endian
                    // host reverses the low bits/8 bytes, `to_le` keeps
                    // them (both truncate the rest to zero).
                    if v.prov == Prov::Scalar {
                        let n = ((bits / 8) as usize).min(8);
                        for i in 0..n {
                            out.src[i] = if to_be { v.src[n - 1 - i] } else { v.src[i] };
                        }
                    }
                    out
                }
            };
        }
        Instruction::LoadImm64 { dst, imm, map } => {
            st.regs[dst as usize] = match map {
                Some(id) => AbsVal::pointer(Prov::MapHandle(id), 0),
                None => AbsVal::constant(imm as i64),
            };
        }
        Instruction::Load { size, dst, src, off } => {
            let base = st.regs[src as usize];
            st.regs[dst as usize] = match base.prov {
                Prov::Ctx => match base.iv.as_const().map(|c| c + off as i64) {
                    Some(0) if size == MemSize::W => AbsVal::pointer(Prov::PacketPtr, 0),
                    Some(4) if size == MemSize::W => AbsVal::pointer(Prov::PacketEnd, 0),
                    _ => AbsVal::sized(size),
                },
                Prov::StackPtr => base
                    .iv
                    .as_const()
                    .and_then(|c| {
                        let addr = c + off as i64;
                        if size == MemSize::Dw {
                            st.stack_load(addr, 8)
                        } else {
                            st.stack_load_partial(addr, size)
                        }
                    })
                    .unwrap_or_else(|| AbsVal::sized(size)),
                Prov::PacketPtr => match base.iv.as_const().map(|c| c + off as i64) {
                    // Before any packet write, a constant-offset load reads
                    // exactly the original wire bytes the steering hash saw.
                    Some(o) if !st.pkt_dirty && (0..i64::from(u16::MAX) - 8).contains(&o) => {
                        AbsVal::sized_from(size, |i| ByteSrc::Pkt(o as u16 + i as u16))
                    }
                    _ => AbsVal::sized(size),
                },
                Prov::MapValue(_) => AbsVal::sized_from(size, |_| ByteSrc::MapVal),
                _ => AbsVal::sized(size),
            };
        }
        Instruction::Store { size, dst, off, src } => {
            let base = st.regs[dst as usize];
            let val = operand_val(st, src);
            store_effect(st, base, off, size, Some(val));
        }
        Instruction::Atomic { op, size, dst, off, src } => {
            let base = st.regs[dst as usize];
            store_effect(st, base, off, size, None);
            let fetched = if matches!(base.prov, Prov::MapValue(_)) {
                AbsVal::sized_from(size, |_| ByteSrc::MapVal)
            } else {
                AbsVal::sized(size)
            };
            match op {
                AtomicOp::Cmpxchg => st.regs[0] = fetched,
                _ if op.fetches() => st.regs[src as usize] = fetched,
                _ => {}
            }
        }
        Instruction::Call { helper } => {
            let r0 = match helper {
                BPF_MAP_LOOKUP_ELEM => match st.regs[1].prov {
                    Prov::MapHandle(m) => AbsVal {
                        prov: Prov::NullOrMapValue(m),
                        iv: Iv::TOP,
                        tn: Tnum::TOP,
                        src: SRC_TOP,
                    },
                    _ => AbsVal::TOP,
                },
                BPF_MAP_UPDATE_ELEM | BPF_MAP_DELETE_ELEM | BPF_CSUM_DIFF | BPF_REDIRECT
                | BPF_KTIME_GET_NS => AbsVal::TOP,
                BPF_GET_PRANDOM_U32 | BPF_GET_SMP_PROCESSOR_ID => AbsVal::sized(MemSize::W),
                BPF_XDP_ADJUST_HEAD | BPF_XDP_ADJUST_TAIL => {
                    st.clobber_packet();
                    AbsVal::TOP
                }
                _ => {
                    // Unknown helper: assume the worst on all tracked state.
                    st.clobber_packet();
                    st.clobber_stack();
                    AbsVal::TOP
                }
            };
            st.regs[0] = r0;
            for r in 1..=5 {
                st.regs[r] = AbsVal::TOP;
            }
        }
        Instruction::Exit => return false,
        Instruction::Jump { .. } => {}
    }
    true
}

/// Memory-write effect of a store/atomic on the tracked stack.
fn store_effect(st: &mut State, base: AbsVal, off: i16, size: MemSize, val: Option<AbsVal>) {
    let len = size.bytes() as i64;
    match base.prov {
        Prov::StackPtr => match base.iv.as_const() {
            Some(c) => st.stack_store(c + off as i64, len, val),
            // Dynamic stack offset: anything in the frame may change.
            None => st.clobber_stack(),
        },
        // Packet writes leave the *original* bytes (and the guards over
        // them) valid, but later loads no longer observe them.
        Prov::PacketPtr => st.pkt_dirty = true,
        Prov::PacketEnd
        | Prov::MapValue(_)
        | Prov::Ctx
        | Prov::NullOrMapValue(_)
        | Prov::MapHandle(_) => {}
        // A scalar/unknown base can alias the stack or the packet (e.g.
        // an address reconstructed from a spill): be conservative.
        Prov::Scalar | Prov::Unknown => {
            st.pkt_dirty = true;
            st.clobber_stack();
        }
    }
}

// ---------------------------------------------------------------------------
// The fixpoint driver.
// ---------------------------------------------------------------------------

/// The instruction stream cut at its block leaders — the entry and every
/// jump target, the only instructions with more than one way in. Only a
/// leader keeps a state; between leaders one scratch state is stepped
/// down the straight-line code, so a state is copied (sparsely, with
/// [`State::copy_from`]) per block and per branch rather than per
/// instruction.
struct Blocks<'a> {
    decoded: &'a [Decoded],
    leader: Vec<bool>,
}

impl<'a> Blocks<'a> {
    fn new(decoded: &'a [Decoded]) -> Blocks<'a> {
        let mut blocks = Blocks { decoded, leader: vec![false; decoded.len()] };
        blocks.leader[0] = true;
        for d in decoded {
            if let Instruction::Jump { target, .. } = d.insn {
                if let Some(j) = blocks.target_idx(target) {
                    blocks.leader[j] = true;
                }
            }
        }
        blocks
    }

    /// The decoded index of the instruction at `slot` (`None` inside a
    /// wide instruction or past the end).
    fn target_idx(&self, slot: usize) -> Option<usize> {
        crate::insn::index_of(self.decoded, slot)
    }

    /// Walk from leader `b`, whose state `st` holds, until the code ends,
    /// exits, jumps away or runs into the next leader: `visit(i, st)` sees
    /// the state in front of every instruction reached, `flow(j, st)` the
    /// state each edge carries into leader `j`. `taken` is scratch for a
    /// branch's taken edge.
    fn walk(
        &self,
        b: usize,
        st: &mut State,
        taken: &mut State,
        mut visit: impl FnMut(usize, &State),
        mut flow: impl FnMut(usize, &State),
    ) {
        for i in b..self.decoded.len() {
            if i > b && self.leader[i] {
                return flow(i, st);
            }
            visit(i, st);
            match self.decoded[i].insn {
                Instruction::Jump { cond: None, target } => {
                    if let Some(j) = self.target_idx(target) {
                        flow(j, st);
                    }
                    return;
                }
                Instruction::Jump { cond: Some(c), target } => {
                    let l = st.regs[c.lhs as usize];
                    let r = operand_val(st, c.rhs);
                    let outcome = decide(c.op, c.width, l, r);
                    taken.copy_from(st);
                    refine_edges(c, l, r, taken, st);
                    if outcome != Some(false) {
                        if let Some(j) = self.target_idx(target) {
                            flow(j, taken);
                        }
                    }
                    if outcome == Some(true) {
                        return;
                    }
                }
                ref insn => {
                    if !step(st, insn) {
                        return;
                    }
                }
            }
        }
    }
}

/// Can [`step`] change the tracked stack on this instruction? Stores and
/// atomics write it and helpers may clobber it; everything else writes
/// registers only.
fn may_write_stack(insn: &Instruction) -> bool {
    matches!(
        insn,
        Instruction::Store { .. } | Instruction::Atomic { .. } | Instruction::Call { .. }
    )
}

/// The fixpoint stepped more instructions than its work budget allows
/// (200,000) and stopped without facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

/// Run the abstract interpretation over a decoded instruction stream.
///
/// Total and panic-free for arbitrary (even unverifiable) input: paths the
/// analysis cannot model degrade to ⊤, and a blown work budget yields an
/// empty [`Analysis`].
pub fn analyze(decoded: &[Decoded]) -> Analysis {
    analyze_with(decoded, |_, _| {}).unwrap_or_default()
}

/// As [`analyze`], and `visit(i, regs)` sees the register file in front of
/// every reached instruction `decoded[i]`, once each, in stream order
/// within a block. Instructions only on the dead side of a decided branch
/// are never visited.
///
/// # Errors
///
/// [`BudgetExceeded`] when the fixpoint outgrows its work budget; `visit`
/// is then never called.
pub fn analyze_with(
    decoded: &[Decoded],
    mut visit: impl FnMut(usize, &[AbsVal; 11]),
) -> Result<Analysis, BudgetExceeded> {
    let n = decoded.len();
    if n == 0 {
        return Ok(Analysis::default());
    }
    let blocks = Blocks::new(decoded);

    let mut states: Vec<Option<Box<State>>> = (0..n).map(|_| None).collect();
    let mut joins = vec![0u32; n];
    states[0] = Some(State::entry());
    // The walk's two scratch states, reused for every block.
    let (mut cur, mut taken) = (State::entry(), State::entry());
    let mut work = std::collections::VecDeque::with_capacity(n);
    work.push_back(0usize);
    let mut queued = vec![false; n];
    queued[0] = true;

    let mut pops = 0usize;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let Some(st) = states[b].as_deref() else { continue };
        cur.copy_from(st);
        blocks.walk(
            b,
            &mut cur,
            &mut taken,
            |_, _| pops += 1,
            |j, out| {
                let changed = match &mut states[j] {
                    slot @ None => {
                        let mut first = State::entry();
                        first.copy_from(out);
                        *slot = Some(first);
                        true
                    }
                    Some(prev) => {
                        joins[j] += 1;
                        join_states(prev, out, joins[j] >= WIDEN_AFTER)
                    }
                };
                if changed && !queued[j] {
                    queued[j] = true;
                    work.push_back(j);
                }
            },
        );
        if pops > POP_BUDGET {
            return Err(BudgetExceeded);
        }
    }

    // Final pass: walk every reached block once more from its stable
    // leader state, read the facts off the state in front of each
    // instruction and hand its registers to the caller.
    let mut analysis =
        Analysis { stack_slots: vec![SlotInfo::default(); STACK_SLOTS], ..Analysis::default() };
    // Join of every value each slot holds anywhere, starting from the
    // entry state (which every join below covers). `seen` is the stack as
    // last folded in: joining a value twice changes nothing, so a slot is
    // folded only when it differs, and looked at only after an instruction
    // that can write the stack or at a block start. A slot outside the
    // state's `written` mask holds the entry zero, already folded in, and
    // join(x, 0) = x once x covers 0: only the written slots are visited.
    let mut slot_acc = [AbsVal::constant(0); STACK_SLOTS];
    let mut seen = slot_acc;
    // Constant tracking ignores the implicit zero initialization:
    // None = only zeros seen, Some(Some(k)) = zeros and the constant k,
    // Some(None) = varying values.
    let mut const_acc: [Option<Option<u64>>; STACK_SLOTS] = [None; STACK_SLOTS];
    let reached = (0..n).filter_map(|b| states[b].as_deref().map(|st| (b, st)));
    for (b, leader_state) in reached {
        let facts = |i: usize, st: &State| {
            visit(i, &st.regs);
            let d = &decoded[i];
            if i == b || may_write_stack(&decoded[i - 1].insn) {
                for s in slots(st.written) {
                    let v = &st.stack[s];
                    if *v == seen[s] {
                        continue;
                    }
                    seen[s] = *v;
                    slot_acc[s] = slot_acc[s].join(*v);
                    let k = (v.prov == Prov::Scalar).then(|| v.tn.as_const()).flatten();
                    match (k, const_acc[s]) {
                        (Some(0), _) => {}
                        (Some(k), None) => const_acc[s] = Some(Some(k)),
                        (Some(k), Some(Some(prev))) if k == prev => {}
                        _ => const_acc[s] = Some(None),
                    }
                }
            }
            debug_assert!(
                (0..STACK_SLOTS).all(|s| if st.written >> s & 1 == 1 {
                    st.stack[s] == seen[s]
                } else {
                    st.stack[s] == AbsVal::constant(0)
                }),
                "only stores, atomics and calls write the stack, and only the slots in `written`"
            );
            match d.insn {
                Instruction::Call { helper }
                    if matches!(
                        helper,
                        crate::helpers::BPF_MAP_LOOKUP_ELEM
                            | crate::helpers::BPF_MAP_UPDATE_ELEM
                            | crate::helpers::BPF_MAP_DELETE_ELEM
                    ) =>
                {
                    if let Prov::MapHandle(m) = st.regs[1].prov {
                        let ptr_bytes = |r: usize| {
                            let p = st.regs[r];
                            (p.prov == Prov::StackPtr)
                                .then(|| p.iv.as_const())
                                .flatten()
                                .and_then(|c| st.stack_bytes(c, 64))
                        };
                        analysis.map_keys.push(MapKeyFact {
                            pc: d.pc,
                            map: m,
                            helper,
                            key: ptr_bytes(2),
                            value: (helper == crate::helpers::BPF_MAP_UPDATE_ELEM)
                                .then(|| ptr_bytes(3))
                                .flatten(),
                            tuple_guarded: st.tuple_guarded(),
                            proto: match st.pkt_guard[2] {
                                Guard::One(v) => Some(v),
                                _ => None,
                            },
                            min_len: st.pkt_len_min,
                        });
                    }
                }
                Instruction::Load { src, .. } => {
                    if let Prov::MapValue(m) = st.regs[src as usize].prov {
                        analysis.map_val_accesses.push(MapValAccessFact {
                            pc: d.pc,
                            map: m,
                            kind: MapValAccessKind::Load,
                        });
                    }
                }
                Instruction::Store { dst, .. } => {
                    if let Prov::MapValue(m) = st.regs[dst as usize].prov {
                        analysis.map_val_accesses.push(MapValAccessFact {
                            pc: d.pc,
                            map: m,
                            kind: MapValAccessKind::Store,
                        });
                    }
                }
                Instruction::Atomic { op, dst, src, .. } => {
                    if let Prov::MapValue(m) = st.regs[dst as usize].prov {
                        let kind = match op {
                            AtomicOp::Add { fetch } => {
                                let v = st.regs[src as usize];
                                let pure = v.prov == Prov::Scalar
                                    && v.src
                                        .iter()
                                        .all(|b| matches!(b, ByteSrc::Zero | ByteSrc::Const));
                                MapValAccessKind::AtomicAdd { fetch, pure_operand: pure }
                            }
                            _ => MapValAccessKind::AtomicOther,
                        };
                        analysis.map_val_accesses.push(MapValAccessFact { pc: d.pc, map: m, kind });
                    }
                }
                _ => {}
            }
            let fact = match d.insn {
                Instruction::Load { size, src, off, .. } => {
                    access_fact(st, st.regs[src as usize], off, size, d.pc)
                }
                Instruction::Store { size, dst, off, .. }
                | Instruction::Atomic { size, dst, off, .. } => {
                    access_fact(st, st.regs[dst as usize], off, size, d.pc)
                }
                Instruction::Jump { cond: Some(c), .. } => {
                    let l = st.regs[c.lhs as usize];
                    let r = operand_val(st, c.rhs);
                    if let Some(b) = decide(c.op, c.width, l, r) {
                        analysis.branches.push((d.pc, b));
                    }
                    None
                }
                _ => None,
            };
            if let Some(f) = fact {
                analysis.packet_accesses += 1;
                if f.proven {
                    analysis.proven_accesses += 1;
                    let end = f.hi + f.size;
                    analysis.max_proven_end =
                        Some(analysis.max_proven_end.map_or(end, |m: i64| m.max(end)));
                }
                analysis.facts.push(f);
            }
        };
        cur.copy_from(leader_state);
        blocks.walk(b, &mut cur, &mut taken, facts, |_, _| {});
    }
    debug_assert!(
        analysis.facts.windows(2).all(|w| w[0].pc < w[1].pc)
            && analysis.branches.windows(2).all(|w| w[0].0 < w[1].0),
        "the final pass visits each reached instruction once, in stream order"
    );
    analysis.all_packet_proven = analysis.proven_accesses == analysis.packet_accesses;
    for ((info, v), cacc) in analysis.stack_slots.iter_mut().zip(slot_acc).zip(const_acc) {
        if v.prov == Prov::Scalar {
            info.constant = match cacc {
                None => Some(0),
                Some(k) => k,
            };
            let highest = 64 - (v.tn.value | v.tn.mask).leading_zeros();
            let mut width = highest as u8;
            if v.iv.lo >= 0 && !v.iv.is_top() {
                let iv_bits = (64 - (v.iv.hi as u64).leading_zeros()) as u8;
                width = width.min(iv_bits);
            }
            info.width = width;
        }
    }
    Ok(analysis)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::decode;
    use crate::opcode::MemSize;

    fn analyze_asm(a: Asm) -> Analysis {
        analyze(&decode(&a.into_insns()).unwrap())
    }

    #[test]
    fn tnum_algebra() {
        let a = Tnum::constant(0xf0);
        let b = Tnum::constant(0x0f);
        assert_eq!(a.or(b).as_const(), Some(0xff));
        assert_eq!(a.add(b).as_const(), Some(0xff));
        assert_eq!(a.sub(b).as_const(), Some(0xe1));
        let j = a.join(b);
        assert!(j.contains(0xf0) && j.contains(0x0f));
        assert_eq!(j.as_const(), None);
        assert!(Tnum::TOP.contains(0xdead));
        assert_eq!(Tnum::constant(6).shl(2).as_const(), Some(24));
    }

    #[test]
    fn classic_bounds_check_proves_access() {
        // r2 = data; r3 = data_end; r4 = r2 + 34;
        // if r4 > r3 goto drop; r0 = *(u16*)(r2 + 12); exit
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 2, 1, 0);
        a.load(MemSize::W, 3, 1, 4);
        a.mov64_reg(4, 2);
        a.alu64_imm(AluOp::Add, 4, 34);
        a.jmp_reg(JmpOp::Jgt, 4, 3, drop);
        a.load(MemSize::H, 0, 2, 12);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.packet_accesses, 1);
        assert_eq!(an.proven_accesses, 1);
        assert!(an.all_packet_proven);
        let f = an.facts().next().unwrap();
        assert_eq!((f.lo, f.hi, f.size), (12, 12, 2));
        assert!(f.min_len >= 14);
        assert_eq!(an.max_proven_end, Some(14));
    }

    #[test]
    fn unchecked_access_stays_unproven() {
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, 0);
        a.load(MemSize::B, 0, 2, 5); // no bounds check anywhere
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.packet_accesses, 1);
        assert_eq!(an.proven_accesses, 0);
        assert!(!an.all_packet_proven);
    }

    #[test]
    fn dead_branch_is_decided() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.mov64_imm(2, 7);
        a.jmp_imm(JmpOp::Jgt, 2, 10, l); // 7 > 10 never taken
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(l);
        a.mov64_imm(0, 1);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.branch_outcome(1), Some(false));
        assert_eq!(an.decided_branches(), 1);
    }

    #[test]
    fn spill_fill_keeps_packet_provenance() {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 2, 1, 0);
        a.load(MemSize::W, 3, 1, 4);
        a.store_reg(MemSize::Dw, 10, -8, 2); // spill data ptr
        a.mov64_reg(4, 2);
        a.alu64_imm(AluOp::Add, 4, 20);
        a.jmp_reg(JmpOp::Jgt, 4, 3, drop);
        a.load(MemSize::Dw, 5, 10, -8); // fill
        a.load(MemSize::W, 0, 5, 16);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.packet_accesses, 1);
        assert_eq!(an.proven_accesses, 1);
    }

    #[test]
    fn adjust_head_invalidates_bounds() {
        use crate::helpers::BPF_XDP_ADJUST_HEAD;
        let mut a = Asm::new();
        let drop = a.new_label();
        a.mov64_reg(6, 1); // keep ctx across the call
        a.load(MemSize::W, 2, 1, 0);
        a.load(MemSize::W, 3, 1, 4);
        a.mov64_reg(4, 2);
        a.alu64_imm(AluOp::Add, 4, 14);
        a.jmp_reg(JmpOp::Jgt, 4, 3, drop);
        a.mov64_reg(1, 6);
        a.mov64_imm(2, -14);
        a.call(BPF_XDP_ADJUST_HEAD);
        a.load(MemSize::W, 2, 6, 0); // re-derive data
        a.load(MemSize::B, 0, 2, 4); // NOT provable: old check is stale
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.packet_accesses, 1);
        assert_eq!(an.proven_accesses, 0);
    }

    #[test]
    fn constant_stack_slot_summarized() {
        let mut a = Asm::new();
        a.store_imm(MemSize::Dw, 10, -8, 42);
        a.load(MemSize::Dw, 0, 10, -8);
        a.exit();
        let an = analyze_asm(a);
        let slot = an.stack_slots[STACK_SLOTS - 1]; // fp-8 is the last slot
        assert_eq!(slot.constant, Some(42));
        assert!(slot.width <= 6);
    }

    #[test]
    fn widening_terminates_on_back_edges() {
        // A backward jump guarded by a counter the analysis cannot fully
        // resolve must still reach a fixpoint.
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov64_imm(2, 0);
        a.bind(top);
        a.alu64_imm(AluOp::Add, 2, 1);
        a.jmp_imm(JmpOp::Jlt, 2, 1000, top);
        a.mov64_imm(0, 2);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.packet_accesses, 0);
    }

    #[test]
    fn analysis_is_total_on_garbage() {
        // Unverifiable stream: reads uninitialized regs, stores through
        // scalars, jumps to the end slot. Must not panic.
        let mut a = Asm::new();
        let end = a.new_label();
        a.store_reg(MemSize::W, 3, 0, 4);
        a.alu64_reg(AluOp::Mul, 3, 3);
        a.jmp_imm(JmpOp::Jeq, 3, 9, end);
        a.load(MemSize::Dw, 4, 3, 0);
        a.bind(end);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.proven_accesses, 0);
    }

    #[test]
    fn empty_program_yields_empty_analysis() {
        let an = analyze(&[]);
        assert_eq!(an.packet_accesses, 0);
        assert!(an.stack_slots.is_empty());
    }

    #[test]
    fn null_checked_on_one_path_joins_to_maybe_null() {
        let maybe =
            AbsVal { prov: Prov::NullOrMapValue(3), iv: Iv::TOP, tn: Tnum::TOP, src: SRC_TOP };
        let null = AbsVal::constant(0);
        let value = AbsVal::pointer(Prov::MapValue(3), 0);
        for (x, y) in [(null, value), (value, null), (null, maybe), (value, maybe), (maybe, value)]
        {
            let j = x.join(y);
            assert_eq!((j.prov, j.iv, j.tn), (Prov::NullOrMapValue(3), Iv::TOP, Tnum::TOP));
        }
        // Any other scalar, another map or an interior pointer is not the
        // null-or-value pair a later null check splits.
        assert_eq!(AbsVal::constant(1).join(value).prov, Prov::Unknown);
        assert_eq!(
            value.join(AbsVal { prov: Prov::NullOrMapValue(4), ..maybe }).prov,
            Prov::Unknown
        );
        assert_eq!(null.join(AbsVal::pointer(Prov::MapValue(3), 8)).prov, Prov::Unknown);
    }

    #[test]
    fn fivetuple_key_bytes_are_packet_sourced_and_guarded() {
        use crate::helpers::{BPF_MAP_LOOKUP_ELEM, BPF_MAP_UPDATE_ELEM};
        // prologue-like setup, bounds check to 42, ethertype + proto
        // guards, 13-byte 5-tuple key at fp-16, then lookup + update.
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 42);
        a.jmp_reg(JmpOp::Jgt, 1, 8, out);
        // ethertype: two byte loads merged big-endian
        a.load(MemSize::B, 2, 7, 12);
        a.load(MemSize::B, 1, 7, 13);
        a.alu64_imm(AluOp::Lsh, 2, 8);
        a.alu64_reg(AluOp::Or, 2, 1);
        a.jmp_imm(JmpOp::Jne, 2, 0x0800, out);
        a.load(MemSize::B, 2, 7, 23);
        a.jmp_imm(JmpOp::Jne, 2, 17, out);
        // key = {saddr, daddr, ports word, proto}
        a.load(MemSize::W, 1, 7, 26);
        a.store_reg(MemSize::W, 10, -16, 1);
        a.load(MemSize::W, 1, 7, 30);
        a.store_reg(MemSize::W, 10, -12, 1);
        a.load(MemSize::W, 1, 7, 34);
        a.store_reg(MemSize::W, 10, -8, 1);
        a.load(MemSize::B, 1, 7, 23);
        a.store_reg(MemSize::B, 10, -4, 1);
        a.ld_map_fd(1, 3);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -16);
        a.call(BPF_MAP_LOOKUP_ELEM);
        // update with a constant value at fp-48
        a.mov64_imm(1, 1);
        a.store_reg(MemSize::Dw, 10, -48, 1);
        a.ld_map_fd(1, 3);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -16);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -48);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        a.bind(out);
        a.mov64_imm(0, 2);
        a.exit();

        let an = analyze_asm(a);
        assert_eq!(an.map_keys.len(), 2);
        for f in &an.map_keys {
            assert_eq!(f.map, 3);
            assert!(f.tuple_guarded, "guards must be learned on the call path");
            assert!(f.min_len >= 38);
            let key = f.key.as_ref().unwrap();
            let expect: Vec<ByteSrc> = (26..34)
                .map(ByteSrc::Pkt)
                .chain((34..38).map(ByteSrc::Pkt))
                .chain([ByteSrc::Pkt(23)])
                .collect();
            assert_eq!(&key[..13], &expect[..]);
        }
        let upd = an.map_keys.iter().find(|f| f.helper == BPF_MAP_UPDATE_ELEM).unwrap();
        let val = upd.value.as_ref().unwrap();
        assert!(val[..8].iter().all(|b| matches!(b, ByteSrc::Zero | ByteSrc::Const)));
    }

    #[test]
    fn atomic_add_kinds_and_fetched_value_taint() {
        use crate::helpers::BPF_MAP_LOOKUP_ELEM;
        let mut a = Asm::new();
        let out = a.new_label();
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 9);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, out);
        // blind constant add, then a fetching add whose result taints r2
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.mov64_imm(2, 1);
        a.atomic(crate::opcode::AtomicOp::Add { fetch: true }, MemSize::Dw, 0, 0, 2);
        // an add whose operand derives from fetched map state: not pure
        a.atomic_add64(0, 0, 2);
        a.bind(out);
        a.mov64_imm(0, 2);
        a.exit();

        let an = analyze_asm(a);
        let kinds: Vec<_> = an.map_val_accesses.iter().map(|f| (f.map, f.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (9, MapValAccessKind::AtomicAdd { fetch: false, pure_operand: true }),
                (9, MapValAccessKind::AtomicAdd { fetch: true, pure_operand: true }),
                (9, MapValAccessKind::AtomicAdd { fetch: false, pure_operand: false }),
            ]
        );
        // key of the lookup is a pure constant
        let k = an.map_keys[0].key.as_ref().unwrap();
        assert!(k[..4].iter().all(|b| matches!(b, ByteSrc::Zero | ByteSrc::Const)));
        assert!(!an.map_keys[0].tuple_guarded);
    }

    #[test]
    fn packet_rewrite_dirties_later_loads() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 42);
        a.jmp_reg(JmpOp::Jgt, 1, 8, out);
        a.load(MemSize::W, 1, 7, 26); // clean: Pkt(26..30)
        a.store_reg(MemSize::W, 10, -8, 1);
        a.mov64_imm(1, 7);
        a.store_reg(MemSize::B, 7, 26, 1); // packet write
        a.load(MemSize::W, 1, 7, 26); // dirty: Other
        a.store_reg(MemSize::W, 10, -16, 1);
        a.bind(out);
        a.mov64_imm(0, 2);
        a.exit();
        let an = analyze_asm(a);
        // Reach into the harvested states indirectly via a lookup-free
        // assertion: re-run and inspect final stack slot sources.
        let _ = an;
        // (The direct assertions live in the shardcheck integration; here
        // we only require analysis not to regress.)
    }

    #[test]
    fn endian_swap_moves_packet_byte_sources() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 42);
        a.jmp_reg(JmpOp::Jgt, 1, 8, out);
        a.load(MemSize::H, 2, 7, 12); // [Pkt(12), Pkt(13), 0...]
        a.to_be(2, 16); // [Pkt(13), Pkt(12), 0...]
        a.jmp_imm(JmpOp::Jne, 2, 0x0800, out);
        a.load(MemSize::B, 2, 7, 23);
        a.jmp_imm(JmpOp::Jne, 2, 6, out);
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -4, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(crate::helpers::BPF_MAP_LOOKUP_ELEM);
        a.bind(out);
        a.mov64_imm(0, 2);
        a.exit();
        let an = analyze_asm(a);
        assert_eq!(an.map_keys.len(), 1);
        assert!(an.map_keys[0].tuple_guarded, "be16 ethertype guard must be understood");
    }
}
