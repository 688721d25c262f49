//! Compiler intermediate representation: hardware instructions, memory
//! labels, and the resources (state elements) each instruction reads and
//! writes.

use ehdl_ebpf::insn::{Instruction, Operand};
use ehdl_ebpf::opcode::{AluOp, Width};
use ehdl_ebpf::put;
use ehdl_ebpf::put::Piece;
use std::fmt;

/// A closed integer interval used for offset tracking. Saturating; the
/// canonical "unknown" is [`Interval::TOP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The full range (unknown offset).
    pub const TOP: Interval = Interval { lo: i64::MIN / 4, hi: i64::MAX / 4 };

    /// A single point.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Construct from bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Smallest interval covering both.
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// True if this is a single known constant.
    pub fn as_const(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True when this interval is effectively unbounded.
    pub fn is_top(self) -> bool {
        self.lo <= Interval::TOP.lo || self.hi >= Interval::TOP.hi
    }

    /// Do two intervals overlap?
    pub fn overlaps(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

impl Piece for Interval {
    fn put(self, o: &mut String) {
        if self.is_top() {
            o.push_str("[?]");
        } else if let Some(c) = self.as_const() {
            put!(o, '[', c, ']');
        } else {
            put!(o, '[', self.lo, "..", self.hi, ']');
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ehdl_ebpf::put::fmt(*self, f)
    }
}

/// A state element read or written by an instruction. Intervals make the
/// dependence analysis precise enough for byte-disjoint stack slots and
/// packet fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// One of `r0`–`r10`.
    Reg(u8),
    /// Stack bytes at `r10 + [lo, hi]` (inclusive byte range).
    Stack(Interval),
    /// Packet bytes `data + [lo, hi]`.
    Packet(Interval),
    /// The memory of map `id` (whole-map granularity).
    MapMem(u32),
    /// Helper-internal state (prandom generator, clock ordering).
    HelperState,
    /// Packet geometry (`data`/`data_end` moved by `xdp_adjust_head`).
    PacketGeometry,
}

impl Resource {
    /// Do two resources conflict (access the same state)?
    pub fn conflicts(self, other: Resource) -> bool {
        use Resource::*;
        match (self, other) {
            (Reg(a), Reg(b)) => a == b,
            (Stack(a), Stack(b)) => a.overlaps(b),
            (Packet(a), Packet(b)) => a.overlaps(b),
            (MapMem(a), MapMem(b)) => a == b,
            (HelperState, HelperState) => true,
            (PacketGeometry, PacketGeometry) => true,
            // Moving the packet head conflicts with any packet access.
            (PacketGeometry, Packet(_)) | (Packet(_), PacketGeometry) => true,
            _ => false,
        }
    }
}

/// Memory area labels attached to load/store/call instructions (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLabel {
    /// Not a memory instruction.
    None,
    /// Program stack at the given byte interval.
    Stack(Interval),
    /// Packet buffer at the given byte interval.
    Packet(Interval),
    /// The `xdp_md` struct (context reads).
    Ctx(Interval),
    /// Map memory of the given map.
    Map(u32),
}

/// How an instruction interacts with a map, for hazard analysis (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapUse {
    /// `bpf_map_lookup_elem` (reads the index structure).
    Lookup(u32),
    /// `bpf_map_update_elem` / `bpf_map_delete_elem` (writes the index).
    HelperWrite(u32),
    /// Load through a value pointer.
    LoadValue(u32),
    /// Store through a value pointer.
    StoreValue(u32),
    /// Atomic read-modify-write on a value (handled by the atomic block).
    Atomic(u32),
}

impl MapUse {
    /// The map this use touches.
    pub fn map(self) -> u32 {
        match self {
            MapUse::Lookup(m)
            | MapUse::HelperWrite(m)
            | MapUse::LoadValue(m)
            | MapUse::StoreValue(m)
            | MapUse::Atomic(m) => m,
        }
    }
}

/// A hardware instruction: either an original eBPF instruction or a fused
/// form synthesized by §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwInsn {
    /// Unmodified eBPF semantics.
    Simple(Instruction),
    /// Three-operand ALU `dst = a op b`, fused from `mov dst,a; alu dst,b`.
    Alu3 {
        /// Operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: u8,
        /// First source register.
        a: u8,
        /// Second operand.
        b: Operand,
    },
}

impl HwInsn {
    /// Pretty name of the hardware primitive this lowers to (used by the
    /// VHDL emitter and resource model).
    pub fn primitive_name(&self) -> &'static str {
        match self {
            HwInsn::Alu3 { .. } => "alu3",
            HwInsn::Simple(i) => match i {
                Instruction::Alu { .. } => "alu",
                Instruction::Endian { .. } => "bswap",
                Instruction::LoadImm64 { .. } => "const64",
                Instruction::Load { .. } => "load",
                Instruction::Store { .. } => "store",
                Instruction::Atomic { .. } => "atomic",
                Instruction::Jump { .. } => "branch",
                Instruction::Call { .. } => "helper",
                Instruction::Exit => "exit",
            },
        }
    }
}

/// A recognized packet bounds check (`data + n > data_end` shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundsCheck {
    /// True if the *taken* edge of the branch is the out-of-bounds edge.
    pub oob_on_taken: bool,
    /// The packet byte count being checked.
    pub checked_len: Interval,
}

/// A packet-bounds fact proven by the abstract interpreter
/// (`ehdl_ebpf::absint`) for one memory access: the byte offset from
/// `data` always falls in `[lo, hi]`, and every path to the access has
/// established `data_end - data ≥ min_len ≥ hi + size`. Such an access
/// compiles to an *unguarded* load/store primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketProof {
    /// Proven lower bound of the access offset.
    pub lo: i64,
    /// Proven upper bound of the access offset (inclusive).
    pub hi: i64,
    /// Proven minimum packet length on every path to the access.
    pub min_len: i64,
}

/// One labeled instruction of the program being compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledInsn {
    /// Original bytecode slot (stable across passes; fused instructions
    /// keep the pc of their first constituent).
    pub pc: usize,
    /// The (possibly fused) hardware instruction.
    pub insn: HwInsn,
    /// Memory label from the §3.1 analysis.
    pub label: MemLabel,
    /// Map interaction, if any.
    pub map_use: Option<MapUse>,
    /// When set, this branch is a packet bounds check elided from the
    /// pipeline: the hardware enforces the bound at each access instead.
    pub elided: Option<BoundsCheck>,
    /// Packet access proven in-bounds by abstract interpretation; the
    /// primitive needs no dynamic guard.
    pub proof: Option<PacketProof>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn interval_algebra() {
        let a = Interval::point(4);
        let b = Interval::new(0, 10);
        assert_eq!(a.join(b), Interval::new(0, 10));
        assert_eq!(a.as_const(), Some(4));
        assert_eq!(b.as_const(), None);
        assert!(Interval::TOP.is_top());
        assert!(b.overlaps(Interval::new(10, 20)));
        assert!(!b.overlaps(Interval::new(11, 20)));
    }

    #[test]
    fn resource_conflicts() {
        use Resource::*;
        assert!(Reg(3).conflicts(Reg(3)));
        assert!(!Reg(3).conflicts(Reg(4)));
        assert!(Stack(Interval::new(-8, -1)).conflicts(Stack(Interval::new(-4, -4))));
        assert!(!Stack(Interval::new(-8, -5)).conflicts(Stack(Interval::new(-4, -1))));
        assert!(Packet(Interval::new(12, 13)).conflicts(Packet(Interval::new(13, 14))));
        assert!(MapMem(0).conflicts(MapMem(0)));
        assert!(!MapMem(0).conflicts(MapMem(1)));
        assert!(PacketGeometry.conflicts(Packet(Interval::new(0, 1))));
    }
}
