//! Reference eBPF/XDP virtual machine.
//!
//! This interpreter defines the ground-truth semantics that eHDL-generated
//! hardware pipelines must preserve: compiled designs are differentially
//! tested against it (same packets in → same XDP actions, packet bytes and
//! map contents out).
//!
//! # Memory model
//!
//! Real eBPF programs manipulate kernel pointers. The VM instead uses a
//! compact *virtual* 32-bit address space with disjoint regions, so that
//! `ctx->data` (a `u32` field in `struct xdp_md`) can hold a well-formed
//! packet address:
//!
//! | Region      | Base          | Contents                                |
//! |-------------|---------------|-----------------------------------------|
//! | packet      | `0x1000_0000` | packet bytes (with XDP headroom)        |
//! | stack       | `0x2000_0000` | 512-byte program stack, `r10` at top    |
//! | context     | `0x3000_0000` | `struct xdp_md`                         |
//! | map values  | `0x4000_0000` | per-map windows of slot-addressed values |
//! | map handles | `0x7000_0000` | opaque, only valid as helper `r1`        |

use crate::helpers::*;
use crate::insn::{Decoded, Instruction, JumpCond, Operand};
use crate::maps::{MapStore, UpdateFlags};
use crate::opcode::{AluOp, AtomicOp, JmpOp, MemSize, Width};
use crate::program::Program;
use std::fmt;

/// Base virtual address of the packet region.
pub const PACKET_BASE: u64 = 0x1000_0000;
/// Base virtual address of the stack region.
pub const STACK_BASE: u64 = 0x2000_0000;
/// Stack size in bytes (eBPF fixes this at 512).
pub const STACK_SIZE: u64 = 512;
/// Value loaded into `r10`: one past the top of the stack.
pub const STACK_TOP: u64 = STACK_BASE + STACK_SIZE;
/// Base virtual address of the `xdp_md` context.
pub const CTX_BASE: u64 = 0x3000_0000;
/// Base virtual address of map value windows.
pub const MAP_VALUE_BASE: u64 = 0x4000_0000;
/// Bits of addressing per map window (4 MiB each).
pub const MAP_WINDOW_BITS: u32 = 22;
/// Opaque map-handle encoding base.
pub const MAP_HANDLE_BASE: u64 = 0x7000_0000;
/// Headroom reserved in front of the packet for `bpf_xdp_adjust_head`.
pub const XDP_HEADROOM: usize = 256;

/// Offsets of `struct xdp_md` fields in the context region.
pub mod xdp_md {
    /// `ctx->data`.
    pub const DATA: i64 = 0;
    /// `ctx->data_end`.
    pub const DATA_END: i64 = 4;
    /// `ctx->data_meta`.
    pub const DATA_META: i64 = 8;
    /// `ctx->ingress_ifindex`.
    pub const INGRESS_IFINDEX: i64 = 12;
    /// `ctx->rx_queue_index`.
    pub const RX_QUEUE_INDEX: i64 = 16;
    /// `ctx->egress_ifindex`.
    pub const EGRESS_IFINDEX: i64 = 20;
    /// Size of the struct.
    pub const SIZE: i64 = 24;
}

/// XDP verdicts (`enum xdp_action`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XdpAction {
    /// Internal error; treated as drop with a trace.
    Aborted,
    /// Drop the packet.
    Drop,
    /// Pass up to the kernel network stack.
    Pass,
    /// Transmit back out of the receiving interface.
    Tx,
    /// Redirect to another interface.
    Redirect,
}

impl XdpAction {
    /// Decode from the `r0` value at `exit`. Unknown values abort, as the
    /// kernel does.
    pub fn from_r0(v: u64) -> XdpAction {
        match v {
            1 => XdpAction::Drop,
            2 => XdpAction::Pass,
            3 => XdpAction::Tx,
            4 => XdpAction::Redirect,
            0 => XdpAction::Aborted,
            _ => XdpAction::Aborted,
        }
    }

    /// The numeric action code.
    pub fn code(self) -> u64 {
        match self {
            XdpAction::Aborted => 0,
            XdpAction::Drop => 1,
            XdpAction::Pass => 2,
            XdpAction::Tx => 3,
            XdpAction::Redirect => 4,
        }
    }

    /// Whether the packet leaves the NIC (forwarded rather than dropped).
    pub fn forwards(self) -> bool {
        matches!(self, XdpAction::Pass | XdpAction::Tx | XdpAction::Redirect)
    }
}

impl fmt::Display for XdpAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            XdpAction::Aborted => "XDP_ABORTED",
            XdpAction::Drop => "XDP_DROP",
            XdpAction::Pass => "XDP_PASS",
            XdpAction::Tx => "XDP_TX",
            XdpAction::Redirect => "XDP_REDIRECT",
        };
        f.write_str(s)
    }
}

/// Result of one program execution over one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The XDP verdict.
    pub action: XdpAction,
    /// Raw `r0` at exit.
    pub r0: u64,
    /// Target interface if the program called `bpf_redirect`.
    pub redirect_ifindex: Option<u32>,
    /// Logical instructions executed (used by processor-baseline models).
    pub executed: usize,
    /// Helper calls executed on this packet's path.
    pub helper_calls: usize,
    /// Atomic memory operations executed on this packet's path.
    pub atomic_ops: usize,
}

/// Runtime errors. A correct, verifier-accepted program never hits these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Read/write outside any valid region.
    BadAccess {
        /// Offending virtual address.
        addr: u64,
        /// Access width.
        size: usize,
        /// Executing instruction slot.
        pc: usize,
    },
    /// Jump to a slot that is not an instruction boundary.
    BadPc {
        /// Offending slot.
        pc: usize,
    },
    /// Call to an unknown helper.
    UnknownHelper {
        /// Helper id.
        id: u32,
        /// Executing instruction slot.
        pc: usize,
    },
    /// Helper argument was not a valid map handle.
    BadMapHandle {
        /// Offending register value.
        value: u64,
        /// Executing instruction slot.
        pc: usize,
    },
    /// Step budget exhausted (runaway program).
    StepLimit {
        /// The budget that was exceeded.
        limit: usize,
    },
    /// Program ran off the end without `exit`.
    FellThrough,
    /// Bytecode failed to decode.
    Decode(crate::insn::DecodeError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadAccess { addr, size, pc } => {
                write!(f, "invalid {size}-byte access at {addr:#x} (pc {pc})")
            }
            VmError::BadPc { pc } => write!(f, "jump to invalid pc {pc}"),
            VmError::UnknownHelper { id, pc } => write!(f, "unknown helper {id} at pc {pc}"),
            VmError::BadMapHandle { value, pc } => {
                write!(f, "r1={value:#x} is not a map handle (pc {pc})")
            }
            VmError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
            VmError::FellThrough => write!(f, "program fell through without exit"),
            VmError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<crate::insn::DecodeError> for VmError {
    fn from(e: crate::insn::DecodeError) -> VmError {
        VmError::Decode(e)
    }
}

/// The reference interpreter.
///
/// A `Vm` owns the map state so that consecutive [`Vm::run`] calls model a
/// packet stream hitting the same loaded program.
#[derive(Debug, Clone)]
pub struct Vm {
    decoded: Vec<Decoded>,
    /// Map from slot index to decoded-instruction index.
    slot_index: Vec<Option<usize>>,
    maps: MapStore,
    step_limit: usize,
    prandom_state: u64,
    /// Nanosecond clock returned by `bpf_ktime_get_ns`; advance it between
    /// packets via [`Vm::set_time_ns`].
    time_ns: u64,
    /// Value returned by the stubbed `bpf_get_smp_processor_id`.
    cpu_id: u32,
    /// Proof-assertion mode: facts from [`crate::absint::analyze`] over this
    /// same program, checked against every concrete execution.
    check: Option<crate::absint::Analysis>,
    /// Violated proofs recorded so far. Deliberately *not* errors: a wrong
    /// proof must not change the packet verdict, or differential tests
    /// would fold it into an ordinary drop and mask the soundness bug.
    violations: Vec<String>,
}

struct Ctx<'p> {
    /// Full buffer: `XDP_HEADROOM` bytes of headroom then the frame.
    buf: Vec<u8>,
    /// Offset of `data` within `buf`.
    data_off: usize,
    /// Offset of `data_end` within `buf`.
    end_off: usize,
    stack: [u8; STACK_SIZE as usize],
    ingress_ifindex: u32,
    redirect: Option<u32>,
    packet: &'p mut Vec<u8>,
}

impl Vm {
    /// Load `program`, instantiating its maps.
    ///
    /// # Panics
    ///
    /// Panics if the bytecode fails to decode; use [`Vm::try_new`] to handle
    /// malformed programs gracefully.
    pub fn new(program: &Program) -> Vm {
        Vm::try_new(program).expect("program bytecode must decode")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Decode`] for malformed bytecode.
    pub fn try_new(program: &Program) -> Result<Vm, VmError> {
        let decoded = program.decode()?;
        let mut slot_index = vec![None; program.insns.len() + 1];
        for (i, d) in decoded.iter().enumerate() {
            slot_index[d.pc] = Some(i);
        }
        // One-past-the-end is a valid jump target only for the verifier;
        // runtime treats it as fall-through error.
        Ok(Vm {
            decoded,
            slot_index,
            maps: MapStore::new(&program.maps),
            step_limit: 1_000_000,
            prandom_state: 0x9e37_79b9_7f4a_7c15,
            time_ns: 0,
            cpu_id: 0,
            check: None,
            violations: Vec::new(),
        })
    }

    /// Enable proof-assertion mode: every packet-access fact and decided
    /// branch in `analysis` (which must come from analyzing this same
    /// program) is checked against concrete execution. Violations are
    /// recorded — query them with [`Vm::proof_violations`] — rather than
    /// turned into [`VmError`]s, so a wrong proof cannot silently change
    /// the packet verdict that differential tests compare.
    pub fn check_facts(&mut self, analysis: crate::absint::Analysis) {
        self.check = Some(analysis);
        self.violations.clear();
    }

    /// Proofs violated by any run so far (empty when sound or when
    /// [`Vm::check_facts`] was never called).
    pub fn proof_violations(&self) -> &[String] {
        &self.violations
    }

    /// Access the live maps (the "host userspace" view).
    pub fn maps(&self) -> &MapStore {
        &self.maps
    }

    /// Mutable access to the live maps (host writes, e.g. installing routes).
    pub fn maps_mut(&mut self) -> &mut MapStore {
        &mut self.maps
    }

    /// Set the nanosecond clock observed by `bpf_ktime_get_ns`.
    pub fn set_time_ns(&mut self, t: u64) {
        self.time_ns = t;
    }

    /// Set the execution step budget.
    pub fn set_step_limit(&mut self, limit: usize) {
        self.step_limit = limit;
    }

    /// Execute the program over `packet` arriving on `ingress_ifindex`.
    ///
    /// On return the packet has been rewritten in place (including any
    /// `bpf_xdp_adjust_head` growth/shrink) and map side effects are visible
    /// through [`Vm::maps`].
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program performs an invalid access,
    /// calls an unknown helper, exceeds the step budget, or falls through.
    pub fn run(&mut self, packet: &mut Vec<u8>, ingress_ifindex: u32) -> Result<Outcome, VmError> {
        let mut buf = vec![0u8; XDP_HEADROOM + packet.len()];
        buf[XDP_HEADROOM..].copy_from_slice(packet);
        let end_off = buf.len();
        let mut ctx = Ctx {
            buf,
            data_off: XDP_HEADROOM,
            end_off,
            stack: [0; STACK_SIZE as usize],
            ingress_ifindex,
            redirect: None,
            packet,
        };

        let mut regs = [0u64; 11];
        regs[1] = CTX_BASE;
        regs[10] = STACK_TOP;

        let mut pc = 0usize; // decoded-instruction index
        let mut executed = 0usize;
        let mut helper_calls = 0usize;
        let mut atomic_ops = 0usize;
        loop {
            if executed >= self.step_limit {
                return Err(VmError::StepLimit { limit: self.step_limit });
            }
            let Some(&d) = self.decoded.get(pc) else {
                return Err(VmError::FellThrough);
            };
            executed += 1;
            let slot = d.pc;
            match d.insn {
                Instruction::Alu { op, width, dst, src } => {
                    let rhs = self.operand(&regs, src);
                    regs[dst as usize] = alu_eval(op, width, regs[dst as usize], rhs);
                }
                Instruction::Endian { dst, bits, to_be } => {
                    regs[dst as usize] = endian_eval(regs[dst as usize], bits, to_be);
                }
                Instruction::LoadImm64 { dst, imm, map } => {
                    regs[dst as usize] = match map {
                        Some(id) => MAP_HANDLE_BASE + u64::from(id),
                        None => imm,
                    };
                }
                Instruction::Load { size, dst, src, off } => {
                    let addr = regs[src as usize].wrapping_add(off as i64 as u64);
                    self.assert_fact(slot, addr, &ctx);
                    regs[dst as usize] = self.mem_read(&ctx, addr, size, slot)?;
                }
                Instruction::Store { size, dst, off, src } => {
                    let addr = regs[dst as usize].wrapping_add(off as i64 as u64);
                    self.assert_fact(slot, addr, &ctx);
                    let v = self.operand(&regs, src);
                    self.mem_write(&mut ctx, addr, size, v, slot)?;
                }
                Instruction::Atomic { op, size, dst, off, src } => {
                    atomic_ops += 1;
                    let addr = regs[dst as usize].wrapping_add(off as i64 as u64);
                    self.assert_fact(slot, addr, &ctx);
                    let operand = regs[src as usize];
                    let old = self.mem_read(&ctx, addr, size, slot)?;
                    let new = match op {
                        AtomicOp::Add { .. } => old.wrapping_add(operand),
                        AtomicOp::Or { .. } => old | operand,
                        AtomicOp::And { .. } => old & operand,
                        AtomicOp::Xor { .. } => old ^ operand,
                        AtomicOp::Xchg => operand,
                        AtomicOp::Cmpxchg => {
                            let expected = mask_for(size) & regs[0];
                            if old == expected {
                                operand
                            } else {
                                old
                            }
                        }
                    };
                    self.mem_write(&mut ctx, addr, size, new, slot)?;
                    match op {
                        AtomicOp::Cmpxchg => regs[0] = old,
                        _ if op.fetches() => regs[src as usize] = old,
                        _ => {}
                    }
                }
                Instruction::Jump { cond, target } => {
                    let taken = match cond {
                        None => true,
                        Some(c) => jump_eval(&regs, c, |o| self.operand(&regs, o)),
                    };
                    if cond.is_some() {
                        let decided = self.check.as_ref().and_then(|a| a.branch_outcome(slot));
                        if let Some(expect) = decided {
                            if expect != taken {
                                self.violations.push(format!(
                                    "pc {slot}: branch decided {expect} but ran {taken}"
                                ));
                            }
                        }
                    }
                    if taken {
                        pc = self.index_of_slot(target)?;
                        continue;
                    }
                }
                Instruction::Call { helper } => {
                    helper_calls += 1;
                    self.call_helper(helper, &mut regs, &mut ctx, slot)?;
                }
                Instruction::Exit => {
                    // Write the possibly-moved packet back out.
                    ctx.packet.clear();
                    ctx.packet.extend_from_slice(&ctx.buf[ctx.data_off..ctx.end_off]);
                    let action = XdpAction::from_r0(regs[0]);
                    return Ok(Outcome {
                        action,
                        r0: regs[0],
                        redirect_ifindex: if action == XdpAction::Redirect {
                            ctx.redirect
                        } else {
                            None
                        },
                        executed,
                        helper_calls,
                        atomic_ops,
                    });
                }
            }
            pc += 1;
        }
    }

    /// Check the abstract packet-access fact at `slot` against the concrete
    /// address, recording any violated proof.
    fn assert_fact(&mut self, slot: usize, addr: u64, ctx: &Ctx<'_>) {
        let Some(f) = self.check.as_ref().and_then(|a| a.packet_fact(slot).copied()) else {
            return;
        };
        if !(PACKET_BASE..STACK_BASE).contains(&addr) {
            self.violations.push(format!(
                "pc {slot}: analysis claims a packet pointer, runtime address {addr:#x} is not"
            ));
            return;
        }
        let off = (addr - PACKET_BASE) as i64 - ctx.data_off as i64;
        if off < f.lo || off > f.hi {
            self.violations
                .push(format!("pc {slot}: offset {off} outside claimed [{}, {}]", f.lo, f.hi));
        }
        let len = (ctx.end_off - ctx.data_off) as i64;
        if len < f.min_len {
            self.violations.push(format!(
                "pc {slot}: packet length {len} below claimed minimum {}",
                f.min_len
            ));
        }
    }

    fn index_of_slot(&self, slot: usize) -> Result<usize, VmError> {
        self.slot_index.get(slot).copied().flatten().ok_or(VmError::BadPc { pc: slot })
    }

    fn operand(&self, regs: &[u64; 11], op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => regs[r as usize],
            Operand::Imm(i) => i as i64 as u64,
        }
    }

    fn mem_read(
        &mut self,
        ctx: &Ctx<'_>,
        addr: u64,
        size: MemSize,
        pc: usize,
    ) -> Result<u64, VmError> {
        let n = size.bytes();
        if addr >= CTX_BASE && addr < CTX_BASE + xdp_md::SIZE as u64 {
            let v = Vm::ctx_field(ctx, addr - CTX_BASE).ok_or(VmError::BadAccess {
                addr,
                size: n,
                pc,
            })?;
            return Ok(v & mask_for(size));
        }
        let bytes = self.mem_slice(ctx, addr, n, pc)?;
        let mut v = [0u8; 8];
        v[..n].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(v))
    }

    fn mem_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        addr: u64,
        size: MemSize,
        value: u64,
        pc: usize,
    ) -> Result<(), VmError> {
        let n = size.bytes();
        let bytes = value.to_le_bytes();
        let dstslice = self.mem_slice_mut(ctx, addr, n, pc)?;
        dstslice.copy_from_slice(&bytes[..n]);
        Ok(())
    }

    fn mem_slice<'a>(
        &'a self,
        ctx: &'a Ctx<'_>,
        addr: u64,
        n: usize,
        pc: usize,
    ) -> Result<&'a [u8], VmError> {
        let err = VmError::BadAccess { addr, size: n, pc };
        if (PACKET_BASE..STACK_BASE).contains(&addr) {
            let off = (addr - PACKET_BASE) as usize;
            // Packet addresses are relative to the buffer start (headroom
            // included) so adjust_head keeps old pointers meaningful.
            if off + n <= ctx.end_off && off >= ctx.data_off {
                Ok(&ctx.buf[off..off + n])
            } else {
                Err(err)
            }
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            if off + n <= STACK_SIZE as usize {
                Ok(&ctx.stack[off..off + n])
            } else {
                Err(err)
            }
        } else if addr >= CTX_BASE && addr < CTX_BASE + xdp_md::SIZE as u64 {
            // Context reads are materialized by the caller (mem_read_ctx);
            // signal with an empty slice sentinel below.
            Err(err)
        } else if (MAP_VALUE_BASE..MAP_HANDLE_BASE).contains(&addr) {
            let (map_id, slot, off) = self.decode_map_addr(addr)?;
            let map = self.maps.get(map_id).ok_or(err.clone())?;
            if off + n <= map.def().value_size as usize {
                let value = map.try_value(slot).ok_or(err.clone())?;
                Ok(&value[off..off + n])
            } else {
                Err(err)
            }
        } else {
            Err(err)
        }
    }

    fn mem_slice_mut<'a>(
        &'a mut self,
        ctx: &'a mut Ctx<'_>,
        addr: u64,
        n: usize,
        pc: usize,
    ) -> Result<&'a mut [u8], VmError> {
        let err = VmError::BadAccess { addr, size: n, pc };
        if (PACKET_BASE..STACK_BASE).contains(&addr) {
            let off = (addr - PACKET_BASE) as usize;
            if off + n <= ctx.end_off && off >= ctx.data_off {
                Ok(&mut ctx.buf[off..off + n])
            } else {
                Err(err)
            }
        } else if (STACK_BASE..STACK_TOP).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            if off + n <= STACK_SIZE as usize {
                Ok(&mut ctx.stack[off..off + n])
            } else {
                Err(err)
            }
        } else if (MAP_VALUE_BASE..MAP_HANDLE_BASE).contains(&addr) {
            let (map_id, slot, off) = self.decode_map_addr(addr)?;
            let map = self.maps.get_mut(map_id).ok_or(err.clone())?;
            if off + n <= map.def().value_size as usize {
                let value = map.try_value_mut(slot).ok_or(err)?;
                Ok(&mut value[off..off + n])
            } else {
                Err(err)
            }
        } else {
            Err(err)
        }
    }

    fn decode_map_addr(&self, addr: u64) -> Result<(u32, usize, usize), VmError> {
        let rel = addr - MAP_VALUE_BASE;
        let map_id = (rel >> MAP_WINDOW_BITS) as u32;
        let within = (rel & ((1 << MAP_WINDOW_BITS) - 1)) as usize;
        let map = self.maps.get(map_id).ok_or(VmError::BadAccess { addr, size: 0, pc: 0 })?;
        let stride = map.def().value_stride() as usize;
        Ok((map_id, within / stride, within % stride))
    }

    /// Encode a `(map, slot)` pair as a map-value virtual address.
    ///
    /// # Panics
    ///
    /// Panics if `map_id` does not name a map of this program; callers
    /// obtain ids from the program's own map table.
    pub fn map_value_addr(&self, map_id: u32, slot: usize) -> u64 {
        let stride = self.maps.get(map_id).expect("map id exists").def().value_stride();
        map_value_addr(map_id, slot, stride)
    }

    fn read_key(
        &self,
        ctx: &Ctx<'_>,
        addr: u64,
        len: usize,
        pc: usize,
    ) -> Result<Vec<u8>, VmError> {
        // Keys may legitimately live on the stack, in the packet or in a
        // map value; reuse mem_slice region logic byte-wise.
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let b = self.mem_slice(ctx, addr + i as u64, 1, pc)?;
            out.push(b[0]);
        }
        Ok(out)
    }

    fn call_helper(
        &mut self,
        helper: u32,
        regs: &mut [u64; 11],
        ctx: &mut Ctx<'_>,
        pc: usize,
    ) -> Result<(), VmError> {
        let r0 = match helper {
            BPF_MAP_LOOKUP_ELEM => {
                let map_id = self.map_handle(regs[1], pc)?;
                let key_size = self
                    .maps
                    .get(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?
                    .def()
                    .key_size as usize;
                let key = self.read_key(ctx, regs[2], key_size, pc)?;
                let map = self
                    .maps
                    .get_mut(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?;
                match map.lookup(&key).ok().flatten() {
                    Some(slot) => self.map_value_addr(map_id, slot),
                    None => 0,
                }
            }
            BPF_MAP_UPDATE_ELEM => {
                let map_id = self.map_handle(regs[1], pc)?;
                let def = self
                    .maps
                    .get(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?
                    .def()
                    .clone();
                let key = self.read_key(ctx, regs[2], def.key_size as usize, pc)?;
                let value = self.read_key(ctx, regs[3], def.value_size as usize, pc)?;
                let flags = UpdateFlags::from_raw(regs[4]).unwrap_or(UpdateFlags::Any);
                let map = self
                    .maps
                    .get_mut(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?;
                match map.update(&key, &value, flags) {
                    Ok(_) => 0,
                    Err(_) => (-1i64) as u64,
                }
            }
            BPF_MAP_DELETE_ELEM => {
                let map_id = self.map_handle(regs[1], pc)?;
                let key_size = self
                    .maps
                    .get(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?
                    .def()
                    .key_size as usize;
                let key = self.read_key(ctx, regs[2], key_size, pc)?;
                let map = self
                    .maps
                    .get_mut(map_id)
                    .ok_or(VmError::BadMapHandle { value: regs[1], pc })?;
                match map.delete(&key) {
                    Ok(()) => 0,
                    Err(_) => (-1i64) as u64,
                }
            }
            BPF_KTIME_GET_NS => self.time_ns,
            BPF_GET_PRANDOM_U32 => {
                // xorshift64*, truncated.
                let mut x = self.prandom_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.prandom_state = x;
                (x.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 32
            }
            BPF_GET_SMP_PROCESSOR_ID => u64::from(self.cpu_id),
            BPF_REDIRECT => {
                ctx.redirect = Some(regs[1] as u32);
                XdpAction::Redirect.code()
            }
            BPF_XDP_ADJUST_HEAD => {
                let delta = regs[2] as i64;
                let new_off = ctx.data_off as i64 + delta;
                if new_off < 0 || new_off as usize >= ctx.end_off {
                    (-1i64) as u64
                } else {
                    ctx.data_off = new_off as usize;
                    0
                }
            }
            BPF_XDP_ADJUST_TAIL => {
                let delta = regs[2] as i64;
                let new_end = ctx.end_off as i64 + delta;
                if new_end <= ctx.data_off as i64 || new_end as usize > ctx.buf.len() {
                    (-1i64) as u64
                } else {
                    ctx.end_off = new_end as usize;
                    0
                }
            }
            BPF_CSUM_DIFF => {
                // Simplified RFC1071 difference: seed + sum(to) - sum(from),
                // over 32-bit words, matching the kernel's semantics closely
                // enough for incremental-checksum use.
                let from_size = regs[2] as usize;
                let to_size = regs[4] as usize;
                let mut sum = regs[5] as i64;
                if from_size > 0 {
                    let from = self.read_key(ctx, regs[1], from_size, pc)?;
                    for w in from.chunks(4) {
                        let mut b = [0u8; 4];
                        b[..w.len()].copy_from_slice(w);
                        sum -= i64::from(u32::from_le_bytes(b));
                    }
                }
                if to_size > 0 {
                    let to = self.read_key(ctx, regs[3], to_size, pc)?;
                    for w in to.chunks(4) {
                        let mut b = [0u8; 4];
                        b[..w.len()].copy_from_slice(w);
                        sum += i64::from(u32::from_le_bytes(b));
                    }
                }
                (sum as u64) & 0xffff_ffff
            }
            other => return Err(VmError::UnknownHelper { id: other, pc }),
        };
        regs[0] = r0;
        // r1-r5 are clobbered by calls per the ABI.
        for r in regs.iter_mut().take(6).skip(1) {
            *r = 0;
        }
        // Context reads after adjust_head must observe moved pointers; the
        // program re-reads ctx->data which we serve in mem_read_ctx.
        let _ = ctx;
        Ok(())
    }

    fn map_handle(&self, value: u64, pc: usize) -> Result<u32, VmError> {
        if (MAP_HANDLE_BASE..MAP_HANDLE_BASE + 0x1000).contains(&value) {
            Ok((value - MAP_HANDLE_BASE) as u32)
        } else {
            Err(VmError::BadMapHandle { value, pc })
        }
    }
}

// Context-region loads need ctx state, so they are special-cased here rather
// than in mem_slice (which cannot synthesize bytes).
impl Vm {
    fn ctx_field(ctx: &Ctx<'_>, off: u64) -> Option<u64> {
        match off as i64 {
            xdp_md::DATA => Some(PACKET_BASE + ctx.data_off as u64),
            xdp_md::DATA_END => Some(PACKET_BASE + ctx.end_off as u64),
            xdp_md::DATA_META => Some(PACKET_BASE + ctx.data_off as u64),
            xdp_md::INGRESS_IFINDEX => Some(u64::from(ctx.ingress_ifindex)),
            xdp_md::RX_QUEUE_INDEX => Some(0),
            xdp_md::EGRESS_IFINDEX => Some(0),
            _ => None,
        }
    }
}

/// Encode a `(map, slot)` pair as a map-value virtual address, given the
/// map's value stride. Shared between the VM and the hardware simulator so
/// both produce identical pointer bit patterns.
pub fn map_value_addr(map_id: u32, slot: usize, stride: u32) -> u64 {
    MAP_VALUE_BASE + (u64::from(map_id) << MAP_WINDOW_BITS) + slot as u64 * u64::from(stride)
}

/// Decode a map-value virtual address into `(map_id, slot, byte offset)`,
/// given a closure resolving a map id to its value stride.
pub fn decode_map_value_addr(
    addr: u64,
    stride_of: impl Fn(u32) -> Option<u32>,
) -> Option<(u32, usize, usize)> {
    if !(MAP_VALUE_BASE..MAP_HANDLE_BASE).contains(&addr) {
        return None;
    }
    let rel = addr - MAP_VALUE_BASE;
    let map_id = (rel >> MAP_WINDOW_BITS) as u32;
    let within = (rel & ((1 << MAP_WINDOW_BITS) - 1)) as usize;
    let stride = stride_of(map_id)? as usize;
    Some((map_id, within / stride, within % stride))
}

/// Mask covering an access width. Shared with the hardware simulator.
pub fn mask_for(size: MemSize) -> u64 {
    match size {
        MemSize::B => 0xff,
        MemSize::H => 0xffff,
        MemSize::W => 0xffff_ffff,
        MemSize::Dw => u64::MAX,
    }
}

/// Evaluate one ALU operation with eBPF semantics (div/mod-by-zero defined,
/// shifts masked, 32-bit ops zero-extended). Exposed for reuse by the
/// hardware simulator so both engines share one arithmetic definition.
pub fn alu_eval(op: AluOp, width: Width, dst: u64, src: u64) -> u64 {
    match width {
        Width::W64 => {
            let s = src;
            match op {
                AluOp::Add => dst.wrapping_add(s),
                AluOp::Sub => dst.wrapping_sub(s),
                AluOp::Mul => dst.wrapping_mul(s),
                AluOp::Div => dst.checked_div(s).unwrap_or(0),
                AluOp::Or => dst | s,
                AluOp::And => dst & s,
                AluOp::Lsh => dst.wrapping_shl((s & 63) as u32),
                AluOp::Rsh => dst.wrapping_shr((s & 63) as u32),
                AluOp::Neg => (dst as i64).wrapping_neg() as u64,
                AluOp::Mod => {
                    if s == 0 {
                        dst
                    } else {
                        dst % s
                    }
                }
                AluOp::Xor => dst ^ s,
                AluOp::Mov => s,
                AluOp::Arsh => ((dst as i64) >> (s & 63)) as u64,
                AluOp::End => dst,
            }
        }
        Width::W32 => {
            let d = dst as u32;
            let s = src as u32;
            let r = match op {
                AluOp::Add => d.wrapping_add(s),
                AluOp::Sub => d.wrapping_sub(s),
                AluOp::Mul => d.wrapping_mul(s),
                AluOp::Div => d.checked_div(s).unwrap_or(0),
                AluOp::Or => d | s,
                AluOp::And => d & s,
                AluOp::Lsh => d.wrapping_shl(s & 31),
                AluOp::Rsh => d.wrapping_shr(s & 31),
                AluOp::Neg => (d as i32).wrapping_neg() as u32,
                AluOp::Mod => {
                    if s == 0 {
                        d
                    } else {
                        d % s
                    }
                }
                AluOp::Xor => d ^ s,
                AluOp::Mov => s,
                AluOp::Arsh => ((d as i32) >> (s & 31)) as u32,
                AluOp::End => d,
            };
            u64::from(r)
        }
    }
}

/// Evaluate a byte-swap instruction. Shared with the hardware simulator.
pub fn endian_eval(v: u64, bits: i32, to_be: bool) -> u64 {
    // Host is little-endian eBPF: `to_le` truncates, `to_be` swaps.
    match (bits, to_be) {
        (16, false) => v & 0xffff,
        (32, false) => v & 0xffff_ffff,
        (64, false) => v,
        (16, true) => u64::from((v as u16).swap_bytes()),
        (32, true) => u64::from((v as u32).swap_bytes()),
        (64, true) => v.swap_bytes(),
        _ => v,
    }
}

/// Evaluate a jump condition. Shared with the hardware simulator.
pub fn jump_eval(regs: &[u64; 11], c: JumpCond, operand: impl Fn(Operand) -> u64) -> bool {
    let lhs = regs[c.lhs as usize];
    let rhs = operand(c.rhs);
    cond_eval(c.op, c.width, lhs, rhs)
}

/// Evaluate a comparison on raw values.
pub fn cond_eval(op: JmpOp, width: Width, lhs: u64, rhs: u64) -> bool {
    let (l, r, sl, sr) = match width {
        Width::W64 => (lhs, rhs, lhs as i64, rhs as i64),
        Width::W32 => (
            u64::from(lhs as u32),
            u64::from(rhs as u32),
            i64::from(lhs as u32 as i32),
            i64::from(rhs as u32 as i32),
        ),
    };
    match op {
        JmpOp::Ja => true,
        JmpOp::Jeq => l == r,
        JmpOp::Jne => l != r,
        JmpOp::Jgt => l > r,
        JmpOp::Jge => l >= r,
        JmpOp::Jlt => l < r,
        JmpOp::Jle => l <= r,
        JmpOp::Jset => l & r != 0,
        JmpOp::Jsgt => sl > sr,
        JmpOp::Jsge => sl >= sr,
        JmpOp::Jslt => sl < sr,
        JmpOp::Jsle => sl <= sr,
        JmpOp::Call | JmpOp::Exit => unreachable!("not comparisons"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::maps::{MapDef, MapKind};
    use crate::opcode::JmpOp;

    fn run_prog(a: Asm, pkt: &mut Vec<u8>) -> Outcome {
        let p = Program::from_insns(a.into_insns());
        Vm::new(&p).run(pkt, 0).unwrap()
    }

    #[test]
    fn trivial_pass() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let out = run_prog(a, &mut vec![0; 64]);
        assert_eq!(out.action, XdpAction::Pass);
        assert_eq!(out.executed, 2);
    }

    #[test]
    fn packet_load_and_store() {
        // Read eth_proto-ish byte, write it back doubled at offset 0.
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, xdp_md::DATA as i16); // r2 = data
        a.load(MemSize::B, 3, 2, 5);
        a.alu64_imm(AluOp::Add, 3, 1);
        a.store_reg(MemSize::B, 2, 0, 3);
        a.mov64_imm(0, 3);
        a.exit();
        let mut pkt = vec![0u8; 64];
        pkt[5] = 41;
        let out = run_prog(a, &mut pkt);
        assert_eq!(out.action, XdpAction::Tx);
        assert_eq!(pkt[0], 42);
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, xdp_md::DATA as i16);
        a.load(MemSize::Dw, 3, 2, 60); // 8 bytes at offset 60 of a 64B pkt
        a.mov64_imm(0, 2);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let err = Vm::new(&p).run(&mut vec![0; 64], 0).unwrap_err();
        assert!(matches!(err, VmError::BadAccess { .. }));
    }

    #[test]
    fn stack_roundtrip() {
        let mut a = Asm::new();
        a.mov64_imm(2, 0x55aa);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.load(MemSize::W, 0, 10, -4);
        a.exit();
        let out = run_prog(a, &mut vec![0; 64]);
        assert_eq!(out.r0, 0x55aa);
    }

    #[test]
    fn div_mod_by_zero_defined() {
        let mut a = Asm::new();
        a.mov64_imm(1, 7);
        a.mov64_imm(2, 0);
        a.alu64_reg(AluOp::Div, 1, 2); // r1 = 0
        a.mov64_imm(3, 9);
        a.alu64_reg(AluOp::Mod, 3, 2); // r3 unchanged = 9
        a.mov64_reg(0, 3);
        a.alu64_reg(AluOp::Add, 0, 1);
        a.exit();
        let out = run_prog(a, &mut vec![0; 64]);
        assert_eq!(out.r0, 9);
    }

    #[test]
    fn map_lookup_and_atomic_add() {
        let mut a = Asm::new();
        // key 0 on stack; lookup; if null exit drop; atomic add 1; exit pass
        let miss = a.new_label();
        a.mov64_imm(2, 0);
        a.store_reg(MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.mov64_imm(0, 2);
        a.exit();
        a.bind(miss);
        a.mov64_imm(0, 1);
        a.exit();
        let p = Program::new(
            "counter",
            a.into_insns(),
            vec![MapDef::new(0, "stats", MapKind::Array, 4, 8, 4)],
        );
        let mut vm = Vm::new(&p);
        for _ in 0..5 {
            let out = vm.run(&mut vec![0; 64], 0).unwrap();
            assert_eq!(out.action, XdpAction::Pass);
        }
        let m = vm.maps().get(0).unwrap();
        let slot = 0;
        assert_eq!(u64::from_le_bytes(m.value(slot).try_into().unwrap()), 5);
    }

    #[test]
    fn map_update_and_lookup_roundtrip() {
        let mut a = Asm::new();
        // store key=0x42 (8B) at fp-8, value=7 (8B) at fp-16, update, then
        // lookup and load value into r0.
        let miss = a.new_label();
        a.mov64_imm(2, 0x42);
        a.store_reg(MemSize::Dw, 10, -8, 2);
        a.mov64_imm(3, 7);
        a.store_reg(MemSize::Dw, 10, -16, 3);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.mov64_reg(3, 10);
        a.alu64_imm(AluOp::Add, 3, -16);
        a.mov64_imm(4, 0);
        a.call(BPF_MAP_UPDATE_ELEM);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -8);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
        a.load(MemSize::Dw, 0, 0, 0);
        a.exit();
        a.bind(miss);
        a.mov64_imm(0, 0);
        a.exit();
        let p =
            Program::new("kv", a.into_insns(), vec![MapDef::new(0, "kv", MapKind::Hash, 8, 8, 16)]);
        let out = Vm::new(&p).run(&mut vec![0; 64], 0).unwrap();
        assert_eq!(out.r0, 7);
    }

    #[test]
    fn adjust_head_grows_packet() {
        let mut a = Asm::new();
        let fail = a.new_label();
        a.mov64_reg(6, 1); // ctx survives the call in a callee-saved reg
        a.mov64_imm(2, -4i32);
        a.call(BPF_XDP_ADJUST_HEAD);
        a.jmp_imm(JmpOp::Jne, 0, 0, fail);
        // write marker into the new 4 front bytes
        a.load(MemSize::W, 2, 6, xdp_md::DATA as i16);
        a.mov64_imm(3, 0x61626364);
        a.store_reg(MemSize::W, 2, 0, 3);
        a.mov64_imm(0, 3);
        a.exit();
        a.bind(fail);
        a.mov64_imm(0, 0);
        a.exit();
        let mut pkt = vec![9u8; 60];
        let out = run_prog(a, &mut pkt);
        assert_eq!(out.action, XdpAction::Tx);
        assert_eq!(pkt.len(), 64);
        assert_eq!(&pkt[..4], &0x61626364u32.to_le_bytes());
        assert_eq!(pkt[4], 9);
    }

    #[test]
    fn redirect_records_ifindex() {
        let mut a = Asm::new();
        a.mov64_imm(1, 5);
        a.mov64_imm(2, 0);
        a.call(BPF_REDIRECT);
        a.exit();
        let out = run_prog(a, &mut vec![0; 64]);
        assert_eq!(out.action, XdpAction::Redirect);
        assert_eq!(out.redirect_ifindex, Some(5));
    }

    #[test]
    fn ktime_and_prandom_deterministic() {
        let mut a = Asm::new();
        a.call(BPF_KTIME_GET_NS);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let mut vm = Vm::new(&p);
        vm.set_time_ns(1234);
        assert_eq!(vm.run(&mut vec![0; 64], 0).unwrap().r0, 1234);

        let mut a = Asm::new();
        a.call(BPF_GET_PRANDOM_U32);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let mut v1 = Vm::new(&p);
        let mut v2 = Vm::new(&p);
        assert_eq!(
            v1.run(&mut vec![0; 64], 0).unwrap().r0,
            v2.run(&mut vec![0; 64], 0).unwrap().r0
        );
    }

    #[test]
    fn endian_ops() {
        let mut a = Asm::new();
        a.mov64_imm(1, 0x1234);
        a.to_be(1, 16);
        a.mov64_reg(0, 1);
        a.exit();
        let out = run_prog(a, &mut vec![0; 64]);
        assert_eq!(out.r0, 0x3412);
    }

    #[test]
    fn fell_through_detected() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        let p = Program::from_insns(a.into_insns());
        assert_eq!(Vm::new(&p).run(&mut vec![0; 64], 0), Err(VmError::FellThrough));
    }

    #[test]
    fn step_limit_detected() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.jmp(top);
        let p = Program::from_insns(a.into_insns());
        let mut vm = Vm::new(&p);
        vm.set_step_limit(100);
        assert_eq!(vm.run(&mut vec![0; 64], 0), Err(VmError::StepLimit { limit: 100 }));
    }

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        assert!(cond_eval(JmpOp::Jgt, Width::W64, u64::MAX, 1));
        assert!(!cond_eval(JmpOp::Jsgt, Width::W64, u64::MAX, 1));
        assert!(cond_eval(JmpOp::Jslt, Width::W32, 0xffff_ffff, 1));
    }

    /// A bounds-checked program builder: guard `need` bytes, then load one
    /// byte at `off`. The slot layout is identical for every `(need, off)`,
    /// which the mismatched-analysis test below relies on.
    fn guarded_load(need: i32, off: i16) -> Asm {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, need);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 0, 7, off);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        a
    }

    #[test]
    fn proof_assertions_hold_on_sound_analysis() {
        let p = Program::from_insns(guarded_load(14, 12).into_insns());
        let mut vm = Vm::new(&p);
        let analysis = crate::absint::analyze(&p.decode().unwrap());
        assert!(analysis.proven_accesses > 0, "the guarded load must be proven");
        vm.check_facts(analysis);
        for len in [64usize, 14, 4] {
            vm.run(&mut vec![0u8; len], 0).unwrap();
        }
        assert!(vm.proof_violations().is_empty(), "{:?}", vm.proof_violations());
    }

    #[test]
    fn proof_assertions_catch_a_wrong_fact() {
        // Attach the analysis of a *different* program with the same slot
        // layout: its fact claims the load reads offset 2, the executed
        // program reads offset 50 — the assertion machinery must notice.
        let executed = Program::from_insns(guarded_load(60, 50).into_insns());
        let claimed = Program::from_insns(guarded_load(14, 2).into_insns());
        let mut vm = Vm::new(&executed);
        vm.check_facts(crate::absint::analyze(&claimed.decode().unwrap()));
        vm.run(&mut vec![0u8; 64], 0).unwrap();
        assert!(
            vm.proof_violations().iter().any(|v| v.contains("outside claimed")),
            "{:?}",
            vm.proof_violations()
        );
    }
}
