//! The stage executor.
//!
//! At attach time [`LoweredPlan::try_lower`] monomorphizes every
//! [`ehdl_core::StageOp`] into a [`FusedOp`] with its plan constants baked
//! in (immediates pre-extended, map handles resolved, key/value geometry,
//! WAR delays and FEB schedules inlined, block guards flattened). This
//! module executes those ops.
//!
//! Stages come in two flavors:
//!
//! - **Direct** stages mutate the packet state in place, op by op — no
//!   scratch write set, no per-stage `Delta` push/apply/clear, no plan
//!   indirection. The lowerer only marks a stage direct when it proved no
//!   op observes an earlier op's write within the stage, which makes
//!   in-place execution bit-identical to the stage's two-phase semantics
//!   (read the incoming state copy, write the next boundary).
//! - **Delta** stages run through [`PipelineSim::exec_stage_two_phase`],
//!   which implements those semantics literally, so anything the lowerer
//!   could not prove safe (intra-stage dependences, geometry-moving
//!   helpers, ops without a specialization) keeps them.
//!
//! Every specialized op re-validates the compile-time memory label with a
//! cheap range guard; a guard miss runs the original op through the generic
//! per-op path ([`PipelineSim::exec_op_cold`]) at the same op index, which
//! the 1:1 `FusedOp`↔`StageOp` correspondence makes exact. The map
//! operations have one body each in the parent module; a fused arm passes
//! it the geometry lowering baked, the generic arm what it resolved at run
//! time. The one deliberate elision is the packet bounds compare for
//! accesses the abstract interpreter proved in range (`proven`), per the
//! §4.4 hardware semantics of dropping the check entirely;
//! [`SimOptions::check_proofs`] rechecks those proofs instead.

use super::*;
use ehdl_core::{FusedOp, RegOrImm};
use ehdl_ebpf::vm::{MAP_VALUE_BASE, MAP_WINDOW_BITS};

/// Direct-stage control outputs accumulated across ops (the fields of
/// `Delta` that are not packet state).
struct DirectCtl {
    side_effect: bool,
    flush: Option<(u32, Vec<u8>, usize)>,
}

impl DirectCtl {
    /// Land a map op's control effects — the read record straight in the
    /// packet state; returns the op's value.
    #[inline(always)]
    fn land(&mut self, state: &mut PacketState, fx: MapEffects) -> u64 {
        self.side_effect |= fx.side_effect;
        if fx.flush.is_some() {
            self.flush = fx.flush;
        }
        if let Some((map, stage, key)) = fx.read {
            state.read_filter |= read_key_bit(map, &key);
            state.map_reads.push((map, stage, key));
        }
        fx.value
    }
}

/// Decode `addr` as a value address of the *baked* map:
/// [`decode_map_value_addr`] specialized to one `(map, stride)` pair.
/// `Some((slot, offset))` only when the address lands in that map's
/// window, so a label mismatch routes to the generic path instead.
#[inline]
fn map_slot_of(addr: u64, map: u32, stride: u32) -> Option<(usize, usize)> {
    if !(MAP_VALUE_BASE..MAP_HANDLE_BASE).contains(&addr) {
        return None;
    }
    let rel = addr - MAP_VALUE_BASE;
    if (rel >> MAP_WINDOW_BITS) as u32 != map {
        return None;
    }
    let within = (rel & ((1 << MAP_WINDOW_BITS) - 1)) as usize;
    let stride = stride as usize;
    Some((within / stride, within % stride))
}

/// The helper-call epilogue: `r0` takes the result, `r1`–`r5` are
/// clobbered (caller-saved).
#[inline]
fn helper_epilogue(state: &mut PacketState, r0: u64) {
    state.regs[0] = r0;
    state.regs[1] = 0;
    state.regs[2] = 0;
    state.regs[3] = 0;
    state.regs[4] = 0;
    state.regs[5] = 0;
}

impl PipelineSim {
    /// Execute stage `s` on `pkt`: the prologue (resume fast path,
    /// empty-stage forward, predication, implicit length guard — all
    /// against baked constants), then either the in-place direct loop or
    /// the two-phase body.
    pub(super) fn exec_stage(
        &mut self,
        s: usize,
        pkt: &mut InFlight,
        lp: &LoweredPlan,
    ) -> StageResult {
        // Flush-replay fast path: skip until the checkpointed stage.
        if let Some((resume_stage, _)) = pkt.resume {
            if s < resume_stage {
                return StageResult::Ok;
            }
            let (_, mut snap) = pkt.resume.take().expect("resume checked above");
            std::mem::swap(&mut pkt.state, &mut *snap);
            self.pool.recycle(snap);
        }

        let st = lp.stage(s);
        let ops = lp.stage_fused(s);
        if ops.is_empty() {
            // Frame-wait / helper-latency stages forward state.
            return StageResult::Ok;
        }
        let block = st.block as usize;
        if pkt.state.faulted || !self.block_enabled(&mut pkt.state, block) {
            return StageResult::Ok;
        }
        // Implicit length guards from elided bounds checks (§4.4): the
        // frame interface drops packets shorter than the guarded length.
        let pkt_len = (pkt.state.end_off - pkt.state.data_off) as i64;
        if pkt_len < st.guard_min_len {
            pkt.state.faulted = true;
            return StageResult::Ok;
        }

        #[cfg(test)]
        let two_phase = st.delta || self.two_phase_reference;
        #[cfg(not(test))]
        let two_phase = st.delta;
        if two_phase {
            return self.exec_stage_two_phase(s, block, pkt, lp);
        }

        // Direct mode: ops commit into the packet state as they execute.
        let seq = pkt.seq;
        let mut ctl = DirectCtl { side_effect: false, flush: None };
        let mut fault = false;
        for (i, &op) in ops.iter().enumerate() {
            match self.exec_fused(s, i, block, op, seq, &mut pkt.state, &mut ctl, lp) {
                Ok(()) => {}
                Err(OpAbort::Fault) => {
                    fault = true;
                    break;
                }
                // Only reachable from op index 0 (the lowerer demotes any
                // later flush-capable op to delta mode), so there are no
                // earlier in-place writes to unwind.
                Err(OpAbort::FlushSelf) => return StageResult::FlushSelf,
            }
        }
        if fault {
            pkt.state.faulted = true;
        }
        let result = match ctl.flush.take() {
            Some((map, key, read_stage)) => {
                StageResult::FlushBelow { boundary: s, read_stage, map, key }
            }
            None => StageResult::Ok,
        };
        if ctl.side_effect {
            let snap = self.pool.snapshot(&pkt.state);
            pkt.checkpoints.push((s + 1, snap));
        }
        result
    }

    /// Execute one fused op in place. `Err` aborts the stage: `Fault`
    /// keeps earlier writes and poisons the packet, `FlushSelf` re-executes
    /// it from a checkpoint.
    ///
    /// Always inlined into the direct-stage loop: the ALU/memory arms
    /// below compile to a few instructions each, and keeping them in the
    /// loop body spares a 9-argument call per op. The map/helper arms are
    /// out-of-line methods so they don't bloat the dispatch table.
    #[inline(always)]
    #[allow(clippy::too_many_arguments, clippy::too_many_lines, clippy::inline_always)]
    fn exec_fused(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        lp: &LoweredPlan,
    ) -> Result<(), OpAbort> {
        match op {
            FusedOp::AluRR { op, width, dst, src } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[dst as usize], r[src as usize]);
            }
            FusedOp::AluRI { op, width, dst, imm } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[dst as usize], imm);
            }
            FusedOp::Alu3RR { op, width, dst, a, b } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[a as usize], r[b as usize]);
            }
            FusedOp::Alu3RI { op, width, dst, a, imm } => {
                let r = &mut state.regs;
                r[dst as usize] = alu_eval(op, width, r[a as usize], imm);
            }
            FusedOp::MovImm { dst, imm } => state.regs[dst as usize] = imm,
            FusedOp::Endian { dst, bits, to_be } => {
                let r = &mut state.regs;
                r[dst as usize] = endian_eval(r[dst as usize], bits, to_be);
            }
            FusedOp::JmpAlways => state.taken.set(block, true),
            FusedOp::JmpRR { op, width, lhs, rhs } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], state.regs[rhs as usize]);
                state.taken.set(block, t);
            }
            FusedOp::JmpRI { op, width, lhs, imm } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], imm);
                state.taken.set(block, t);
            }
            FusedOp::Exit => state.action = Some(XdpAction::from_r0(state.regs[0])),
            FusedOp::LdCtx { size, dst, src, off } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (CTX_BASE..CTX_BASE + xdp_md::SIZE as u64).contains(&addr) {
                    let v = match (addr - CTX_BASE) as i64 {
                        xdp_md::DATA | xdp_md::DATA_META => PACKET_BASE + state.data_off as u64,
                        xdp_md::DATA_END => PACKET_BASE + state.end_off as u64,
                        _ => 0,
                    };
                    state.regs[dst as usize] = v & mask_for(size);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
            }
            FusedOp::LdStk { size, dst, src, off } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    let n = size.bytes();
                    let Some(bytes) = state.stack.get(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    let mut v = [0u8; 8];
                    v[..n].copy_from_slice(bytes);
                    state.regs[dst as usize] = u64::from_le_bytes(v);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
            }
            FusedOp::LdPkt { size, dst, src, off, proven } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    if proven && self.options.check_proofs {
                        self.recheck_proof(s, i, addr, state, lp);
                    }
                    // The §4.4 elision: a proof from the abstract
                    // interpreter stands in for the dynamic bounds compare.
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    let Some(bytes) = state.buf.get(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    let mut v = [0u8; 8];
                    v[..n].copy_from_slice(bytes);
                    state.regs[dst as usize] = u64::from_le_bytes(v);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
            }
            FusedOp::StStk { size, base, off, src } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    let n = size.bytes();
                    let value = reg_or_imm_value(state, src);
                    let Some(bytes) = state.stack.get_mut(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    bytes.copy_from_slice(&value.to_le_bytes()[..n]);
                    state.stack_lo = state.stack_lo.min(o);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
            }
            FusedOp::StPkt { size, base, off, src, proven } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    if proven && self.options.check_proofs {
                        self.recheck_proof(s, i, addr, state, lp);
                    }
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    let value = reg_or_imm_value(state, src);
                    let Some(bytes) = state.buf.get_mut(o..o + n) else {
                        return Err(OpAbort::Fault);
                    };
                    bytes.copy_from_slice(&value.to_le_bytes()[..n]);
                } else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
            }
            FusedOp::LdMap { .. }
            | FusedOp::StMap { .. }
            | FusedOp::AtomicMap { .. }
            | FusedOp::Lookup { .. }
            | FusedOp::MapUpdate { .. }
            | FusedOp::MapDelete { .. } => {
                return self.exec_fused_map(s, i, block, op, seq, state, ctl, lp);
            }
            FusedOp::Ktime => {
                let v = self.time_ns();
                helper_epilogue(state, v);
            }
            FusedOp::Prandom => {
                let v = self.prandom();
                helper_epilogue(state, v);
            }
            FusedOp::SmpId => helper_epilogue(state, 0),
            FusedOp::Redirect => {
                state.redirect = Some(state.regs[1] as u32);
                helper_epilogue(state, XdpAction::Redirect.code());
            }
            // Never lowered into a direct stage (any Interp op demotes the
            // stage to delta mode), but route it correctly regardless.
            FusedOp::Interp => {
                return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
            }
        }
        Ok(())
    }

    /// The [`SimOptions::check_proofs`] hook of a fused packet access whose
    /// bounds compare was elided: recheck the proof of the
    /// [`ehdl_core::StageOp`] it was lowered from. Out of line, so the
    /// direct loop pays for the option test only.
    #[cold]
    #[inline(never)]
    fn recheck_proof(
        &mut self,
        s: usize,
        i: usize,
        addr: u64,
        state: &PacketState,
        lp: &LoweredPlan,
    ) {
        self.check_proof(&lp.stage_ops(s)[i], addr, state);
    }

    /// The map-op arms of [`PipelineSim::exec_fused`], out of line: each
    /// body is tens of instructions of shared-state machinery (hazard
    /// interlocks, delay buffers, hash lookups), so keeping them off the
    /// inlined dispatch path keeps the hot ALU/memory loop tight.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn exec_fused_map(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        lp: &LoweredPlan,
    ) -> Result<(), OpAbort> {
        match op {
            FusedOp::LdMap { size, dst, src, off, map, stride, value_size } => {
                let addr = state.regs[src as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                };
                let mut v = [0u8; 8];
                let out = &mut v[..size.bytes()];
                self.map_value_read(map, slot, o, value_size as usize, seq, out)?;
                state.regs[dst as usize] = u64::from_le_bytes(v);
            }
            FusedOp::StMap {
                size,
                base,
                off,
                src,
                map,
                stride,
                value_size,
                delay,
                feb_read_stage,
            } => {
                let addr = state.regs[base as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                };
                let fx = self.map_value_store(
                    s,
                    map,
                    slot,
                    o,
                    size,
                    reg_or_imm_value(state, src),
                    value_size as usize,
                    u64::from(delay),
                    feb_read_stage as usize,
                    seq,
                )?;
                ctl.land(state, fx);
            }
            FusedOp::AtomicMap { op, size, dst, src, off, map, stride, value_size } => {
                let addr = state.regs[dst as usize].wrapping_add(off as i64 as u64);
                let Some((slot, o)) = map_slot_of(addr, map, stride) else {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                };
                let fx = self.map_atomic(
                    map,
                    slot,
                    o,
                    size,
                    value_size as usize,
                    op,
                    state.regs[src as usize],
                    state.regs[0],
                    seq,
                )?;
                let old = ctl.land(state, fx);
                match op {
                    AtomicOp::Cmpxchg => state.regs[0] = old,
                    _ if op.fetches() => state.regs[src as usize] = old,
                    _ => {}
                }
            }
            FusedOp::Lookup { map, key_size, stride } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
                let fx = self.map_lookup(s, map, key_size as usize, stride, seq, state)?;
                let r0 = ctl.land(state, fx);
                helper_epilogue(state, r0);
            }
            FusedOp::MapUpdate { map, key_size, value_size, delay, feb_read_stage } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
                let fx = self.map_update(
                    s,
                    map,
                    key_size as usize,
                    value_size as usize,
                    u64::from(delay),
                    feb_read_stage as usize,
                    seq,
                    state,
                )?;
                let r0 = ctl.land(state, fx);
                helper_epilogue(state, r0);
            }
            FusedOp::MapDelete { map, key_size, delay, feb_read_stage } => {
                if map_handle(state.regs[1]) != Some(map) {
                    return self.exec_op_cold(s, i, block, seq, state, ctl, lp);
                }
                let fx = self.map_delete(
                    s,
                    map,
                    key_size as usize,
                    u64::from(delay),
                    feb_read_stage as usize,
                    seq,
                    state,
                )?;
                let r0 = ctl.land(state, fx);
                helper_epilogue(state, r0);
            }
            // Routed here only for the map-op variants.
            _ => unreachable!("exec_fused_map handles map ops only"),
        }
        Ok(())
    }

    /// Generic per-op fallback for a direct stage: run the original
    /// [`ehdl_core::StageOp`] at the same index through [`PipelineSim::exec_op`]
    /// with the scratch write set, then commit immediately. Exact because
    /// a direct stage's ops are proven order-independent, so "reads
    /// stage-entry state" and "reads current state" coincide.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn exec_op_cold(
        &mut self,
        s: usize,
        i: usize,
        block: usize,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut DirectCtl,
        lp: &LoweredPlan,
    ) -> Result<(), OpAbort> {
        let mut delta = self.scratch.take().expect("scratch delta available");
        let res = self.exec_op(s, &lp.stage_ops(s)[i], seq, state, &mut delta);
        if matches!(res, Err(OpAbort::FlushSelf)) {
            delta.clear();
            self.scratch = Some(delta);
            return Err(OpAbort::FlushSelf);
        }
        if let Some(f) = delta.flush_below.take() {
            ctl.flush = Some(f);
        }
        ctl.side_effect |= delta.side_effect;
        if res.is_err() {
            delta.fault = true;
        }
        delta.apply(state, block);
        delta.clear();
        self.scratch = Some(delta);
        res
    }
}

/// Resolve a pre-lowered register-or-immediate operand.
#[inline]
fn reg_or_imm_value(state: &PacketState, v: RegOrImm) -> u64 {
    match v {
        RegOrImm::Reg(r) => state.regs[r as usize],
        RegOrImm::Imm(i) => i,
    }
}
