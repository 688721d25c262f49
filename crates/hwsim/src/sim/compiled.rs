//! The stage executor: runs the [`FusedOp`]s [`LoweredPlan::try_lower`]
//! baked at attach time.
//!
//! A stage's ops run in place, in stage order, with no per-stage write set.
//! The hardware reads a stage's incoming state and writes the next
//! boundary; the two agree because only write-after-read pairs share a
//! stage, reader first, which `try_lower` checks on every design
//! ([`ehdl_core::ddg::same_stage_dependence`]).
//!
//! Every specialized memory op guards its compile-time label (address
//! range, map value window or map handle); a miss runs the one cold arm,
//! [`PipelineSim::exec_unlabelled`], which unlabelled accesses lower to and
//! which decides the region at run time. The map operations have one body
//! each in the parent module. The one deliberate elision is the packet
//! bounds compare of accesses the abstract interpreter proved (`proven`),
//! per §4.4; [`SimOptions::check_proofs`] rechecks those proofs instead.

use super::*;
use ehdl_core::{FusedOp, RegOrImm};
use ehdl_ebpf::vm::{MAP_VALUE_BASE, MAP_WINDOW_BITS};

/// Decode `addr` as a value address of the *baked* map:
/// [`decode_map_value_addr`] specialized to one `(map, stride)` pair.
/// `Some((slot, offset))` only when the address lands in that map's
/// window, so a label mismatch routes to the unspecialized arm instead.
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
    /// Execute stage `s` on `pkt`, not idle here: the prologue (resume
    /// swap, empty-stage forward, the enable at the block's entry stage,
    /// implicit length guard), then the ops in place, in stage order. A
    /// disabled block or a fault moves the idle tag past what it skips.
    #[inline(always)]
    pub(super) fn exec_stage(
        &mut self,
        s: usize,
        pkt: &mut InFlight,
        lp: &LoweredPlan,
    ) -> StageResult {
        // A flush replay idled up to its checkpointed stage: the
        // checkpoint's state, idle tag included, takes over here.
        if let Some((_, mut snap)) = pkt.resume.take() {
            std::mem::swap(&mut pkt.state, &mut *snap);
            self.pool.recycle(snap);
            if (s as u32) < pkt.state.idle {
                return StageResult::Ok;
            }
        }

        let st = lp.stage(s);
        let ops = lp.stage_fused(s);
        if ops.is_empty() {
            // Frame-wait / helper-latency stages forward state.
            return StageResult::Ok;
        }
        let block = st.block as usize;
        if st.entry && !self.enable_at_entry(&mut pkt.state, block) {
            pkt.state.idle = st.run_end;
            return StageResult::Ok;
        }
        // Implicit length guards from elided bounds checks (§4.4): the
        // frame interface drops packets shorter than the guarded length.
        let pkt_len = (pkt.state.end_off - pkt.state.data_off) as i64;
        if pkt_len < st.guard_min_len {
            pkt.state.idle = FAULTED;
            return StageResult::Ok;
        }

        let seq = pkt.seq;
        let mut ctl = StageCtl::default();
        for (i, &op) in ops.iter().enumerate() {
            match self.exec_fused(s, i, block, op, seq, &mut pkt.state, &mut ctl) {
                Ok(()) => {}
                Err(OpAbort::Fault) => {
                    pkt.state.idle = FAULTED;
                    break;
                }
                // The flush re-injects the packet from a checkpoint taken
                // at or before this stage's entry (or from its original
                // bytes), so the stage's earlier in-place writes vanish.
                Err(OpAbort::FlushSelf) => return StageResult::FlushSelf,
            }
        }
        let result = match ctl.flush.take() {
            Some((map, key, read_stage)) => {
                StageResult::FlushBelow { boundary: s, read_stage, map, key }
            }
            None => StageResult::Ok,
        };
        if ctl.side_effect {
            // Checkpoint after this stage (App. A.2 elastic buffer): a
            // flush rolling back to a point at or after it resumes here
            // instead of replaying the committed side effect.
            let snap = self.pool.snapshot(&pkt.state);
            pkt.checkpoints.push((s + 1, snap));
        }
        result
    }

    /// Execute one fused op in place. `Err` aborts the stage: `Fault`
    /// keeps earlier writes and poisons the packet, `FlushSelf` re-executes
    /// it from a checkpoint.
    ///
    /// Always inlined into the stage loop: the ALU/memory arms below
    /// compile to a few instructions each, and keeping them in the loop
    /// body spares an 8-argument call per op. The map and unspecialized
    /// arms are out-of-line methods so they don't bloat the dispatch table.
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
        ctl: &mut StageCtl,
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
            FusedOp::JmpAlways => state.pred.set(TAKEN, block, true),
            FusedOp::JmpRR { op, width, lhs, rhs } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], state.regs[rhs as usize]);
                state.pred.set(TAKEN, block, t);
            }
            FusedOp::JmpRI { op, width, lhs, imm } => {
                let t = cond_eval(op, width, state.regs[lhs as usize], imm);
                state.pred.set(TAKEN, block, t);
            }
            FusedOp::Exit => state.action = Some(XdpAction::from_r0(state.regs[0])),
            FusedOp::LdCtx { size, dst, src, off } => {
                let addr = addr_of(state, src, off);
                if (CTX_BASE..CTX_BASE + xdp_md::SIZE as u64).contains(&addr) {
                    state.regs[dst as usize] = ctx_read(state, addr, size);
                } else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                }
            }
            FusedOp::LdStk { size, dst, src, off } => {
                let addr = addr_of(state, src, off);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    state.regs[dst as usize] =
                        load_le(&state.stack, o, size).ok_or(OpAbort::Fault)?;
                } else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                }
            }
            FusedOp::LdPkt { size, dst, src, off, proven } => {
                let addr = addr_of(state, src, off);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    if proven && self.options.check_proofs {
                        self.recheck_proof(s, i, addr, state);
                    }
                    // The §4.4 elision: a proof from the abstract
                    // interpreter stands in for the dynamic bounds compare.
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    state.regs[dst as usize] =
                        load_le(&state.buf, o, size).ok_or(OpAbort::Fault)?;
                } else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                }
            }
            FusedOp::StStk { size, base, off, src } => {
                let addr = addr_of(state, base, off);
                if (STACK_BASE..STACK_TOP).contains(&addr) {
                    let o = (addr - STACK_BASE) as usize;
                    let value = reg_or_imm_value(state, src);
                    store_le(&mut state.stack, o, size, value).ok_or(OpAbort::Fault)?;
                    state.stack_lo = state.stack_lo.min(o);
                } else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                }
            }
            FusedOp::StPkt { size, base, off, src, proven } => {
                let addr = addr_of(state, base, off);
                if (PACKET_BASE..STACK_BASE).contains(&addr) {
                    let o = (addr - PACKET_BASE) as usize;
                    let n = size.bytes();
                    if proven && self.options.check_proofs {
                        self.recheck_proof(s, i, addr, state);
                    }
                    if !(proven || o >= state.data_off && o + n <= state.end_off) {
                        return Err(OpAbort::Fault);
                    }
                    let value = reg_or_imm_value(state, src);
                    store_le(&mut state.buf, o, size, value).ok_or(OpAbort::Fault)?;
                } else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                }
            }
            FusedOp::LdMap { .. }
            | FusedOp::StMap { .. }
            | FusedOp::AtomicMap { .. }
            | FusedOp::Lookup { .. }
            | FusedOp::MapUpdate { .. }
            | FusedOp::MapDelete { .. } => {
                return self.exec_fused_map(s, i, op, seq, state, ctl);
            }
            FusedOp::LdAny { .. } | FusedOp::StAny { .. } | FusedOp::AtomicAny { .. } => {
                return self.exec_unlabelled(s, i, op, seq, state, ctl);
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
            FusedOp::AdjustHead => {
                let new_off = state.data_off as i64 + state.regs[2] as i64;
                let r0 = if new_off < 0 || new_off as usize >= state.end_off {
                    u64::MAX
                } else {
                    state.data_off = new_off as usize;
                    state.buf_lo = state.buf_lo.min(state.data_off);
                    0
                };
                helper_epilogue(state, r0);
            }
            FusedOp::AdjustTail => {
                let new_end = state.end_off as i64 + state.regs[2] as i64;
                let r0 = if new_end <= state.data_off as i64 || new_end as usize > state.buf.len() {
                    u64::MAX
                } else {
                    state.end_off = new_end as usize;
                    0
                };
                helper_epilogue(state, r0);
            }
            FusedOp::CsumDiff => {
                let r0 = self.csum_diff(seq, state)?;
                helper_epilogue(state, r0);
            }
        }
        Ok(())
    }

    /// The map-op arms of [`PipelineSim::exec_fused`], out of line: each
    /// body is tens of instructions of shared-state machinery (hazard
    /// interlocks, delay buffers, hash lookups), so keeping them off the
    /// inlined dispatch path keeps the hot ALU/memory loop tight.
    #[inline(never)]
    fn exec_fused_map(
        &mut self,
        s: usize,
        i: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut StageCtl,
    ) -> Result<(), OpAbort> {
        if let FusedOp::Lookup { map, .. }
        | FusedOp::MapUpdate { map, .. }
        | FusedOp::MapDelete { map, .. } = op
        {
            if map_handle(state.regs[1]) != Some(map) {
                return self.exec_unlabelled(s, i, op, seq, state, ctl);
            }
        }
        match op {
            FusedOp::LdMap { size, dst, src, off, map, stride, value_size } => {
                let Some((slot, o)) = map_slot_of(addr_of(state, src, off), map, stride) else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
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
                let Some((slot, o)) = map_slot_of(addr_of(state, base, off), map, stride) else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                };
                self.map_value_store(
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
                    ctl,
                )?;
            }
            FusedOp::AtomicMap { op: aop, size, dst, src, off, map, stride, value_size } => {
                let Some((slot, o)) = map_slot_of(addr_of(state, dst, off), map, stride) else {
                    return self.exec_unlabelled(s, i, op, seq, state, ctl);
                };
                let old = self.map_atomic(
                    map,
                    slot,
                    o,
                    size,
                    value_size as usize,
                    aop,
                    state.regs[src as usize],
                    state.regs[0],
                    seq,
                    ctl,
                )?;
                atomic_fetch(state, aop, src, old);
            }
            FusedOp::Lookup { map, key_size, stride } => {
                let r0 = self.map_lookup(s, map, key_size as usize, stride, seq, state)?;
                helper_epilogue(state, r0);
            }
            FusedOp::MapUpdate { map, key_size, value_size, delay, feb_read_stage } => {
                self.map_update(
                    s,
                    map,
                    key_size as usize,
                    value_size as usize,
                    u64::from(delay),
                    feb_read_stage as usize,
                    seq,
                    state,
                    ctl,
                )?;
                helper_epilogue(state, 0);
            }
            FusedOp::MapDelete { map, key_size, delay, feb_read_stage } => {
                self.map_delete(
                    s,
                    map,
                    key_size as usize,
                    u64::from(delay),
                    feb_read_stage as usize,
                    seq,
                    state,
                    ctl,
                )?;
                helper_epilogue(state, 0);
            }
            // Routed here only for the map-op variants.
            _ => unreachable!("exec_fused_map handles map ops only"),
        }
        Ok(())
    }

    /// The unspecialized arm of every memory op: loads, stores and atomics
    /// with no usable label, and any fused memory op whose runtime address
    /// or map handle missed its label. The address region (or, for a map
    /// helper, the map behind the `r1` handle) is decided here, at run
    /// time; the effects land in place exactly as the fused arms' do.
    #[cold]
    #[inline(never)]
    fn exec_unlabelled(
        &mut self,
        s: usize,
        i: usize,
        op: FusedOp,
        seq: u64,
        state: &mut PacketState,
        ctl: &mut StageCtl,
    ) -> Result<(), OpAbort> {
        match op {
            FusedOp::LdCtx { size, dst, src, off }
            | FusedOp::LdStk { size, dst, src, off }
            | FusedOp::LdPkt { size, dst, src, off, .. }
            | FusedOp::LdMap { size, dst, src, off, .. }
            | FusedOp::LdAny { size, dst, src, off } => {
                let addr = addr_of(state, src, off);
                if self.options.check_proofs {
                    self.recheck_proof(s, i, addr, state);
                }
                state.regs[dst as usize] = self.mem_read(state, seq, addr, size)?;
            }
            FusedOp::StStk { size, base, off, src }
            | FusedOp::StPkt { size, base, off, src, .. }
            | FusedOp::StMap { size, base, off, src, .. }
            | FusedOp::StAny { size, base, off, src } => {
                let addr = addr_of(state, base, off);
                if self.options.check_proofs {
                    self.recheck_proof(s, i, addr, state);
                }
                let value = reg_or_imm_value(state, src);
                if let Some((map, slot, o, value_size)) = self.map_value_at(addr) {
                    let (delay, feb) = self.plan.write_schedule(s, map);
                    self.map_value_store(
                        s, map, slot, o, size, value, value_size, delay, feb, seq, ctl,
                    )?;
                } else {
                    PipelineSim::local_write(state, addr, size, value)?;
                }
            }
            FusedOp::AtomicMap { op: aop, size, dst, src, off, .. }
            | FusedOp::AtomicAny { op: aop, size, dst, src, off } => {
                let addr = addr_of(state, dst, off);
                if self.options.check_proofs {
                    self.recheck_proof(s, i, addr, state);
                }
                let operand = state.regs[src as usize];
                let old = if let Some((map, slot, o, value_size)) = self.map_value_at(addr) {
                    // Atomics on map values execute in the map block.
                    let r0 = state.regs[0];
                    self.map_atomic(map, slot, o, size, value_size, aop, operand, r0, seq, ctl)?
                } else {
                    // Stack/packet atomics are local read-modify-writes.
                    let old = self.mem_read(state, seq, addr, size)?;
                    let new = atomic_new_value(aop, old, operand, state.regs[0] & mask_for(size));
                    PipelineSim::local_write(state, addr, size, new)?;
                    old
                };
                atomic_fetch(state, aop, src, old);
            }
            FusedOp::Lookup { .. } | FusedOp::MapUpdate { .. } | FusedOp::MapDelete { .. } => {
                let map = map_handle(state.regs[1]).ok_or(OpAbort::Fault)?;
                let def = self.maps.get(map).ok_or(OpAbort::Fault)?.def();
                let (key_size, value_size) = (def.key_size as usize, def.value_size as usize);
                let stride = def.value_stride();
                let (delay, feb) = self.plan.write_schedule(s, map);
                let r0 = match op {
                    FusedOp::Lookup { .. } => {
                        self.map_lookup(s, map, key_size, stride, seq, state)?
                    }
                    FusedOp::MapUpdate { .. } => {
                        self.map_update(s, map, key_size, value_size, delay, feb, seq, state, ctl)?;
                        0
                    }
                    _ => {
                        self.map_delete(s, map, key_size, delay, feb, seq, state, ctl)?;
                        0
                    }
                };
                helper_epilogue(state, r0);
            }
            _ => unreachable!("exec_unlabelled handles memory ops only"),
        }
        Ok(())
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

/// The register an atomic returns its fetched word in, if it fetches.
#[inline]
fn atomic_fetch(state: &mut PacketState, aop: AtomicOp, src: u8, old: u64) {
    match aop {
        AtomicOp::Cmpxchg => state.regs[0] = old,
        _ if aop.fetches() => state.regs[src as usize] = old,
        _ => {}
    }
}
