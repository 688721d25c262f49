//! Packet framing (§4.2).
//!
//! The packet streams through the pipeline in frames (32/64 B are typical);
//! frame `k` of a packet sits `k` stages behind the head frame. A stage may
//! therefore only access packet bytes whose frame has already entered the
//! pipeline: accesses to earlier frames become *stage bypass* wires, and if
//! an instruction needs a frame that is not yet inside, synthetic
//! frame-wait stages are inserted in front of it ("eHDL handles these cases
//! by introducing synthetic NOP stages, with the only goal of making the
//! pipeline longer").

use crate::ir::{HwInsn, MemLabel};
use crate::pipeline::{Stage, StageKind};
use ehdl_ebpf::helpers::helper_info;
use ehdl_ebpf::insn::Instruction;

/// Worst-case packet length, used when an access offset is unbounded: the
/// longest packet the datapath buffers.
const MAX_PACKET_LEN: usize = 1514;

/// Framing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramingOptions {
    /// Frame size in bytes (64 B default, matching Corundum's datapath).
    pub frame_size: usize,
    /// One past the highest packet byte any access can touch, when the
    /// abstract interpreter proved *every* packet access in-bounds. Caps
    /// the worst-case fallback for accesses whose label stayed unbounded.
    /// Must only be set from an all-accesses-proven analysis.
    pub packet_cap: Option<i64>,
}

impl Default for FramingOptions {
    fn default() -> FramingOptions {
        FramingOptions { frame_size: 64, packet_cap: None }
    }
}

/// Result of the framing pass.
#[derive(Debug, Clone)]
pub struct FramingInfo {
    /// Frame size in bytes.
    pub frame_size: usize,
    /// Longest packet the datapath buffers; the ingress MAC drops
    /// anything larger before it reaches the pipeline.
    pub max_packet_len: usize,
    /// Frame-wait stages inserted.
    pub wait_stages: usize,
    /// Deepest frame index any stage accesses (bypass wire length bound).
    pub max_bypass: usize,
    /// Per final stage: highest frame index accessed (`None` if the stage
    /// does not touch the packet).
    pub stage_frames: Vec<Option<usize>>,
}

/// Apply framing: insert frame-wait stages so that every packet access
/// reads a frame already inside the pipeline.
pub fn apply(mut stages: Vec<Stage>, opts: FramingOptions) -> (Vec<Stage>, FramingInfo) {
    let mut out: Vec<Stage> = Vec::with_capacity(stages.len());
    let mut wait_stages = 0usize;
    let mut max_bypass = 0usize;
    let mut stage_frames = Vec::with_capacity(stages.len());

    for stage in stages.drain(..) {
        let frame = stage_max_frame(&stage, opts);
        if let Some(f) = frame {
            // Frame f reaches the pipeline only at stage index f.
            while out.len() < f {
                out.push(Stage { block: stage.block, ops: vec![], kind: StageKind::FrameWait });
                stage_frames.push(None);
                wait_stages += 1;
            }
            max_bypass = max_bypass.max(f);
        }
        stage_frames.push(frame);
        out.push(stage);
    }

    (
        out,
        FramingInfo {
            frame_size: opts.frame_size,
            max_packet_len: MAX_PACKET_LEN,
            wait_stages,
            max_bypass,
            stage_frames,
        },
    )
}

fn stage_max_frame(stage: &Stage, opts: FramingOptions) -> Option<usize> {
    let mut max: Option<usize> = None;
    for op in &stage.ops {
        let hi = match op.label {
            MemLabel::Packet(iv) => {
                if iv.is_top() || iv.hi < 0 {
                    let worst = (MAX_PACKET_LEN - 1) as i64;
                    opts.packet_cap.map_or(worst, |cap| (cap - 1).clamp(0, worst))
                } else {
                    iv.hi
                }
            }
            _ => {
                // Helper blocks that rewrite the packet head only touch
                // the first frames.
                if let HwInsn::Simple(Instruction::Call { helper }) = op.insn {
                    match helper_info(helper) {
                        Some(h) if h.writes_packet => 0,
                        _ => continue,
                    }
                } else {
                    continue;
                }
            }
        };
        let f = (hi.max(0) as usize) / opts.frame_size;
        max = Some(max.map_or(f, |m: usize| m.max(f)));
    }
    max
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ir::{Interval, LabeledInsn, MemLabel};
    use ehdl_ebpf::insn::Instruction;
    use ehdl_ebpf::opcode::MemSize;

    fn pkt_load_stage(block: usize, off: i64) -> Stage {
        Stage {
            block,
            ops: vec![LabeledInsn {
                pc: 0,
                insn: HwInsn::Simple(Instruction::Load {
                    size: MemSize::B,
                    dst: 1,
                    src: 7,
                    off: 0,
                }),
                label: MemLabel::Packet(Interval::point(off)),
                map_use: None,
                elided: None,
                proof: None,
            }],
            kind: StageKind::Normal,
        }
    }

    fn alu_stage(block: usize) -> Stage {
        Stage {
            block,
            ops: vec![LabeledInsn {
                pc: 0,
                insn: HwInsn::Simple(Instruction::Alu {
                    op: ehdl_ebpf::opcode::AluOp::Add,
                    width: ehdl_ebpf::opcode::Width::W64,
                    dst: 1,
                    src: ehdl_ebpf::insn::Operand::Imm(1),
                }),
                label: MemLabel::None,
                map_use: None,
                elided: None,
                proof: None,
            }],
            kind: StageKind::Normal,
        }
    }

    #[test]
    fn header_access_needs_no_waits() {
        let stages = vec![pkt_load_stage(0, 12), alu_stage(0)];
        let (out, info) = apply(stages, FramingOptions::default());
        assert_eq!(out.len(), 2);
        assert_eq!(info.wait_stages, 0);
        assert_eq!(info.max_bypass, 0);
    }

    #[test]
    fn deep_access_in_early_stage_inserts_waits() {
        // Accessing byte 300 (frame 4 at 64 B) in the very first stage.
        let stages = vec![pkt_load_stage(0, 300), alu_stage(0)];
        let (out, info) = apply(stages, FramingOptions::default());
        assert_eq!(info.wait_stages, 4);
        assert_eq!(out.len(), 6);
        assert!(matches!(out[0].kind, StageKind::FrameWait));
        assert!(matches!(out[4].kind, StageKind::Normal));
        assert_eq!(info.max_bypass, 4);
    }

    #[test]
    fn late_deep_access_needs_no_waits() {
        let mut stages: Vec<Stage> = (0..6).map(|_| alu_stage(0)).collect();
        stages.push(pkt_load_stage(0, 300)); // stage 6 ≥ frame 4
        let (_, info) = apply(stages, FramingOptions::default());
        assert_eq!(info.wait_stages, 0);
        assert_eq!(info.max_bypass, 4);
    }

    #[test]
    fn smaller_frames_mean_more_waits() {
        let stages = vec![pkt_load_stage(0, 300)];
        let (_, info64) =
            apply(stages.clone(), FramingOptions { frame_size: 64, ..Default::default() });
        let (_, info16) = apply(stages, FramingOptions { frame_size: 16, ..Default::default() });
        assert!(info16.wait_stages > info64.wait_stages);
    }

    #[test]
    fn unknown_offset_uses_max_packet() {
        let mut s = pkt_load_stage(0, 0);
        s.ops[0].label = MemLabel::Packet(Interval::TOP);
        let (_, info) = apply(vec![s], FramingOptions::default());
        assert_eq!(info.max_bypass, 1513 / 64);
    }

    #[test]
    fn proven_packet_cap_narrows_unbounded_access() {
        let mut s = pkt_load_stage(0, 0);
        s.ops[0].label = MemLabel::Packet(Interval::TOP);
        let (_, info) =
            apply(vec![s], FramingOptions { packet_cap: Some(64), ..Default::default() });
        // Bytes 0..64 end at frame 0 instead of frame 1513/64.
        assert_eq!(info.max_bypass, 0);
        assert_eq!(info.wait_stages, 0);
    }
}
