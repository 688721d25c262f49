//! Deterministic fuzzing of the control-channel front end: the frame
//! codec and the mailbox must return typed errors on arbitrary input —
//! never panic, never hang, never silently half-apply — and every frame
//! the mailbox accepts must complete exactly once.
//!
//! Every case is derived from `ehdl-rng`, so a failure reproduces from
//! the seed printed in the assertion message.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use ehdl_core::Compiler;
use ehdl_ebpf::maps::{MapDef, MapError, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::MemSize;
use ehdl_ebpf::{asm::Asm, Program};
use ehdl_hwsim::{
    crc32, decode_frame, encode_frame, gather_capacity, CtrlError, CtrlOptions, FrameError, HostOp,
    HostOpResult, PipelineSim, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use ehdl_rng::Rng;

/// Pass-through program with two host-facing maps so frames can name a
/// valid map, a second valid map, and out-of-range ids.
fn two_map_program() -> Program {
    let mut a = Asm::new();
    a.load(MemSize::W, 7, 1, 0);
    a.mov64_imm(0, 3);
    a.exit();
    Program::new(
        "fuzzctrl",
        a.into_insns(),
        vec![
            MapDef::new(0, "cells", MapKind::Hash, 8, 8, 32),
            MapDef::new(1, "tallies", MapKind::Array, 4, 8, 16),
        ],
    )
}

fn sim_with_ctrl(queue_depth: usize, latency_cycles: u64) -> PipelineSim {
    let design = Compiler::new().compile(&two_map_program()).unwrap();
    let mut sim = PipelineSim::new(&design);
    sim.attach_ctrl(CtrlOptions { latency_cycles, queue_depth });
    sim
}

/// A random op, weighted toward well-formed shapes but with wrong key
/// and value sizes and out-of-range map ids mixed in.
fn random_op(rng: &mut Rng) -> HostOp {
    let map = match rng.gen_index(8) {
        0..=4 => 0,
        5..=6 => 1,
        _ => rng.gen_u8() as u32, // usually out of range
    };
    // Keys must be non-empty (the codec rejects empty keys as a
    // malformed shape); sizes still roam so the device-side key/value
    // size checks get exercised through clean frames.
    let blob = |rng: &mut Rng, min: usize, usual: usize| -> Vec<u8> {
        let len = if rng.gen_index(4) == 0 { min + rng.gen_index(64 - min) } else { usual };
        (0..len).map(|_| rng.gen_u8()).collect()
    };
    match rng.gen_index(5) {
        // A gather's keys share one length, as on the wire; now and then
        // it fills its frame to the last key.
        4 => {
            let key_len = blob(rng, 1, 8).len();
            let n = match rng.gen_index(8) {
                0 => gather_capacity(key_len),
                _ => 1 + rng.gen_index(12),
            };
            let mut key = || (0..key_len).map(|_| rng.gen_u8()).collect();
            HostOp::Gather { map, keys: (0..n).map(|_| key()).collect() }
        }
        0 => HostOp::Lookup { map, key: blob(rng, 1, 8) },
        1 => HostOp::Update {
            map,
            key: blob(rng, 1, 8),
            value: blob(rng, 0, 8),
            flags: match rng.gen_index(3) {
                0 => UpdateFlags::Any,
                1 => UpdateFlags::NoExist,
                _ => UpdateFlags::Exist,
            },
        },
        2 => HostOp::Delete { map, key: blob(rng, 1, 8) },
        _ => HostOp::Dump { map },
    }
}

/// Mutate an encoded frame: bit flips, truncation, extension past the
/// length limit, byte-window overwrites, or header-field surgery.
fn mutate(rng: &mut Rng, frame: &mut Vec<u8>) {
    match rng.gen_index(5) {
        0 => {
            for _ in 0..=rng.gen_index(8) {
                let bit = rng.gen_index(frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => frame.truncate(rng.gen_index(frame.len() + 1)),
        2 => {
            let extra = rng.gen_range_u64(1, MAX_FRAME_LEN as u64 + 64) as usize;
            frame.extend((0..extra).map(|_| rng.gen_u8()));
        }
        3 => {
            let start = rng.gen_index(frame.len());
            let end = (start + 1 + rng.gen_index(16)).min(frame.len());
            for b in &mut frame[start..end] {
                *b = rng.gen_u8();
            }
        }
        _ => {
            // Header surgery: kind byte, length fields, or the CRC word.
            let off = [4, 12, 14, 16, 18, frame.len() - 4][rng.gen_index(6)];
            if off < frame.len() {
                frame[off] = frame[off].wrapping_add(1 + rng.gen_u8() % 0xff);
            }
        }
    }
}

/// The codec round-trips every op shape bit-exactly.
#[test]
fn codec_roundtrips_random_ops() {
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    for case in 0..2000 {
        let op = random_op(&mut rng);
        let seq = rng.next_u64();
        let frame = encode_frame(seq, &op);
        assert!(
            frame.len() >= FRAME_HEADER_LEN && frame.len() <= MAX_FRAME_LEN,
            "case {case}: encoded length {} out of range",
            frame.len()
        );
        let (got_seq, got_op) = decode_frame(&frame)
            .unwrap_or_else(|e| panic!("case {case}: clean frame rejected: {e}"));
        assert_eq!(got_seq, seq, "case {case}: seq mangled");
        assert_eq!(got_op, op, "case {case}: op mangled");
    }
}

/// Mutated frames — bit-flipped, truncated, oversized, rewritten — must
/// come back as a typed [`ehdl_hwsim::FrameError`] or decode cleanly;
/// the decoder never panics and never returns a frame longer than the
/// limit.
#[test]
fn decoder_is_total_on_mutated_frames() {
    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    let mut rejected = 0u32;
    for case in 0..3000 {
        let mut frame = encode_frame(rng.next_u64(), &random_op(&mut rng));
        mutate(&mut rng, &mut frame);
        match decode_frame(&frame) {
            Ok(_) => {}
            Err(e) => {
                rejected += 1;
                // The error formats — it is a real typed value, not a
                // sentinel that panics on display.
                let _ = format!("case {case}: {e}");
            }
        }
    }
    assert!(rejected > 1000, "mutations must actually trip the codec (got {rejected})");
}

/// The wire kind byte of a [`HostOp::Gather`] frame.
const KIND_GATHER: u8 = 4;

/// Recompute the CRC trailer after header surgery, so the structural
/// checks behind the checksum are what a case exercises.
fn reseal(frame: &mut [u8]) {
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Every way a gather frame can be malformed behind a valid checksum —
/// no keys, key bytes that are not a whole number of keys, more keys
/// than a frame holds, a kind byte that no longer matches the payload —
/// is a typed [`FrameError`], and a wrong-size key fails the whole
/// gather at the device with the map's typed error.
#[test]
fn malformed_gathers_are_typed_errors() {
    let mut rng = Rng::seed_from_u64(0x6A7E);
    let bad_shape = |kind| Err(FrameError::BadShape { kind });
    for case in 0..500 {
        let key_len = 1 + rng.gen_index(40);
        let n = 1 + rng.gen_index(gather_capacity(key_len).min(50));
        let keys: Vec<Vec<u8>> =
            (0..n).map(|_| (0..key_len).map(|_| rng.gen_u8()).collect()).collect();
        let op = HostOp::Gather { map: 0, keys: keys.clone() };
        let clean = encode_frame(case, &op);
        assert_eq!(decode_frame(&clean), Ok((case, op)), "case {case}");
        let per_key_at = FRAME_HEADER_LEN + n * key_len;

        // No keys: the header claims an empty key field.
        let mut f = clean[..FRAME_HEADER_LEN].to_vec();
        f[18..20].copy_from_slice(&0u16.to_le_bytes());
        f.extend_from_slice(&clean[per_key_at..]);
        reseal(&mut f);
        assert_eq!(decode_frame(&f), bad_shape(KIND_GATHER), "case {case}: zero keys");

        // A per-key length that does not divide the key bytes (or is 0).
        let total = n * key_len;
        let wrong = std::iter::repeat_with(|| rng.gen_index(total + 2))
            .find(|&l| l == 0 || !total.is_multiple_of(l))
            .unwrap();
        let mut f = clean.clone();
        f[per_key_at..per_key_at + 2].copy_from_slice(&(wrong as u16).to_le_bytes());
        reseal(&mut f);
        assert_eq!(decode_frame(&f), bad_shape(KIND_GATHER), "case {case}: {wrong} into {total}");

        // The kind byte flipped to every other value: the payload no
        // longer has that kind's shape (an update accepts any).
        for kind in (0..=255u8).filter(|k| *k != KIND_GATHER) {
            let mut f = clean.clone();
            f[4] = kind;
            reseal(&mut f);
            match (kind, decode_frame(&f)) {
                (0 | 2 | 3, r) => assert_eq!(r, bad_shape(kind), "case {case}"),
                (1, r) => assert!(matches!(r, Ok((_, HostOp::Update { .. }))), "case {case}"),
                (_, r) => assert_eq!(r, Err(FrameError::BadKind { kind }), "case {case}"),
            }
        }
        // ... and a lookup relabelled as a gather has no length field.
        let mut f = encode_frame(case, &HostOp::Lookup { map: 0, key: keys[0].clone() });
        f[4] = KIND_GATHER;
        reseal(&mut f);
        assert_eq!(decode_frame(&f), bad_shape(KIND_GATHER), "case {case}: lookup as gather");

        // A gather takes no flags.
        let mut f = clean.clone();
        f[5] = 1 + rng.gen_u8() % 0xff;
        reseal(&mut f);
        assert_eq!(decode_frame(&f), Err(FrameError::BadFlags { flags: f[5] }), "case {case}");

        // Keys of unequal length have no wire form: what the encoder
        // emits for them decodes as no gather at all.
        let mut uneven = keys.clone();
        uneven.push(vec![0; key_len + 1]);
        let f = encode_frame(case, &HostOp::Gather { map: 0, keys: uneven });
        assert_eq!(decode_frame(&f), bad_shape(KIND_GATHER), "case {case}: uneven keys");

        // One key past the frame limit.
        let over = gather_capacity(key_len) + 1;
        let f = encode_frame(case, &HostOp::Gather { map: 0, keys: vec![keys[0].clone(); over] });
        assert!(
            matches!(decode_frame(&f), Err(FrameError::Oversized { .. })),
            "case {case}: {over} keys of {key_len} bytes"
        );
    }

    // At the device: `cells` has 8-byte keys. A well-sized gather reads
    // hits and misses in key order; any other key size fails it whole.
    let mut sim = sim_with_ctrl(8, 1);
    let key = |k: u64| k.to_le_bytes().to_vec();
    let upd = HostOp::Update { map: 0, key: key(2), value: key(22), flags: UpdateFlags::Any };
    sim.submit_host_frame(&encode_frame(0, &upd)).unwrap();
    let good = HostOp::Gather { map: 0, keys: vec![key(1), key(2), key(2)] };
    sim.submit_host_frame(&encode_frame(1, &good)).unwrap();
    let short = HostOp::Gather { map: 0, keys: vec![vec![1, 2, 3], vec![4, 5, 6]] };
    sim.submit_host_frame(&encode_frame(2, &short)).unwrap();
    sim.settle(10_000);
    let results: Vec<_> = sim.host_completions().into_iter().map(|c| c.result).collect();
    assert_eq!(
        results[1],
        Ok(HostOpResult::Values(vec![Ok(None), Ok(Some(key(22))), Ok(Some(key(22)))]))
    );
    assert_eq!(results[2], Err(MapError::BadKeySize { expected: 8, got: 3 }));
}

/// End-to-end: mutated frames through the mailbox. Every submission
/// returns a typed result, every accepted frame completes exactly once
/// (retransmitted seqs are answered from the dedupe cache, not
/// re-applied), and nothing panics between submit and completion.
#[test]
fn mailbox_survives_mutated_frames_and_completes_accepted_ones() {
    let mut rng = Rng::seed_from_u64(0xFEEDFACE);
    let mut sim = sim_with_ctrl(64, 2);
    let mut accepted: Vec<u64> = Vec::new();
    let mut typed_rejects = 0u64;
    for case in 0..1500 {
        let mut frame = encode_frame(rng.next_u64(), &random_op(&mut rng));
        if rng.gen_index(4) != 0 {
            mutate(&mut rng, &mut frame);
        }
        match sim.submit_host_frame(&frame) {
            Ok(seq) => accepted.push(seq),
            Err(CtrlError::BadFrame(_) | CtrlError::NoSuchMap { .. }) => typed_rejects += 1,
            Err(e) => panic!("case {case}: unexpected error class: {e}"),
        }
        // Drain between bursts so the mailbox never fills: this test is
        // about codec hardening, not backpressure.
        if case % 32 == 31 {
            sim.settle(100_000);
        }
    }
    sim.settle(100_000);
    let completions: Vec<u64> = sim.host_completions().iter().map(|c| c.id).collect();
    assert!(typed_rejects > 0, "mutations must produce typed driver-side rejects");
    assert_eq!(
        completions.len(),
        accepted.len(),
        "every accepted frame completes exactly once — no silent drop, no double apply"
    );
    let accepted_set: BTreeSet<u64> = accepted.iter().copied().collect();
    for id in &completions {
        assert!(accepted_set.contains(id), "completion {id} for a frame never accepted");
    }
    let unique = accepted_set.len() as u64;
    let stats = sim.ctrl_stats().unwrap();
    assert_eq!(
        stats.dedupe_hits,
        accepted.len() as u64 - unique,
        "a resubmitted seq is answered from the applied cache, not re-applied"
    );
}

/// Satellite: flooding the mailbox past its depth must return
/// [`CtrlError::QueueFull`] with the configured depth — typed, never a
/// panic, never a silent drop — and the accepted prefix still completes
/// exactly once.
#[test]
fn queue_overflow_is_typed_and_lossless_for_accepted_ops() {
    let depth = 4;
    let mut sim = sim_with_ctrl(depth, 1000);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..(10 * depth as u64) {
        let frame = encode_frame(
            i,
            &HostOp::Update {
                map: 0,
                key: i.to_le_bytes().to_vec(),
                value: (i * 3).to_le_bytes().to_vec(),
                flags: UpdateFlags::Any,
            },
        );
        match sim.submit_host_frame(&frame) {
            Ok(_) => accepted += 1,
            Err(CtrlError::QueueFull { depth: d }) => {
                assert_eq!(d, depth, "the error names the configured depth");
                rejected += 1;
            }
            Err(e) => panic!("flood must only hit QueueFull, got {e}"),
        }
    }
    assert_eq!(accepted, depth as u64, "exactly the mailbox depth is admitted");
    assert_eq!(rejected, 9 * depth as u64, "every overflow is a typed rejection");
    let stats = sim.ctrl_stats().unwrap();
    assert_eq!(stats.rejected, rejected, "rejects are counted, not silent");
    sim.settle(1_000_000);
    let completions = sim.host_completions();
    assert_eq!(completions.len(), depth, "accepted ops all complete exactly once");
    assert!(completions.iter().all(|c| c.result.is_ok()));
    // The admitted prefix really landed: keys 0..depth are present.
    let maps = sim.maps();
    let m = maps.get(0).unwrap();
    for i in 0..depth as u64 {
        assert!(
            matches!(m.clone().lookup(&i.to_le_bytes()), Ok(Some(_))),
            "accepted update {i} must be applied"
        );
    }
}
