//! Deterministic fuzzing of the untrusted-input front end: the ELF
//! loader, the instruction decoder and the verifier must return typed
//! errors on arbitrary input — never panic, never hang.
//!
//! Every case is derived from `ehdl-rng`, so a failure reproduces from
//! the seed printed in the assertion message.

#![allow(clippy::unwrap_used)]

use ehdl_ebpf::absint;
use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::elf;
use ehdl_ebpf::insn::{decode, Decoded, Insn};
use ehdl_ebpf::maps::{MapDef, MapKind};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_ebpf::verifier::verify;
use ehdl_ebpf::vm::Vm;
use ehdl_ebpf::Program;
use ehdl_rng::Rng;

/// A loadable object exercising maps, relocations, atomics and jumps —
/// the richest on-disk shape the loader handles.
fn sample_object() -> Vec<u8> {
    let mut a = Asm::new();
    let miss = a.new_label();
    a.mov64_imm(2, 0);
    a.store_reg(MemSize::W, 10, -4, 2);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -4);
    a.call(1);
    a.jmp_imm(JmpOp::Jeq, 0, 0, miss);
    a.mov64_imm(2, 1);
    a.atomic_add64(0, 0, 2);
    a.bind(miss);
    a.ld_map_fd(3, 1);
    a.mov64_imm(0, 2);
    a.exit();
    let program = Program::new(
        "xdp_fuzz",
        a.into_insns(),
        vec![
            MapDef::new(0, "stats", MapKind::Array, 4, 8, 16),
            MapDef::new(1, "flows", MapKind::Hash, 13, 8, 64),
        ],
    );
    elf::write(&program)
}

/// Fold every field of `a` into the running FNV-1a-64 digest `h`, order
/// independently: the packet facts sorted by pc, the decided branches in
/// stream order, then the public fields as printed. A campaign's digest
/// pins each fact the analysis derived on every input it reached.
fn fold_analysis(h: &mut u64, a: &absint::Analysis, decoded: &[Decoded]) {
    let mut facts: Vec<_> = a.facts().copied().collect();
    facts.sort_by_key(|f| f.pc);
    let branches: Vec<_> =
        decoded.iter().filter_map(|d| Some((d.pc, a.branch_outcome(d.pc)?))).collect();
    assert_eq!(branches.len(), a.decided_branches());
    let text = format!(
        "{facts:?} {branches:?} {} {} {:?} {} {:?} {:?} {:?}",
        a.packet_accesses,
        a.proven_accesses,
        a.max_proven_end,
        a.all_packet_proven,
        a.stack_slots,
        a.map_keys,
        a.map_val_accesses
    );
    for &b in text.as_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Whatever the loader accepts must survive the whole downstream
/// pipeline: decode, verify, abstract-interpret, instantiate, execute.
/// When the stream decodes, the abstract interpretation must be total
/// (never panic, never hang) and its proofs must hold on the concrete
/// run — soundness is fuzzed, not assumed. Its facts go into `digest`.
fn exercise_loaded(program: &Program, digest: &mut u64) {
    let analysis = program.decode().map(|d| {
        let a = absint::analyze(&d);
        fold_analysis(digest, &a, &d);
        a
    });
    let _ = verify(program);
    if let Ok(mut vm) = Vm::try_new(program) {
        if let Ok(a) = analysis {
            vm.check_facts(a);
        }
        let _ = vm.run(&mut vec![0u8; 64], 0);
        assert!(
            vm.proof_violations().is_empty(),
            "absint proof violated on fuzz input: {:?}",
            vm.proof_violations()
        );
    }
}

#[test]
fn loader_never_panics_on_garbage() {
    let mut rng = Rng::seed_from_u64(0x10ad_f422);
    for case in 0..4000u32 {
        let len = rng.gen_index(601);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        // Half the cases get a valid magic + machine so they reach the
        // header and section walkers instead of dying at the front door.
        if case % 2 == 0 && bytes.len() >= 20 {
            bytes[..4].copy_from_slice(&[0x7f, b'E', b'L', b'F']);
            bytes[4] = 2; // ELFCLASS64
            bytes[5] = 1; // little-endian
            bytes[18..20].copy_from_slice(&247u16.to_le_bytes()); // EM_BPF
        }
        if let Ok(p) = elf::load(&bytes) {
            // Which garbage loads is the loader's business: its facts
            // are not pinned.
            exercise_loaded(&p, &mut 0);
        }
    }
}

#[test]
fn loader_never_panics_on_mutated_objects() {
    let object = sample_object();
    let mut rng = Rng::seed_from_u64(0xe1f_b17f);
    let mut digest = FNV_OFFSET;
    for _ in 0..4000u32 {
        let mut bytes = object.clone();
        match rng.gen_index(4) {
            // Flip up to 8 bits anywhere in the object.
            0 => {
                for _ in 0..=rng.gen_index(8) {
                    let i = rng.gen_index(bytes.len());
                    bytes[i] ^= 1 << rng.gen_index(8);
                }
            }
            // Overwrite a short window with noise (headers, tables).
            1 => {
                let start = rng.gen_index(bytes.len());
                let end = (start + 1 + rng.gen_index(16)).min(bytes.len());
                rng.fill_bytes(&mut bytes[start..end]);
            }
            // Truncate mid-structure.
            2 => bytes.truncate(rng.gen_index(bytes.len() + 1)),
            // Extend with trailing garbage that offsets may point into.
            _ => {
                let extra = rng.gen_index(128);
                for _ in 0..extra {
                    bytes.push(rng.gen_u8());
                }
            }
        }
        if let Ok(p) = elf::load(&bytes) {
            exercise_loaded(&p, &mut digest);
        }
    }
    assert_eq!(digest, 0x767e_1f72_d2c8_3f17, "the campaign's value-analysis facts moved");
}

#[test]
fn decoder_and_verifier_never_panic_on_random_bytecode() {
    let mut rng = Rng::seed_from_u64(0xdec0_de00);
    let mut digest = FNV_OFFSET;
    for case in 0..3000u32 {
        let n = 1 + rng.gen_index(32);
        let mut insns = Vec::with_capacity(n);
        for _ in 0..n {
            let mut raw = [0u8; 8];
            rng.fill_bytes(&mut raw);
            // Bias a third of the cases toward plausible opcodes so the
            // stream decodes deep enough to stress the verifier, not
            // just the opcode table.
            if case % 3 == 0 {
                raw[1] &= 0xbf; // keep registers mostly in range
                raw[2] &= 0xbf;
            }
            insns.push(Insn::from_bytes(raw));
        }
        let analysis = decode(&insns).map(|d| {
            let a = absint::analyze(&d);
            fold_analysis(&mut digest, &a, &d);
            a
        });
        let program = Program::from_insns(insns);
        let _ = verify(&program);
        if let Ok(mut vm) = Vm::try_new(&program) {
            if let Ok(a) = analysis {
                vm.check_facts(a);
            }
            let _ = vm.run(&mut vec![0u8; 64], 0);
            assert!(
                vm.proof_violations().is_empty(),
                "absint proof violated on random bytecode (case {case}): {:?}",
                vm.proof_violations()
            );
        }
    }
    assert_eq!(digest, 0x1c40_93d1_2893_8345, "the campaign's value-analysis facts moved");
}
