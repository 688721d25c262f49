//! Negative-path coverage for the static verifier: one test per
//! [`VerifyError`] variant, proving each structural constraint actually
//! rejects its violation, plus a check that the rendered error names the
//! offending instruction slot (the kernel verifier's most useful habit).

#![allow(clippy::unwrap_used)]

use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::insn::Insn;
use ehdl_ebpf::maps::{MapDef, MapKind};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_ebpf::verifier::{check_initialized, verify, VerifyError};
use ehdl_ebpf::Program;

fn prog(a: Asm) -> Program {
    Program::from_insns(a.into_insns())
}

#[test]
fn empty_program_is_rejected() {
    assert_eq!(verify(&Program::from_insns(vec![])), Err(VerifyError::Empty));
}

#[test]
fn undecodable_bytecode_is_rejected() {
    // 0xff is not a valid opcode byte in any eBPF class.
    let p = Program::from_insns(vec![Insn { opcode: 0xff, dst: 0, src: 0, off: 0, imm: 0 }]);
    assert!(matches!(verify(&p), Err(VerifyError::Decode(_))));
}

#[test]
fn bad_register_is_rejected() {
    // Writing the read-only frame pointer.
    let mut a = Asm::new();
    a.mov64_imm(10, 0);
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::BadRegister { pc: 0, reg: 10 }));
}

#[test]
fn bad_jump_target_is_rejected() {
    // A jump into the second slot of a ld_imm64 pair: slot 2 exists in the
    // bytecode but is not an instruction boundary.
    let mut a = Asm::new();
    let l = a.new_label();
    a.jmp_imm(JmpOp::Jeq, 1, 0, l);
    a.ld_imm64(2, 0xdead_beef); // slots 1 and 2
    a.bind(l); // slot 3
    a.mov64_imm(0, 2);
    a.exit();
    let mut insns = a.into_insns();
    insns[0].off -= 1; // retarget from slot 3 into the pair's second half
    assert_eq!(
        verify(&Program::from_insns(insns)),
        Err(VerifyError::BadJumpTarget { pc: 0, target: 2 })
    );
}

#[test]
fn stack_out_of_bounds_is_rejected() {
    // Below the 512-byte frame.
    let mut a = Asm::new();
    a.store_imm(MemSize::W, 10, -516, 0);
    a.mov64_imm(0, 2);
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::StackOutOfBounds { pc: 0, off: -516 }));

    // Crossing the frame pointer upward.
    let mut a = Asm::new();
    a.store_imm(MemSize::Dw, 10, -4, 0);
    a.mov64_imm(0, 2);
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::StackOutOfBounds { pc: 0, off: -4 }));
}

#[test]
fn unknown_map_is_rejected() {
    let mut a = Asm::new();
    a.ld_map_fd(1, 7); // no map 7 declared
    a.mov64_imm(0, 2);
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::UnknownMap { pc: 0, map: 7 }));

    // The same reference is fine once the map exists.
    let mut a = Asm::new();
    a.ld_map_fd(1, 7);
    a.mov64_imm(0, 2);
    a.exit();
    let p = Program::new("m", a.into_insns(), vec![MapDef::new(7, "x", MapKind::Array, 4, 8, 1)]);
    assert!(verify(&p).is_ok());
}

#[test]
fn unknown_helper_is_rejected() {
    let mut a = Asm::new();
    a.call(9999);
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::UnknownHelper { pc: 0, helper: 9999 }));
}

#[test]
fn falling_off_the_end_is_rejected() {
    let mut a = Asm::new();
    a.mov64_imm(0, 2); // no exit
    assert_eq!(verify(&prog(a)), Err(VerifyError::FallsThrough { pc: 0 }));
}

#[test]
fn unreachable_code_is_rejected() {
    let mut a = Asm::new();
    a.mov64_imm(0, 2);
    a.exit();
    a.mov64_imm(0, 1); // dead
    a.exit();
    assert_eq!(verify(&prog(a)), Err(VerifyError::Unreachable { pc: 2 }));
}

#[test]
fn back_edge_is_reported_not_rejected() {
    let mut a = Asm::new();
    let top = a.new_label();
    a.mov64_imm(1, 4);
    a.bind(top);
    a.alu64_imm(AluOp::Sub, 1, 1);
    a.jmp_imm(JmpOp::Jne, 1, 0, top);
    a.mov64_imm(0, 2);
    a.exit();
    let p = prog(a);
    // The compiler decides whether it can unroll the loop.
    assert_eq!(verify(&p).unwrap().back_edges, vec![2]);
}

#[test]
fn uninitialized_read_is_rejected() {
    let mut a = Asm::new();
    a.mov64_reg(0, 5); // r5 never written
    a.exit();
    assert_eq!(check_initialized(&prog(a)), Err(VerifyError::UninitializedRead { pc: 0, reg: 5 }));
}

#[test]
fn errors_name_the_offending_pc() {
    // The slot index must appear in the rendered message so a user can
    // find the instruction (here: the bad store sits at slot 3).
    let mut a = Asm::new();
    a.mov64_imm(0, 2);
    a.mov64_imm(2, 1);
    a.mov64_imm(3, 1);
    a.store_imm(MemSize::W, 10, -600, 0);
    a.exit();
    let err = verify(&prog(a)).unwrap_err();
    assert_eq!(err, VerifyError::StackOutOfBounds { pc: 3, off: -600 });
    let msg = err.to_string();
    assert!(msg.contains("(pc 3)"), "message must cite the slot: {msg}");
}
