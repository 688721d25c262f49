//! eBPF substrate: instruction set, assembler, disassembler, verifier, maps,
//! helper functions and a reference virtual machine.
//!
//! This crate implements everything the eHDL compiler consumes and everything
//! needed to *execute* eBPF/XDP programs in software, so that compiled
//! hardware pipelines can be differentially tested against a known-good
//! interpreter.
//!
//! The eBPF machine modelled here follows the Linux kernel's definition: a
//! RISC register machine with eleven 64-bit registers (`r0`–`r10`), a 512-byte
//! stack, and persistent state held exclusively in *maps* accessed through
//! helper functions — the properties §2.2 of the paper identifies as what
//! makes eBPF amenable to hardware pipelining.
//!
//! # Quick example
//!
//! ```
//! use ehdl_ebpf::asm::Asm;
//! use ehdl_ebpf::vm::{Vm, XdpAction};
//! use ehdl_ebpf::program::Program;
//!
//! let mut a = Asm::new();
//! a.mov64_imm(0, 2); // r0 = XDP_PASS
//! a.exit();
//! let prog = Program::from_insns(a.into_insns());
//! let mut vm = Vm::new(&prog);
//! let outcome = vm.run(&mut b"hello".to_vec(), 0)?;
//! assert_eq!(outcome.action, XdpAction::Pass);
//! # Ok::<(), ehdl_ebpf::vm::VmError>(())
//! ```

// Everything in this crate sits on the untrusted-input path (bytecode,
// ELF objects, map keys from packets), so panicking extractors are
// bugs, not conveniences. Deliberate invariant panics carry an
// explicit `#[expect]` or a documented `# Panics` section.
#![deny(clippy::unwrap_used)]

pub mod absint;
pub mod asm;
pub mod disasm;
pub mod elf;
pub mod helpers;
pub mod insn;
pub mod maps;
pub mod opcode;
pub mod program;
pub mod put;
pub mod text;
pub mod verifier;
pub mod vm;

pub use insn::{Insn, Instruction};
pub use program::Program;
