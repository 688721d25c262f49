//! Randomized differential testing: randomly generated XDP programs —
//! ALU chains, packet reads and writes, stack spills, forward branches and
//! atomic map counters — must behave identically on the reference VM and
//! on the compiled hardware pipeline, for every compiler configuration.
//!
//! Formerly proptest-based; rewritten as deterministic seeded campaigns so
//! the workspace builds without crates.io access. The two historical
//! proptest regression cases are preserved verbatim as explicit tests.

use ehdl::core::ir::HwInsn;
use ehdl::core::{Compiler, CompilerOptions, PipelineDesign};
use ehdl::ebpf::asm::Asm;
use ehdl::ebpf::helpers::{BPF_CSUM_DIFF, BPF_MAP_LOOKUP_ELEM, BPF_XDP_ADJUST_HEAD};
use ehdl::ebpf::insn::Instruction;
use ehdl::ebpf::maps::{MapDef, MapKind};
use ehdl::ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl::ebpf::Program;
use ehdl::hwsim::diff::{check, Scenario};
use ehdl::hwsim::SimOptions;
use ehdl_rng::Rng;

/// Compile `program` with `options` and demand `packets` run on one
/// pipeline exactly as on the VM.
fn equivalent(program: &Program, options: CompilerOptions, packets: &[Vec<u8>]) {
    let design = Compiler::with_options(options).compile(program).expect("program compiles");
    check(&Scenario::new(program, &design, packets)).assert_clean();
}

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Lsh,
    AluOp::Arsh,
];

const JMP_OPS: [JmpOp; 6] =
    [JmpOp::Jeq, JmpOp::Jne, JmpOp::Jgt, JmpOp::Jlt, JmpOp::Jsge, JmpOp::Jsle];

/// One straight-line random operation. Registers r2-r5 are scratch; r7 is
/// the packet pointer from the prologue.
#[derive(Debug, Clone, Copy)]
enum Op {
    MovImm(u8, i32),
    AluImm(usize, u8, i32),
    AluReg(usize, u8, u8),
    PktLoad(u8, u8, u8),  // size-sel, dst, offset (0..56)
    PktStore(u8, u8, u8), // size-sel, src, offset
    StackStore(u8, u8),   // src, slot (0..8 -> fp-8*(slot+1))
    StackLoad(u8, u8),    // dst, slot
    Endian(u8, u8),       // dst, width-sel
}

fn rand_op(rng: &mut Rng) -> Op {
    let scratch = |rng: &mut Rng| 2 + rng.gen_index(4) as u8;
    match rng.gen_index(8) {
        0 => Op::MovImm(scratch(rng), rng.gen_i32()),
        1 => Op::AluImm(rng.gen_index(ALU_OPS.len()), scratch(rng), rng.gen_i32()),
        2 => Op::AluReg(rng.gen_index(ALU_OPS.len()), scratch(rng), scratch(rng)),
        3 => Op::PktLoad(rng.gen_index(3) as u8, scratch(rng), rng.gen_index(56) as u8),
        4 => Op::PktStore(rng.gen_index(3) as u8, scratch(rng), rng.gen_index(56) as u8),
        5 => Op::StackStore(scratch(rng), rng.gen_index(8) as u8),
        6 => Op::StackLoad(scratch(rng), rng.gen_index(8) as u8),
        _ => Op::Endian(scratch(rng), rng.gen_index(3) as u8),
    }
}

fn rand_ops(rng: &mut Rng, max_len: usize) -> Vec<Op> {
    let n = rng.gen_index(max_len);
    (0..n).map(|_| rand_op(rng)).collect()
}

fn emit_ops(a: &mut Asm, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::MovImm(r, i) => {
                a.mov64_imm(r, i);
            }
            Op::AluImm(o, r, i) => {
                a.alu64_imm(ALU_OPS[o], r, i);
            }
            Op::AluReg(o, d, s) => {
                a.alu64_reg(ALU_OPS[o], d, s);
            }
            Op::PktLoad(sz, d, off) => {
                let size = [MemSize::B, MemSize::H, MemSize::W][sz as usize];
                a.load(size, d, 7, i16::from(off));
            }
            Op::PktStore(sz, s, off) => {
                let size = [MemSize::B, MemSize::H, MemSize::W][sz as usize];
                a.store_reg(size, 7, i16::from(off), s);
            }
            Op::StackStore(r, slot) => {
                a.store_reg(MemSize::Dw, 10, -8 * (i16::from(slot) + 1), r);
            }
            Op::StackLoad(r, slot) => {
                a.load(MemSize::Dw, r, 10, -8 * (i16::from(slot) + 1));
            }
            Op::Endian(r, w) => {
                a.to_be(r, [16, 32, 64][w as usize]);
            }
        }
    }
}

/// A random structured program: prologue + bounds check, a few ops, an
/// if/else on a random comparison (optionally with a counter-map bump in
/// one arm), a join block, and a data-dependent verdict.
#[derive(Debug, Clone)]
struct RandProgram {
    pre: Vec<Op>,
    cond: (usize, u8, i32),
    then_ops: Vec<Op>,
    else_ops: Vec<Op>,
    post: Vec<Op>,
    bump_in_then: bool,
    verdict_reg: u8,
}

fn rand_program(rng: &mut Rng) -> RandProgram {
    RandProgram {
        pre: rand_ops(rng, 14),
        cond: (
            rng.gen_index(JMP_OPS.len()),
            2 + rng.gen_index(4) as u8,
            rng.gen_range_i64(-4, 59) as i32,
        ),
        then_ops: rand_ops(rng, 10),
        else_ops: rand_ops(rng, 10),
        post: rand_ops(rng, 10),
        bump_in_then: rng.gen_bool(),
        verdict_reg: 2 + rng.gen_index(4) as u8,
    }
}

fn build(rp: &RandProgram) -> Program {
    let mut a = Asm::new();
    let drop = a.new_label();
    let els = a.new_label();
    let join = a.new_label();

    // Prologue: r6=ctx, r7=data, r8=data_end; check 60 bytes.
    a.mov64_reg(6, 1);
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 60);
    a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
    // Deterministic scratch state.
    for r in 2..6 {
        a.mov64_imm(r, i32::from(r) * 1000);
    }

    emit_ops(&mut a, &rp.pre);
    let (jop, jreg, jimm) = rp.cond;
    a.jmp_imm(JMP_OPS[jop], jreg, jimm, els);
    emit_ops(&mut a, &rp.then_ops);
    if rp.bump_in_then {
        // Counter bump: lookup key0, atomic add (global-state pattern).
        let skip = a.new_label();
        a.mov64_imm(1, 0);
        a.store_reg(MemSize::W, 10, -68, 1);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -68);
        a.call(BPF_MAP_LOOKUP_ELEM);
        a.jmp_imm(JmpOp::Jeq, 0, 0, skip);
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.bind(skip);
    }
    a.jmp(join);
    a.bind(els);
    emit_ops(&mut a, &rp.else_ops);
    a.bind(join);
    emit_ops(&mut a, &rp.post);

    // Data-dependent verdict: 1..3 from a scratch register.
    a.mov64_reg(0, rp.verdict_reg);
    a.alu64_imm(AluOp::And, 0, 1);
    a.alu64_imm(AluOp::Add, 0, 2); // PASS or TX
    a.exit();

    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();

    Program::new(
        "prop_random",
        a.into_insns(),
        vec![MapDef::new(0, "ctr", MapKind::Array, 4, 8, 4)],
    )
}

fn packets(seed: u64, n: usize) -> Vec<Vec<u8>> {
    // Deterministic varied packets, including one runt.
    let mut out: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut p = vec![0u8; 64];
            for (j, b) in p.iter_mut().enumerate() {
                *b = (seed as usize + i * 31 + j * 7) as u8;
            }
            p
        })
        .collect();
    out.push(vec![0; 16]);
    out
}

/// Random branching programs are VM-equivalent under default options.
#[test]
fn random_programs_equivalent() {
    let mut rng = Rng::seed_from_u64(0xd1ff);
    for _ in 0..48 {
        let rp = rand_program(&mut rng);
        let seed = rng.next_u64();
        let program = build(&rp);
        equivalent(&program, CompilerOptions::default(), &packets(seed, 24));
    }
}

/// ... and under every ablation configuration.
#[test]
fn random_programs_equivalent_under_ablations() {
    let mut rng = Rng::seed_from_u64(0xab1a);
    for _ in 0..48 {
        let rp = rand_program(&mut rng);
        let seed = rng.next_u64();
        let program = build(&rp);
        let pkts = packets(seed, 12);
        for opts in [
            CompilerOptions { fusion: false, dce: false, ..Default::default() },
            CompilerOptions { parallelize: false, ..Default::default() },
            CompilerOptions { prune: false, ..Default::default() },
            CompilerOptions { elide_bounds_checks: false, ..Default::default() },
            CompilerOptions { hazard_opt: false, ..Default::default() },
            CompilerOptions { frame_size: 32, ..Default::default() },
        ] {
            equivalent(&program, opts, &pkts);
        }
    }
}

/// Hazard-window minimization is semantics-preserving on every evaluation
/// app: with `hazard_opt` on and off, the compiled pipeline's actions,
/// packet bytes, map contents and counters match the reference VM over
/// new-flow-churn Zipf workloads (the trace shape that actually triggers
/// flushes). DNAT's translated ports are checked by the NAT invariant and
/// its allocator maps are exempt ([`ehdl_bench::exemptions`]).
#[test]
fn hazard_opt_apps_equivalent_under_zipf_churn() {
    use ehdl::hwsim::SimOptions;
    use ehdl::programs::App;
    use ehdl_bench::flush_opt::churn_packets;
    use ehdl_bench::{exemptions, setup_app};

    for app in App::ALL {
        let program = app.program();
        for alpha in [0.5, 1.2] {
            let packets = churn_packets(app, 300, alpha, 1_200);
            for hazard_opt in [true, false] {
                let design =
                    Compiler::with_options(CompilerOptions { hazard_opt, ..Default::default() })
                        .compile(&program)
                        .expect("app compiles");
                let (ignore_maps, allocated) = exemptions(app);
                let scenario = Scenario::new(&program, &design, &packets);
                let sim = SimOptions { partial_flush: true, ..scenario.sim };
                let report = check(&Scenario {
                    setup: &|m| setup_app(app, m),
                    sim,
                    ignore_maps,
                    allocated,
                    ..scenario
                });
                assert!(
                    report.divergences.is_empty(),
                    "{} diverges from the VM (alpha={alpha}, hazard_opt={hazard_opt}): {:?}",
                    app.name(),
                    report.divergences
                );
            }
        }
    }
}

/// Historical regression: a lone `to_be` on a scratch register before the
/// branch (from the proptest corpus; kept as an explicit deterministic case).
#[test]
fn regression_endian_before_branch() {
    let rp = RandProgram {
        pre: vec![Op::Endian(5, 2)],
        cond: (3, 2, 0),
        then_ops: vec![],
        else_ops: vec![],
        post: vec![],
        bump_in_then: false,
        verdict_reg: 2,
    };
    let program = build(&rp);
    equivalent(&program, CompilerOptions::default(), &packets(0, 24));
}

/// Historical regression: a `to_be` in the else arm only (from the proptest
/// corpus; kept as an explicit deterministic case).
#[test]
fn regression_endian_in_else_arm() {
    let rp = RandProgram {
        pre: vec![],
        cond: (1, 2, 0),
        then_ops: vec![],
        else_ops: vec![Op::Endian(3, 0)],
        post: vec![],
        bump_in_then: false,
        verdict_reg: 2,
    };
    let program = build(&rp);
    equivalent(&program, CompilerOptions::default(), &packets(0, 24));
}

/// Bounded loops: unrolled pipelines match the VM on loop programs too.
#[test]
fn loop_programs_equivalent() {
    for trip in [1i32, 3, 7, 19] {
        let mut a = Asm::new();
        let drop = a.new_label();
        let top = a.new_label();
        a.mov64_reg(6, 1);
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 40);
        a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
        // Sum the first `trip` packet bytes in a bounded loop.
        a.mov64_imm(2, 0); // induction
        a.mov64_imm(3, 0); // accumulator
        a.bind(top);
        a.mov64_reg(4, 7);
        a.alu64_reg(AluOp::Add, 4, 2);
        a.load(MemSize::B, 5, 4, 0);
        a.alu64_reg(AluOp::Add, 3, 5);
        a.alu64_imm(AluOp::Add, 2, 1);
        a.jmp_imm(JmpOp::Jlt, 2, trip, top);
        a.mov64_reg(0, 3);
        a.alu64_imm(AluOp::And, 0, 1);
        a.alu64_imm(AluOp::Add, 0, 2);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::from_insns(a.into_insns());
        equivalent(&program, CompilerOptions::default(), &packets(trip as u64, 16));
    }
}

/// Packet-geometry helpers: programs that grow the head and trim the tail
/// stay VM-equivalent (the packet bytes leaving the pipeline shrink/grow
/// exactly as the interpreter says).
#[test]
fn adjust_head_and_tail_equivalent() {
    use ehdl::ebpf::helpers::{BPF_XDP_ADJUST_HEAD, BPF_XDP_ADJUST_TAIL};
    for (head_delta, tail_delta) in [(-8i32, -16i32), (-4, 0), (0, -32), (8, -8)] {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.mov64_reg(6, 1);
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(1, 7);
        a.alu64_imm(AluOp::Add, 1, 60);
        a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
        // Move the head.
        a.mov64_reg(1, 6);
        a.mov64_imm(2, head_delta);
        a.call(BPF_XDP_ADJUST_HEAD);
        a.jmp_imm(JmpOp::Jne, 0, 0, drop);
        // Trim the tail.
        a.mov64_reg(1, 6);
        a.mov64_imm(2, tail_delta);
        a.call(BPF_XDP_ADJUST_TAIL);
        a.jmp_imm(JmpOp::Jne, 0, 0, drop);
        // Stamp the (new) first byte so the rewrite is observable.
        a.load(MemSize::W, 7, 6, 0);
        a.mov64_imm(2, 0x5a);
        a.store_reg(MemSize::B, 7, 0, 2);
        a.mov64_imm(0, 3);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::from_insns(a.into_insns());
        equivalent(&program, CompilerOptions::default(), &packets(7, 16));
    }
}

/// Compile `program`, demand that its helper call runs in a later stage
/// than its store (the hardware reads a stage's incoming state, so a
/// shared stage would feed the helper the bytes from before the store) and
/// that the pipeline matches the VM.
fn helper_follows_store(program: &Program, packets: &[Vec<u8>]) {
    let design = Compiler::new().compile(program).expect("program compiles");
    let stage_of = |d: &PipelineDesign, call: bool| {
        d.stages.iter().position(|st| {
            st.ops.iter().any(|op| match op.insn {
                HwInsn::Simple(Instruction::Call { .. }) => call,
                HwInsn::Simple(Instruction::Store { .. }) => !call,
                _ => false,
            })
        })
    };
    assert!(stage_of(&design, true) > stage_of(&design, false), "{}", design.summary());
    check(&Scenario::new(program, &design, packets)).assert_clean();
}

/// A helper reads the bytes its pointer arguments name, so it waits for
/// the store that writes them. `csum_diff` over a stack word the program
/// just stored: the store's value comes off a three-op chain, so with no
/// memory dependence the call would be scheduled first and sum zeros.
#[test]
fn csum_diff_waits_for_the_stack_store_it_reads() {
    let mut a = Asm::new();
    let aborted = a.new_label();
    a.mov64_imm(6, 0x1230);
    a.alu64_imm(AluOp::Add, 6, 5);
    a.alu64_imm(AluOp::Or, 6, 0);
    a.store_reg(MemSize::Dw, 10, -8, 6);
    a.mov64_imm(1, 0);
    a.mov64_imm(2, 0);
    a.mov64_reg(3, 10);
    a.alu64_imm(AluOp::Add, 3, -8);
    a.mov64_imm(4, 8);
    a.mov64_imm(5, 0);
    a.call(BPF_CSUM_DIFF);
    a.jmp_imm(JmpOp::Jne, 0, 0x1235, aborted);
    a.mov64_imm(0, 1); // XDP_DROP
    a.exit();
    a.bind(aborted);
    a.mov64_imm(0, 0); // XDP_ABORTED
    a.exit();
    helper_follows_store(&Program::from_insns(a.into_insns()), &packets(1, 8));
}

/// A map key read from the packet is packet memory: the lookup waits for
/// the store that writes the key bytes. With no memory dependence the two
/// would share a stage, the lookup reading the key from before the store.
#[test]
fn lookup_waits_for_the_packet_store_its_key_reads() {
    let mut a = Asm::new();
    let pass = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 8);
    a.jmp_reg(JmpOp::Jgt, 1, 8, pass);
    a.mov64_imm(3, 0);
    a.store_reg(MemSize::W, 7, 0, 3);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 7);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, pass);
    a.mov64_imm(0, 3); // XDP_TX
    a.exit();
    a.bind(pass);
    a.mov64_imm(0, 2); // XDP_PASS
    a.exit();
    let maps = vec![MapDef::new(0, "a", MapKind::Array, 4, 8, 4)];
    let mut pkts = packets(2, 8);
    for p in &mut pkts {
        p[..4].copy_from_slice(&[0xff; 4]); // no entry until the store
    }
    helper_follows_store(&Program::new("pkt_key", a.into_insns(), maps), &pkts);
}

/// A packet that moved its head and is then replayed by a flush (rolled
/// back past a stale counter read) has the move applied once: from a
/// checkpoint already past it with partial flushes, from its original
/// bytes without them.
#[test]
fn adjust_head_applies_once_to_a_replayed_packet() {
    let mut a = Asm::new();
    let drop = a.new_label();
    a.mov64_reg(6, 1);
    a.mov64_imm(2, -8);
    a.call(BPF_XDP_ADJUST_HEAD);
    a.jmp_imm(JmpOp::Jne, 0, 0, drop);
    a.load(MemSize::W, 7, 6, 0);
    a.load(MemSize::W, 8, 6, 4);
    a.mov64_reg(1, 7);
    a.alu64_imm(AluOp::Add, 1, 16);
    a.jmp_reg(JmpOp::Jgt, 1, 8, drop);
    // A read-modify-write of one shared counter: every packet after the
    // first reads a value an older packet is about to write.
    a.mov64_imm(2, 0);
    a.store_reg(MemSize::W, 10, -4, 2);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -4);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.jmp_imm(JmpOp::Jeq, 0, 0, drop);
    a.load(MemSize::Dw, 3, 0, 0);
    a.alu64_imm(AluOp::Add, 3, 1);
    a.store_reg(MemSize::Dw, 0, 0, 3);
    // Stamp the count into the (new) head of the packet.
    a.store_reg(MemSize::B, 7, 0, 3);
    a.mov64_imm(0, 3);
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();
    let maps = vec![MapDef::new(0, "count", MapKind::Array, 4, 8, 1)];
    let program = Program::new("head_count", a.into_insns(), maps);
    let design = Compiler::new().compile(&program).expect("program compiles");
    let pkts = packets(3, 48);
    for partial_flush in [true, false] {
        let mut scenario = Scenario::new(&program, &design, &pkts);
        scenario.sim = SimOptions { partial_flush, ..scenario.sim };
        let report = check(&scenario).assert_clean();
        assert!(report.counters.flush_replays > 0, "partial_flush {partial_flush}: no replay");
    }
}

/// A packet pointer spilled to the stack and reloaded is still a packet
/// pointer: the value analysis tracks spills, so the access through the
/// reloaded register is labeled packet memory (and proven in bounds).
#[test]
fn a_packet_pointer_reloaded_from_the_stack_compiles() {
    let mut a = Asm::new();
    let drop = a.new_label();
    let pass = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(2, 7);
    a.alu64_imm(AluOp::Add, 2, 20);
    a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
    a.store_reg(MemSize::Dw, 10, -8, 7); // spill data
    a.load(MemSize::Dw, 3, 10, -8); // reload it
    a.load(MemSize::B, 4, 3, 13);
    a.jmp_imm(JmpOp::Jgt, 4, 0x80, pass);
    a.store_reg(MemSize::B, 3, 12, 4);
    a.mov64_imm(0, 3); // XDP_TX
    a.exit();
    a.bind(pass);
    a.mov64_imm(0, 2); // XDP_PASS
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();
    let program = Program::from_insns(a.into_insns());
    for absint in [true, false] {
        equivalent(&program, CompilerOptions { absint, ..Default::default() }, &packets(4, 24));
    }
}

/// A lookup result null-checked on one path only, joined with the
/// unchecked path, checked again and dereferenced: the join keeps it a
/// maybe-null value pointer, so the dereference is a map access.
#[test]
fn a_lookup_checked_on_one_path_then_rechecked_compiles() {
    let mut a = Asm::new();
    let drop = a.new_label();
    let join = a.new_label();
    let out = a.new_label();
    a.load(MemSize::W, 7, 1, 0);
    a.load(MemSize::W, 8, 1, 4);
    a.mov64_reg(2, 7);
    a.alu64_imm(AluOp::Add, 2, 14);
    a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
    a.mov64_imm(9, 0);
    a.mov64_imm(2, 0);
    a.store_reg(MemSize::W, 10, -4, 2);
    a.ld_map_fd(1, 0);
    a.mov64_reg(2, 10);
    a.alu64_imm(AluOp::Add, 2, -4);
    a.call(BPF_MAP_LOOKUP_ELEM);
    a.load(MemSize::B, 5, 7, 12);
    a.jmp_imm(JmpOp::Jgt, 5, 0x80, join); // this path skips the check
    a.jmp_imm(JmpOp::Jeq, 0, 0, join);
    a.mov64_imm(9, 1);
    a.bind(join);
    a.jmp_imm(JmpOp::Jeq, 0, 0, out);
    a.load(MemSize::Dw, 3, 0, 0);
    a.alu64_reg(AluOp::Add, 3, 9);
    a.store_reg(MemSize::Dw, 0, 0, 3);
    a.bind(out);
    a.mov64_imm(0, 2);
    a.exit();
    a.bind(drop);
    a.mov64_imm(0, 1);
    a.exit();
    let maps = vec![MapDef::new(0, "ctr", MapKind::Array, 4, 8, 1)];
    let program = Program::new("recheck", a.into_insns(), maps);
    equivalent(&program, CompilerOptions::default(), &packets(5, 24));
}

/// Soak: a larger random-program campaign.
#[test]
fn soak_random_programs() {
    let mut rng = Rng::seed_from_u64(0x50a4);
    for case in 0..400u64 {
        let rp = rand_program(&mut rng);
        let program = build(&rp);
        equivalent(&program, CompilerOptions::default(), &packets(case, 32));
    }
}
