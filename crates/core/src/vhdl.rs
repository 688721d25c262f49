//! VHDL emission.
//!
//! eHDL "takes as input unmodified eBPF bytecode and outputs HDL (VHDL)"
//! (§3). The emitter produces a synchronous structural design: one process
//! per stage clocked at the pipeline clock, pruned state registers between
//! stages, map blocks with read/write/atomic ports, Flush Evaluation
//! Blocks, and the asynchronous-FIFO wrapper that decouples the pipeline
//! from the NIC shell clock domain (§4.5). Every line is appended through
//! [`ehdl_ebpf::put!`], straight into one buffer.

use crate::ir::{HwInsn, MemLabel};
use crate::pipeline::PipelineDesign;
use ehdl_ebpf::insn::{Decoded, Instruction, Operand};
use ehdl_ebpf::put;
use ehdl_ebpf::put::{Fixed2, Hex, Piece};

/// Emit the complete VHDL source for a design.
pub fn emit(design: &PipelineDesign) -> String {
    // The text is close to 1 KB per stage (state signals, enable, process)
    // on top of the fixed entities: size the buffer once instead of
    // doubling it a dozen times on the way there.
    let mut text = String::with_capacity(8192 + 1280 * design.stages.len());
    let o = &mut text;
    let name = &sanitize(&design.name);

    header(o, design);
    o.push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n");

    // Map block component declarations.
    for m in &design.maps {
        put!(o, "-- eHDLmap block for map `", &m.name, "` (", m.max_entries, " x ");
        put!(o, m.value_size, "B, ", m.kind, ")\nentity ", name, "_map", m.id, " is\n");
        put!(o, "  generic (\n    KEY_BITS   : natural := ", m.key_size * 8, ";\n");
        put!(o, "    VALUE_BITS : natural := ", m.value_size * 8, ";\n");
        put!(o, "    ENTRIES    : natural := ", m.max_entries, "\n");
        o.push_str(
            "  );
  port (
    clk          : in  std_logic;
    rst          : in  std_logic;
    rd_en        : in  std_logic;
    rd_key       : in  std_logic_vector(KEY_BITS-1 downto 0);
    rd_hit       : out std_logic;
    rd_value     : out std_logic_vector(VALUE_BITS-1 downto 0);
    wr_en        : in  std_logic;
    wr_key       : in  std_logic_vector(KEY_BITS-1 downto 0);
    wr_value     : in  std_logic_vector(VALUE_BITS-1 downto 0);
    atomic_en    : in  std_logic;
    atomic_op    : in  std_logic_vector(3 downto 0);
    atomic_delta : in  std_logic_vector(63 downto 0);
    host_rd_key  : in  std_logic_vector(KEY_BITS-1 downto 0);
    host_rd_val  : out std_logic_vector(VALUE_BITS-1 downto 0);
    host_wr_en   : in  std_logic;
    host_wr_key  : in  std_logic_vector(KEY_BITS-1 downto 0);
    host_wr_val  : in  std_logic_vector(VALUE_BITS-1 downto 0);
    host_del_en  : in  std_logic;
    host_ack     : out std_logic;
    host_err     : out std_logic_vector(2 downto 0)
  );
",
        );
        put!(o, "end entity ", name, "_map", m.id, ";\n\n");
        if design.protect.ecc() {
            put!(
                o,
                "-- SECDED ECC wrapper for map `",
                &m.name,
                "`: Hamming(72,64) check bits on every\n"
            );
            o.push_str(
                "-- stored word, single-bit correct-on-read, double-bit detect,
-- and a background scrub sweep that rewrites corrected words.
",
            );
            put!(o, "entity ", name, "_map", m.id, "_secded is\n");
            put!(o, "  generic (\n    DATA_BITS  : natural := ", m.value_size * 8, ";\n");
            o.push_str(
                "    CHECK_BITS : natural := 8
  );
  port (
    clk, rst      : in  std_logic;
    enc_in        : in  std_logic_vector(DATA_BITS-1 downto 0);
    enc_out       : out std_logic_vector(DATA_BITS+CHECK_BITS-1 downto 0);
    dec_in        : in  std_logic_vector(DATA_BITS+CHECK_BITS-1 downto 0);
    dec_out       : out std_logic_vector(DATA_BITS-1 downto 0);
    corrected     : out std_logic;  -- single-bit fixed
    uncorrectable : out std_logic;  -- double-bit detected
    scrub_addr    : out std_logic_vector(31 downto 0);
    scrub_active  : out std_logic
  );
",
            );
            put!(o, "end entity ", name, "_map", m.id, "_secded;\n\n");
        }
    }

    // Host control interface: the AXI-Lite-like slave exposing every map
    // to the host plus the CSR file (telemetry counters, per-stage
    // occupancy, drain-and-swap reload handshake). The inventory — one
    // arbitrated host port per map, fence stage, write arbitration —
    // comes from `plan::control_inventory` and is charged by
    // `resource::estimate_control`.
    let inv = crate::plan::control_inventory(design);
    put!(o, "-- Host control interface: ", inv.map_ports.len(), " map port(s), ");
    put!(o, inv.csrs.len(), " CSR(s)\n");
    for p in &inv.map_ports {
        put!(o, "--   host port map", p.map, " `", &p.name, "`: key ", p.key_bits, "b value ");
        put!(o, p.value_bits, "b, fence stage ", p.fence_stage);
        o.push_str(if p.pipeline_writes {
            ", write-arbitrated\n"
        } else {
            ", read-only pipeline\n"
        });
    }
    put!(o, "entity ", name, "_ctrl is\n");
    o.push_str(
        "  port (
    clk, rst       : in  std_logic;
    s_ctrl_awaddr  : in  std_logic_vector(31 downto 0);
    s_ctrl_awvalid : in  std_logic;
    s_ctrl_wdata   : in  std_logic_vector(31 downto 0);
    s_ctrl_wvalid  : in  std_logic;
    s_ctrl_araddr  : in  std_logic_vector(31 downto 0);
    s_ctrl_arvalid : in  std_logic;
    s_ctrl_rdata   : out std_logic_vector(31 downto 0);
    s_ctrl_rvalid  : out std_logic
  );
",
    );
    put!(o, "end entity ", name, "_ctrl;\n\n-- CSR file of ", name, "_ctrl (address order):\n");
    for (i, c) in inv.csrs.iter().enumerate() {
        put!(o, "--   0x", Hex(i as u64 * 4, 4), ' ', c.name, " (", c.bits, " bits, ");
        o.push_str(if c.read_only { "ro)\n" } else { "rw)\n" });
    }
    o.push('\n');

    // Pipeline watchdog: detects a no-retire (hung) condition, drains the
    // in-flight window and reinitializes the pipeline without touching map
    // contents.
    if design.protect.watchdog() {
        o.push_str("-- Pipeline watchdog: retire timer + safe-drain/reinit sequencer.\n");
        put!(o, "entity ", name, "_watchdog is\n");
        o.push_str(
            "  generic ( TIMEOUT_CYCLES : natural := 1024 );
  port (
    clk, rst     : in  std_logic;
    retire_valid : in  std_logic;  -- a packet left the pipeline
    busy         : in  std_logic;  -- packets are in flight
    drain        : out std_logic;  -- request safe drain
    reinit       : out std_logic   -- map-preserving pipeline reset
  );
",
        );
        put!(o, "end entity ", name, "_watchdog;\n\n");
    }

    // Flush evaluation block component, emitted once if needed.
    if !design.hazards.febs.is_empty() {
        o.push_str(
            "-- Flush Evaluation Block: snoops unconfirmed read addresses and
-- raises `flush` when a write hits one of them (sec. 4.1.2).
",
        );
        put!(o, "entity ", name, "_feb is\n");
        o.push_str(
            "  generic ( WINDOW : natural; ADDR_BITS : natural := 32 );
  port (
    clk, rst   : in  std_logic;
    rd_valid   : in  std_logic;
    rd_addr    : in  std_logic_vector(ADDR_BITS-1 downto 0);
    wr_valid   : in  std_logic;
    wr_addr    : in  std_logic_vector(ADDR_BITS-1 downto 0);
    flush      : out std_logic
  );
",
        );
        put!(o, "end entity ", name, "_feb;\n\n");
    }

    // Top-level pipeline entity.
    put!(o, "entity ", name, "_pipeline is\n  generic (\n    FRAME_BYTES : natural := ");
    put!(o, design.framing.frame_size, "\n");
    o.push_str(
        "  );
  port (
    clk           : in  std_logic;  -- pipeline clock (250 MHz)
    rst           : in  std_logic;
    s_axis_tdata  : in  std_logic_vector(FRAME_BYTES*8-1 downto 0);
    s_axis_tkeep  : in  std_logic_vector(FRAME_BYTES-1 downto 0);
    s_axis_tvalid : in  std_logic;
    s_axis_tlast  : in  std_logic;
    s_axis_tready : out std_logic;
    m_axis_tdata  : out std_logic_vector(FRAME_BYTES*8-1 downto 0);
    m_axis_tkeep  : out std_logic_vector(FRAME_BYTES-1 downto 0);
    m_axis_tvalid : out std_logic;
    m_axis_tlast  : out std_logic;
    m_axis_tready : in  std_logic;
    xdp_action    : out std_logic_vector(2 downto 0)
  );
",
    );
    put!(o, "end entity ", name, "_pipeline;\n\n");

    // Architecture.
    let nstages = design.stages.len();
    put!(o, "architecture rtl of ", name, "_pipeline is\n  -- ", nstages);
    o.push_str(" stages; per-boundary pruned state registers (sec. 4.3)\n");
    for i in 0..nstages {
        let regs = design.prune.live_regs.get(i).copied().unwrap_or(0);
        let stack = design.prune.live_stack_bytes.get(i).copied().unwrap_or(0);
        put!(o, "  signal st", i, "_frame : std_logic_vector(FRAME_BYTES*8-1 downto 0);\n");
        for r in 0..11u8 {
            if regs & (1 << r) != 0 {
                put!(o, "  signal st", i, "_r", r, " : std_logic_vector(63 downto 0);\n");
            }
        }
        if stack > 0 {
            put!(o, "  signal st", i, "_stack : std_logic_vector(", stack * 8 - 1, " downto 0);\n");
        }
        put!(o, "  signal st", i, "_en : std_logic;\n");
        if design.protect.parity() {
            put!(o, "  signal st", i, "_par : std_logic;  -- parity over carried state\n");
            put!(o, "  signal st", i, "_par_err : std_logic;\n");
        }
    }
    if design.protect.watchdog() {
        o.push_str("  signal wd_drain, wd_reinit : std_logic;\n");
    }
    for feb in &design.hazards.febs {
        put!(o, "  signal flush_m", feb.map, "_w", feb.write_stage, " : std_logic;\n");
    }
    // Branch-outcome signals for every block ending in a conditional.
    let mut branches = vec![false; design.blocks.len()];
    for s in &design.stages {
        let cond = |op: &crate::pipeline::StageOp| {
            matches!(op.insn, HwInsn::Simple(Instruction::Jump { cond: Some(_), .. }))
        };
        if s.ops.iter().any(cond) {
            branches[s.block] = true;
        }
    }
    for (b, _) in branches.iter().enumerate().filter(|(_, &t)| t) {
        put!(o, "  signal blk", b, "_taken : std_logic;\n");
    }
    o.push_str("  signal blk0_en : std_logic;\n");
    for (b, _) in crate::predicate::gated(&design.blocks) {
        put!(o, "  signal blk", b, "_en : std_logic;\n");
    }
    o.push_str(
        "begin
  s_axis_tready <= not rst;

  -- Predication (sec. 3.5): one enable per control block, one term
  -- per incoming edge; every stage takes its block's enable.
  blk0_en <= '1';
",
    );
    for (b, info) in crate::predicate::gated(&design.blocks) {
        put!(o, "  blk", b, "_en <= ");
        crate::predicate::write_terms(o, info);
        o.push_str(";\n");
    }
    for (i, stage) in design.stages.iter().enumerate() {
        put!(o, "  st", i, "_en <= blk", stage.block, "_en;\n");
    }
    for &(block, min_len) in &design.guards {
        put!(o, "  -- implicit bounds guard: packets shorter than ", min_len);
        put!(o, " B reaching block ", block, " are dropped\n");
    }

    // Each op's comment heads its stage and again its statements: rendered
    // once, then copied from its byte range in `o`.
    let widest = design.stages.iter().map(|s| s.ops.len()).max().unwrap_or(0);
    let mut notes = Vec::with_capacity(widest);
    for (i, stage) in design.stages.iter().enumerate() {
        put!(o, "\n  -- stage ", i, " (block ", stage.block, ", ", stage.kind, "): ");
        if stage.ops.is_empty() {
            o.push_str("pass-through");
        }
        notes.clear();
        for (k, op) in stage.ops.iter().enumerate() {
            o.push_str(if k == 0 { "" } else { " || " });
            let start = o.len();
            op_comment(o, op);
            notes.push(start..o.len());
        }
        put!(o, "\n  stage_", i, " : process (clk)\n  begin\n    if rising_edge(clk) then\n");
        put!(o, "      if st", i, "_en = '1' then\n");
        for (op, note) in stage.ops.iter().zip(&notes) {
            o.push_str("        -- ");
            o.extend_from_within(note.clone());
            o.push('\n');
            op_vhdl(o, i, stage.block, op);
        }
        if stage.ops.is_empty() {
            o.push_str("        null;  -- disabled/wait stage forwards state\n");
        }
        put!(o, "      end if;\n    end if;\n  end process stage_", i, ";\n");
    }

    for feb in &design.hazards.febs {
        put!(o, "\n  feb_m", feb.map, "_w", feb.write_stage, " : entity work.", name);
        put!(o, "_feb generic map (WINDOW => ", feb.window, ")\n");
        put!(o, "    port map (clk => clk, rst => rst, rd_valid => st", feb.read_stage);
        put!(o, "_en, rd_addr => (others => '0'), wr_valid => st", feb.write_stage);
        put!(o, "_en, wr_addr => (others => '0'), flush => flush_m", feb.map, "_w");
        put!(o, feb.write_stage, ");\n");
    }

    if design.protect.parity() {
        o.push_str(
            "
  -- Parity guards: one parity bit per stage boundary; a mismatch
  -- aborts the packet and requests recovery-by-replay from the
  -- nearest checkpoint (hazard elastic buffers are reused).
",
        );
        for i in 0..nstages {
            put!(
                o,
                "  parity_guard_",
                i,
                " : st",
                i,
                "_par_err <= st",
                i,
                "_par xor xor_reduce(st"
            );
            put!(o, i, "_frame);\n");
        }
    }
    if design.protect.ecc() {
        for m in &design.maps {
            put!(
                o,
                "\n  secded_m",
                m.id,
                " : entity work.",
                name,
                "_map",
                m.id,
                "_secded port map "
            );
            o.push_str("(clk => clk, rst => rst, enc_in => (others => '0'), enc_out => open, dec_in => (others => '0'), dec_out => open, corrected => open, uncorrectable => open, scrub_addr => open, scrub_active => open);\n");
        }
    }
    let last = nstages.saturating_sub(1);
    if design.protect.watchdog() {
        put!(
            o,
            "\n  watchdog : entity work.",
            name,
            "_watchdog generic map (TIMEOUT_CYCLES => 1024)\n"
        );
        put!(o, "    port map (clk => clk, rst => rst, retire_valid => st", last);
        o.push_str("_en, busy => s_axis_tvalid, drain => wd_drain, reinit => wd_reinit);\n");
    }

    put!(
        o,
        "\n  m_axis_tvalid <= st",
        last,
        "_en;\n  m_axis_tlast  <= '1';\nend architecture rtl;\n"
    );
    text
}

fn header(o: &mut String, design: &PipelineDesign) {
    const RULE: &str = "--------------------------------------------------------------------\n";
    put!(o, RULE, "-- Generated by eHDL from eBPF program `", &design.name, "`\n");
    if design.protect != crate::pipeline::Protection::None {
        put!(o, "-- protection: ", design.protect.name(), "\n");
    }
    let (stats, ilp) = (&design.stats, &design.stats.ilp);
    put!(o, "-- ", design.stages.len(), " stages | ", stats.source_insns, " source insns -> ");
    put!(o, stats.hw_insns, " hw insns | ILP max ", ilp.max, " avg ", Fixed2(ilp.avg), "\n");
    let hz = &design.hazards;
    put!(o, "-- frame ", design.framing.frame_size, " B | ", design.framing.wait_stages);
    put!(o, " wait stages | ", hz.febs.len(), " FEB | ", hz.war_buffers.len(), " WAR buffer | ");
    put!(o, hz.atomic_stages.len(), " atomic block\n", RULE);
}

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    out
}

/// Append the one-line comment naming `op`.
fn op_comment(o: &mut String, op: &crate::pipeline::StageOp) {
    match op.insn {
        HwInsn::Alu3 { op: alu, dst, a, b, .. } => {
            put!(o, 'r', dst, " = r", a, ' ', alu.symbol(), ' ', b);
        }
        // Jump offsets are shown relative to slot 0.
        HwInsn::Simple(insn) => {
            ehdl_ebpf::disasm::write_insn(o, &Decoded { pc: 0, slots: 1, insn })
        }
    }
    if let Some(p) = op.proof {
        put!(o, "  [unguarded: proven in [", p.lo, ", ", p.hi, "], len >= ", p.min_len, ']');
    }
}

/// A source operand of stage `.0`: its input register or an immediate.
struct Src(usize, Operand);

impl Piece for Src {
    fn put(self, o: &mut String) {
        match self.1 {
            Operand::Reg(r) => put!(o, "st", self.0, "_r", r),
            Operand::Imm(v) => put!(o, "std_logic_vector(to_signed(", v, ", 64))"),
        }
    }
}

/// Append the statements of `op` in stage `stage`, one indented line each.
fn op_vhdl(o: &mut String, stage: usize, block: usize, op: &crate::pipeline::StageOp) {
    let nxt = stage + 1;
    const INDENT: &str = "        ";
    let start = o.len();
    o.push_str(INDENT);
    match op.insn {
        HwInsn::Alu3 { dst, a, b, .. } => {
            put!(
                o,
                "st",
                nxt,
                "_r",
                dst,
                " <= alu_op(st",
                stage,
                "_r",
                a,
                ", ",
                Src(stage, b),
                ");"
            );
        }
        HwInsn::Simple(i) => match i {
            Instruction::Alu { dst, src, .. } => {
                put!(o, "st", nxt, "_r", dst, " <= alu_op(st", stage, "_r", dst, ", ");
                put!(o, Src(stage, src), ");");
            }
            Instruction::Endian { dst, bits, .. } => {
                put!(o, "st", nxt, "_r", dst, " <= bswap", bits, "(st", stage, "_r", dst, ");");
            }
            Instruction::LoadImm64 { dst, imm, .. } => {
                put!(o, "st", nxt, "_r", dst, " <= x\"", Hex(imm, 16), "\";");
            }
            Instruction::Load { dst, off, .. } => {
                put!(o, "st", nxt, "_r", dst, " <= ");
                match op.label {
                    MemLabel::Packet(iv) => {
                        put!(o, "pkt_bytes(st", stage, "_frame, ", iv.lo.max(0));
                        put!(o, ");  -- packet", iv);
                    }
                    MemLabel::Stack(iv) => {
                        put!(o, "stack_bytes(st", stage, "_stack, ", iv.lo, ");  -- stack", iv);
                    }
                    MemLabel::Map(m) => put!(o, "map", m, "_rd_value;  -- map value load"),
                    _ => put!(o, "ctx_field(", off, ");"),
                }
            }
            Instruction::Store { src, .. } => {
                let s = Src(stage, src);
                match op.label {
                    MemLabel::Packet(iv) => {
                        put!(o, "st", nxt, "_frame <= pkt_store(st", stage, "_frame, ");
                        put!(o, iv.lo.max(0), ", ", s, ");  -- packet", iv);
                    }
                    MemLabel::Stack(iv) => {
                        put!(o, "st", nxt, "_stack <= stack_store(st", stage, "_stack, ");
                        put!(o, iv.lo, ", ", s, ");  -- stack", iv);
                    }
                    MemLabel::Map(m) => {
                        put!(o, "map", m, "_wr_value <= ", s, "; map", m, "_wr_en <= '1';");
                    }
                    _ => {}
                }
            }
            Instruction::Atomic { src, .. } => match op.label {
                MemLabel::Map(m) => {
                    put!(o, "map", m, "_atomic_en <= '1';\n        map", m, "_atomic_delta <= st");
                    put!(o, stage, "_r", src, ';');
                }
                _ => o.push_str("-- atomic on local state"),
            },
            Instruction::Jump { cond: Some(c), .. } => {
                let cmp = match c.op.symbol() {
                    "==" => "=",
                    "!=" => "/=",
                    s => s,
                };
                put!(o, "blk", block, "_taken <= '1' when signed(st", stage, "_r", c.lhs, ") ");
                match c.rhs {
                    Operand::Reg(r) => put!(o, cmp, " st", stage, "_r", r, " else '0';"),
                    Operand::Imm(v) => put!(o, cmp, " to_signed(", v, ", 64) else '0';"),
                }
            }
            Instruction::Jump { cond: None, .. } => {}
            Instruction::Call { helper } => {
                put!(o, "-- helper block instance: ", ehdl_ebpf::helpers::helper_name(helper));
            }
            Instruction::Exit => put!(o, "xdp_action <= st", stage, "_r0(2 downto 0);"),
        },
    }
    if o.len() == start + INDENT.len() {
        o.truncate(start); // an op with no statement of its own
    } else {
        o.push('\n');
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    fn emit_tiny() -> String {
        let mut a = Asm::new();
        a.load(ehdl_ebpf::opcode::MemSize::W, 7, 1, 0);
        a.load(ehdl_ebpf::opcode::MemSize::B, 2, 7, 12);
        a.mov64_reg(0, 2);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        emit(&d)
    }

    #[test]
    fn emits_entity_and_stages() {
        let v = emit_tiny();
        assert!(v.contains("entity anonymous_pipeline is"));
        assert!(v.contains("architecture rtl of"));
        assert!(v.contains("stage_0 : process (clk)"));
        assert!(v.contains("rising_edge(clk)"));
        assert!(v.contains("xdp_action"));
    }

    #[test]
    fn map_designs_emit_map_entities_and_febs() {
        let d = Compiler::new().compile(&ehdl_test_program()).unwrap();
        let v = emit(&d);
        assert!(v.contains("_map0 is"));
        assert!(v.contains("KEY_BITS"));
    }

    fn ehdl_test_program() -> Program {
        use ehdl_ebpf::maps::{MapDef, MapKind};
        use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
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
        a.mov64_imm(0, 2);
        a.exit();
        Program::new("t", a.into_insns(), vec![MapDef::new(0, "m", MapKind::Array, 4, 8, 8)])
    }

    #[test]
    fn control_interface_is_named() {
        let d = Compiler::new().compile(&ehdl_test_program()).unwrap();
        let v = emit(&d);
        assert!(v.contains("entity t_ctrl is"));
        assert!(v.contains("s_ctrl_awaddr"));
        assert!(v.contains("host_wr_en"));
        assert!(v.contains("host port map0 `m`"));
        assert!(v.contains("csr_reload_ctrl"));
        assert!(v.contains("csr_map0_hits"));
        // Mapless designs still carry the ctrl entity and CSR file.
        let tiny = emit_tiny();
        assert!(tiny.contains("_ctrl is"));
        assert!(tiny.contains("0 map port(s)"));
    }

    #[test]
    fn header_carries_stats() {
        let v = emit_tiny();
        assert!(v.contains("Generated by eHDL"));
        assert!(v.contains("ILP max"));
    }

    #[test]
    fn unprotected_designs_carry_no_protection_blocks() {
        let v = emit(&Compiler::new().compile(&ehdl_test_program()).unwrap());
        assert!(!v.contains("secded"));
        assert!(!v.contains("watchdog"));
        assert!(!v.contains("_par "));
        assert!(!v.contains("-- protection:"));
    }

    #[test]
    fn protected_designs_name_their_protection_blocks() {
        use crate::compile::CompilerOptions;
        use crate::pipeline::Protection;
        let opts = CompilerOptions { protect: Protection::EccWatchdog, ..Default::default() };
        let v = emit(&Compiler::with_options(opts).compile(&ehdl_test_program()).unwrap());
        assert!(v.contains("-- protection: ecc+watchdog"));
        assert!(v.contains("entity t_map0_secded is"));
        assert!(v.contains("entity t_watchdog is"));
        assert!(v.contains("st0_par"));
        assert!(v.contains("uncorrectable"));
        assert!(v.contains("entity work.t_watchdog"));

        let parity = CompilerOptions { protect: Protection::Parity, ..Default::default() };
        let vp = emit(&Compiler::with_options(parity).compile(&ehdl_test_program()).unwrap());
        assert!(vp.contains("-- protection: parity"));
        assert!(vp.contains("st0_par"));
        assert!(!vp.contains("secded"), "parity level has no map ECC");
        assert!(!vp.contains("watchdog"), "parity level has no watchdog");
    }
}
