//! VHDL emission.
//!
//! eHDL "takes as input unmodified eBPF bytecode and outputs HDL (VHDL)"
//! (§3). The emitter produces a synchronous structural design: one process
//! per stage clocked at the pipeline clock, pruned state registers between
//! stages, map blocks with read/write/atomic ports, Flush Evaluation
//! Blocks, and the asynchronous-FIFO wrapper that decouples the pipeline
//! from the NIC shell clock domain (§4.5).

use crate::ir::{HwInsn, MemLabel};
use crate::pipeline::PipelineDesign;
use ehdl_ebpf::insn::{Instruction, Operand};
use std::fmt::Write as _;

/// Emit the complete VHDL source for a design.
pub fn emit(design: &PipelineDesign) -> String {
    // The text is close to 1 KB per stage (state signals, enable, process)
    // on top of the fixed entities: size the buffer once instead of
    // doubling it a dozen times on the way there.
    let mut o = String::with_capacity(8192 + 1280 * design.stages.len());
    let name = sanitize(&design.name);

    header(&mut o, design);
    let _ = writeln!(o, "library ieee;");
    let _ = writeln!(o, "use ieee.std_logic_1164.all;");
    let _ = writeln!(o, "use ieee.numeric_std.all;");
    let _ = writeln!(o);

    // Map block component declarations.
    for m in &design.maps {
        let _ = writeln!(
            o,
            "-- eHDLmap block for map `{}` ({} x {}B, {})",
            m.name, m.max_entries, m.value_size, m.kind
        );
        let _ = writeln!(o, "entity {name}_map{} is", m.id);
        let _ = writeln!(o, "  generic (");
        let _ = writeln!(o, "    KEY_BITS   : natural := {};", m.key_size * 8);
        let _ = writeln!(o, "    VALUE_BITS : natural := {};", m.value_size * 8);
        let _ = writeln!(o, "    ENTRIES    : natural := {}", m.max_entries);
        let _ = writeln!(o, "  );");
        let _ = writeln!(o, "  port (");
        let _ = writeln!(o, "    clk          : in  std_logic;");
        let _ = writeln!(o, "    rst          : in  std_logic;");
        let _ = writeln!(o, "    rd_en        : in  std_logic;");
        let _ = writeln!(o, "    rd_key       : in  std_logic_vector(KEY_BITS-1 downto 0);");
        let _ = writeln!(o, "    rd_hit       : out std_logic;");
        let _ = writeln!(o, "    rd_value     : out std_logic_vector(VALUE_BITS-1 downto 0);");
        let _ = writeln!(o, "    wr_en        : in  std_logic;");
        let _ = writeln!(o, "    wr_key       : in  std_logic_vector(KEY_BITS-1 downto 0);");
        let _ = writeln!(o, "    wr_value     : in  std_logic_vector(VALUE_BITS-1 downto 0);");
        let _ = writeln!(o, "    atomic_en    : in  std_logic;");
        let _ = writeln!(o, "    atomic_op    : in  std_logic_vector(3 downto 0);");
        let _ = writeln!(o, "    atomic_delta : in  std_logic_vector(63 downto 0);");
        let _ = writeln!(o, "    host_rd_key  : in  std_logic_vector(KEY_BITS-1 downto 0);");
        let _ = writeln!(o, "    host_rd_val  : out std_logic_vector(VALUE_BITS-1 downto 0);");
        let _ = writeln!(o, "    host_wr_en   : in  std_logic;");
        let _ = writeln!(o, "    host_wr_key  : in  std_logic_vector(KEY_BITS-1 downto 0);");
        let _ = writeln!(o, "    host_wr_val  : in  std_logic_vector(VALUE_BITS-1 downto 0);");
        let _ = writeln!(o, "    host_del_en  : in  std_logic;");
        let _ = writeln!(o, "    host_ack     : out std_logic;");
        let _ = writeln!(o, "    host_err     : out std_logic_vector(2 downto 0)");
        let _ = writeln!(o, "  );");
        let _ = writeln!(o, "end entity {name}_map{};", m.id);
        let _ = writeln!(o);
        if design.protect.ecc() {
            let _ = writeln!(
                o,
                "-- SECDED ECC wrapper for map `{}`: Hamming(72,64) check bits on every",
                m.name
            );
            let _ = writeln!(o, "-- stored word, single-bit correct-on-read, double-bit detect,");
            let _ = writeln!(o, "-- and a background scrub sweep that rewrites corrected words.");
            let _ = writeln!(o, "entity {name}_map{}_secded is", m.id);
            let _ = writeln!(o, "  generic (");
            let _ = writeln!(o, "    DATA_BITS  : natural := {};", m.value_size * 8);
            let _ = writeln!(o, "    CHECK_BITS : natural := 8");
            let _ = writeln!(o, "  );");
            let _ = writeln!(o, "  port (");
            let _ = writeln!(o, "    clk, rst      : in  std_logic;");
            let _ = writeln!(o, "    enc_in        : in  std_logic_vector(DATA_BITS-1 downto 0);");
            let _ = writeln!(
                o,
                "    enc_out       : out std_logic_vector(DATA_BITS+CHECK_BITS-1 downto 0);"
            );
            let _ = writeln!(
                o,
                "    dec_in        : in  std_logic_vector(DATA_BITS+CHECK_BITS-1 downto 0);"
            );
            let _ = writeln!(o, "    dec_out       : out std_logic_vector(DATA_BITS-1 downto 0);");
            let _ = writeln!(o, "    corrected     : out std_logic;  -- single-bit fixed");
            let _ = writeln!(o, "    uncorrectable : out std_logic;  -- double-bit detected");
            let _ = writeln!(o, "    scrub_addr    : out std_logic_vector(31 downto 0);");
            let _ = writeln!(o, "    scrub_active  : out std_logic");
            let _ = writeln!(o, "  );");
            let _ = writeln!(o, "end entity {name}_map{}_secded;", m.id);
            let _ = writeln!(o);
        }
    }

    // Host control interface: the AXI-Lite-like slave exposing every map
    // to the host plus the CSR file (telemetry counters, per-stage
    // occupancy, drain-and-swap reload handshake). The inventory — one
    // arbitrated host port per map, fence stage, write arbitration —
    // comes from `plan::control_inventory` and is charged by
    // `resource::estimate_control`.
    {
        let inv = crate::plan::control_inventory(design);
        let _ = writeln!(
            o,
            "-- Host control interface: {} map port(s), {} CSR(s)",
            inv.map_ports.len(),
            inv.csrs.len()
        );
        for p in &inv.map_ports {
            let _ = writeln!(
                o,
                "--   host port map{} `{}`: key {}b value {}b, fence stage {}{}",
                p.map,
                p.name,
                p.key_bits,
                p.value_bits,
                p.fence_stage,
                if p.pipeline_writes { ", write-arbitrated" } else { ", read-only pipeline" }
            );
        }
        let _ = writeln!(o, "entity {name}_ctrl is");
        let _ = writeln!(o, "  port (");
        let _ = writeln!(o, "    clk, rst       : in  std_logic;");
        let _ = writeln!(o, "    s_ctrl_awaddr  : in  std_logic_vector(31 downto 0);");
        let _ = writeln!(o, "    s_ctrl_awvalid : in  std_logic;");
        let _ = writeln!(o, "    s_ctrl_wdata   : in  std_logic_vector(31 downto 0);");
        let _ = writeln!(o, "    s_ctrl_wvalid  : in  std_logic;");
        let _ = writeln!(o, "    s_ctrl_araddr  : in  std_logic_vector(31 downto 0);");
        let _ = writeln!(o, "    s_ctrl_arvalid : in  std_logic;");
        let _ = writeln!(o, "    s_ctrl_rdata   : out std_logic_vector(31 downto 0);");
        let _ = writeln!(o, "    s_ctrl_rvalid  : out std_logic");
        let _ = writeln!(o, "  );");
        let _ = writeln!(o, "end entity {name}_ctrl;");
        let _ = writeln!(o);
        let _ = writeln!(o, "-- CSR file of {name}_ctrl (address order):");
        for (i, c) in inv.csrs.iter().enumerate() {
            let _ = writeln!(
                o,
                "--   0x{:04x} {} ({} bits, {})",
                i * 4,
                c.name,
                c.bits,
                if c.read_only { "ro" } else { "rw" }
            );
        }
        let _ = writeln!(o);
    }

    // Pipeline watchdog: detects a no-retire (hung) condition, drains the
    // in-flight window and reinitializes the pipeline without touching map
    // contents.
    if design.protect.watchdog() {
        let _ = writeln!(o, "-- Pipeline watchdog: retire timer + safe-drain/reinit sequencer.");
        let _ = writeln!(o, "entity {name}_watchdog is");
        let _ = writeln!(o, "  generic ( TIMEOUT_CYCLES : natural := 1024 );");
        let _ = writeln!(o, "  port (");
        let _ = writeln!(o, "    clk, rst     : in  std_logic;");
        let _ = writeln!(o, "    retire_valid : in  std_logic;  -- a packet left the pipeline");
        let _ = writeln!(o, "    busy         : in  std_logic;  -- packets are in flight");
        let _ = writeln!(o, "    drain        : out std_logic;  -- request safe drain");
        let _ = writeln!(o, "    reinit       : out std_logic   -- map-preserving pipeline reset");
        let _ = writeln!(o, "  );");
        let _ = writeln!(o, "end entity {name}_watchdog;");
        let _ = writeln!(o);
    }

    // Flush evaluation block component, emitted once if needed.
    if !design.hazards.febs.is_empty() {
        let _ = writeln!(o, "-- Flush Evaluation Block: snoops unconfirmed read addresses and");
        let _ = writeln!(o, "-- raises `flush` when a write hits one of them (sec. 4.1.2).");
        let _ = writeln!(o, "entity {name}_feb is");
        let _ = writeln!(o, "  generic ( WINDOW : natural; ADDR_BITS : natural := 32 );");
        let _ = writeln!(o, "  port (");
        let _ = writeln!(o, "    clk, rst   : in  std_logic;");
        let _ = writeln!(o, "    rd_valid   : in  std_logic;");
        let _ = writeln!(o, "    rd_addr    : in  std_logic_vector(ADDR_BITS-1 downto 0);");
        let _ = writeln!(o, "    wr_valid   : in  std_logic;");
        let _ = writeln!(o, "    wr_addr    : in  std_logic_vector(ADDR_BITS-1 downto 0);");
        let _ = writeln!(o, "    flush      : out std_logic");
        let _ = writeln!(o, "  );");
        let _ = writeln!(o, "end entity {name}_feb;");
        let _ = writeln!(o);
    }

    // Top-level pipeline entity.
    let _ = writeln!(o, "entity {name}_pipeline is");
    let _ = writeln!(o, "  generic (");
    let _ = writeln!(o, "    FRAME_BYTES : natural := {}", design.framing.frame_size);
    let _ = writeln!(o, "  );");
    let _ = writeln!(o, "  port (");
    let _ = writeln!(o, "    clk           : in  std_logic;  -- pipeline clock (250 MHz)");
    let _ = writeln!(o, "    rst           : in  std_logic;");
    let _ = writeln!(o, "    s_axis_tdata  : in  std_logic_vector(FRAME_BYTES*8-1 downto 0);");
    let _ = writeln!(o, "    s_axis_tkeep  : in  std_logic_vector(FRAME_BYTES-1 downto 0);");
    let _ = writeln!(o, "    s_axis_tvalid : in  std_logic;");
    let _ = writeln!(o, "    s_axis_tlast  : in  std_logic;");
    let _ = writeln!(o, "    s_axis_tready : out std_logic;");
    let _ = writeln!(o, "    m_axis_tdata  : out std_logic_vector(FRAME_BYTES*8-1 downto 0);");
    let _ = writeln!(o, "    m_axis_tkeep  : out std_logic_vector(FRAME_BYTES-1 downto 0);");
    let _ = writeln!(o, "    m_axis_tvalid : out std_logic;");
    let _ = writeln!(o, "    m_axis_tlast  : out std_logic;");
    let _ = writeln!(o, "    m_axis_tready : in  std_logic;");
    let _ = writeln!(o, "    xdp_action    : out std_logic_vector(2 downto 0)");
    let _ = writeln!(o, "  );");
    let _ = writeln!(o, "end entity {name}_pipeline;");
    let _ = writeln!(o);

    // Architecture.
    let _ = writeln!(o, "architecture rtl of {name}_pipeline is");
    let nstages = design.stages.len();
    let _ = writeln!(o, "  -- {} stages; per-boundary pruned state registers (sec. 4.3)", nstages);
    for (i, _) in design.stages.iter().enumerate() {
        let regs = design.prune.live_regs.get(i).copied().unwrap_or(0);
        let stack = design.prune.live_stack_bytes.get(i).copied().unwrap_or(0);
        let _ = writeln!(o, "  signal st{i}_frame : std_logic_vector(FRAME_BYTES*8-1 downto 0);");
        for r in 0..11u8 {
            if regs & (1 << r) != 0 {
                let _ = writeln!(o, "  signal st{i}_r{r} : std_logic_vector(63 downto 0);");
            }
        }
        if stack > 0 {
            let _ =
                writeln!(o, "  signal st{i}_stack : std_logic_vector({} downto 0);", stack * 8 - 1);
        }
        let _ = writeln!(o, "  signal st{i}_en : std_logic;");
        if design.protect.parity() {
            let _ = writeln!(o, "  signal st{i}_par : std_logic;  -- parity over carried state");
            let _ = writeln!(o, "  signal st{i}_par_err : std_logic;");
        }
    }
    if design.protect.watchdog() {
        let _ = writeln!(o, "  signal wd_drain, wd_reinit : std_logic;");
    }
    for feb in &design.hazards.febs {
        let _ = writeln!(o, "  signal flush_m{}_w{} : std_logic;", feb.map, feb.write_stage);
    }
    // Branch-outcome signals for every block ending in a conditional.
    let mut branch_blocks: Vec<usize> = design
        .stages
        .iter()
        .flat_map(|s| {
            s.ops.iter().filter_map(move |op| {
                matches!(
                    op.insn,
                    crate::ir::HwInsn::Simple(Instruction::Jump { cond: Some(_), .. })
                )
                .then_some(s.block)
            })
        })
        .collect();
    branch_blocks.sort_unstable();
    branch_blocks.dedup();
    for b in &branch_blocks {
        let _ = writeln!(o, "  signal blk{b}_taken : std_logic;");
    }
    let _ = writeln!(o, "  signal blk0_en : std_logic;");
    for (b, _) in crate::predicate::gated(&design.blocks) {
        let _ = writeln!(o, "  signal blk{b}_en : std_logic;");
    }
    let _ = writeln!(o, "begin");
    let _ = writeln!(o, "  s_axis_tready <= not rst;");
    let _ = writeln!(o);
    let _ = writeln!(o, "  -- Predication (sec. 3.5): one enable per control block, one term");
    let _ = writeln!(o, "  -- per incoming edge; every stage takes its block's enable.");
    let _ = writeln!(o, "  blk0_en <= '1';");
    for (b, info) in crate::predicate::gated(&design.blocks) {
        let _ = write!(o, "  blk{b}_en <= ");
        crate::predicate::write_terms(&mut o, info);
        o.push_str(";\n");
    }
    for (i, stage) in design.stages.iter().enumerate() {
        let _ = writeln!(o, "  st{i}_en <= blk{}_en;", stage.block);
    }
    for &(block, min_len) in &design.guards {
        let _ = writeln!(
            o,
            "  -- implicit bounds guard: packets shorter than {min_len} B reaching block {block} are dropped"
        );
    }

    // Each op's comment heads its stage and again its statements: rendered
    // once, then copied from its byte range in `o`.
    let mut notes = Vec::new();
    for (i, stage) in design.stages.iter().enumerate() {
        let _ = write!(o, "\n  -- stage {i} (block {}, {:?}): ", stage.block, stage.kind);
        if stage.ops.is_empty() {
            o.push_str("pass-through");
        }
        notes.clear();
        for (k, op) in stage.ops.iter().enumerate() {
            o.push_str(if k == 0 { "" } else { " || " });
            let start = o.len();
            op_comment(&mut o, op);
            notes.push(start..o.len());
        }
        let _ = writeln!(o);
        let _ = writeln!(o, "  stage_{i} : process (clk)");
        let _ = writeln!(o, "  begin");
        let _ = writeln!(o, "    if rising_edge(clk) then");
        let _ = writeln!(o, "      if st{i}_en = '1' then");
        for (op, note) in stage.ops.iter().zip(&notes) {
            o.push_str("        -- ");
            o.extend_from_within(note.clone());
            o.push('\n');
            op_vhdl(&mut o, i, stage.block, op);
        }
        if stage.ops.is_empty() {
            let _ = writeln!(o, "        null;  -- disabled/wait stage forwards state");
        }
        let _ = writeln!(o, "      end if;");
        let _ = writeln!(o, "    end if;");
        let _ = writeln!(o, "  end process stage_{i};");
    }

    for feb in &design.hazards.febs {
        let _ = writeln!(o);
        let _ = writeln!(
            o,
            "  feb_m{}_w{} : entity work.{name}_feb generic map (WINDOW => {})",
            feb.map, feb.write_stage, feb.window
        );
        let _ = writeln!(
            o,
            "    port map (clk => clk, rst => rst, rd_valid => st{}_en, rd_addr => (others => '0'), wr_valid => st{}_en, wr_addr => (others => '0'), flush => flush_m{}_w{});",
            feb.read_stage, feb.write_stage, feb.map, feb.write_stage
        );
    }

    if design.protect.parity() {
        let _ = writeln!(o);
        let _ = writeln!(o, "  -- Parity guards: one parity bit per stage boundary; a mismatch");
        let _ = writeln!(o, "  -- aborts the packet and requests recovery-by-replay from the");
        let _ = writeln!(o, "  -- nearest checkpoint (hazard elastic buffers are reused).");
        for i in 0..nstages {
            let _ = writeln!(
                o,
                "  parity_guard_{i} : st{i}_par_err <= st{i}_par xor xor_reduce(st{i}_frame);"
            );
        }
    }
    if design.protect.ecc() {
        for m in &design.maps {
            let _ = writeln!(o);
            let _ = writeln!(
                o,
                "  secded_m{0} : entity work.{name}_map{0}_secded port map (clk => clk, rst => rst, enc_in => (others => '0'), enc_out => open, dec_in => (others => '0'), dec_out => open, corrected => open, uncorrectable => open, scrub_addr => open, scrub_active => open);",
                m.id
            );
        }
    }
    if design.protect.watchdog() {
        let _ = writeln!(o);
        let _ = writeln!(
            o,
            "  watchdog : entity work.{name}_watchdog generic map (TIMEOUT_CYCLES => 1024)"
        );
        let _ = writeln!(
            o,
            "    port map (clk => clk, rst => rst, retire_valid => st{}_en, busy => s_axis_tvalid, drain => wd_drain, reinit => wd_reinit);",
            nstages.saturating_sub(1)
        );
    }

    let _ = writeln!(o);
    let _ = writeln!(o, "  m_axis_tvalid <= st{}_en;", nstages.saturating_sub(1));
    let _ = writeln!(o, "  m_axis_tlast  <= '1';");
    let _ = writeln!(o, "end architecture rtl;");
    o
}

fn header(o: &mut String, design: &PipelineDesign) {
    let _ = writeln!(o, "--------------------------------------------------------------------");
    let _ = writeln!(o, "-- Generated by eHDL from eBPF program `{}`", design.name);
    if design.protect != crate::pipeline::Protection::None {
        let _ = writeln!(o, "-- protection: {}", design.protect.name());
    }
    let _ = writeln!(
        o,
        "-- {} stages | {} source insns -> {} hw insns | ILP max {} avg {:.2}",
        design.stages.len(),
        design.stats.source_insns,
        design.stats.hw_insns,
        design.stats.ilp.max,
        design.stats.ilp.avg
    );
    let _ = writeln!(
        o,
        "-- frame {} B | {} wait stages | {} FEB | {} WAR buffer | {} atomic block",
        design.framing.frame_size,
        design.framing.wait_stages,
        design.hazards.febs.len(),
        design.hazards.war_buffers.len(),
        design.hazards.atomic_stages.len()
    );
    let _ = writeln!(o, "--------------------------------------------------------------------");
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Append the one-line comment naming `op`.
fn op_comment(o: &mut String, op: &crate::pipeline::StageOp) {
    match op.insn {
        HwInsn::Alu3 { op: alu, dst, a, b, .. } => {
            let _ = write!(o, "r{dst} = r{a} {} {b}", alu.symbol());
        }
        HwInsn::Simple(i) => o.push_str(&crate::disasm_one(&i)),
    }
    if let Some(p) = op.proof {
        let _ = write!(o, "  [unguarded: proven in [{}, {}], len >= {}]", p.lo, p.hi, p.min_len);
    }
}

/// A source operand of stage `stage`: its input register or an immediate.
struct Src(usize, Operand);

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.1 {
            Operand::Reg(r) => write!(f, "st{}_r{r}", self.0),
            Operand::Imm(v) => write!(f, "std_logic_vector(to_signed({v}, 64))"),
        }
    }
}

/// Append the statements of `op` in stage `stage`, one indented line each.
fn op_vhdl(o: &mut String, stage: usize, block: usize, op: &crate::pipeline::StageOp) {
    let nxt = stage + 1;
    const INDENT: &str = "        ";
    let start = o.len();
    o.push_str(INDENT);
    let _ = match op.insn {
        HwInsn::Alu3 { dst, a, b, .. } => {
            write!(o, "st{nxt}_r{dst} <= alu_op(st{stage}_r{a}, {});", Src(stage, b))
        }
        HwInsn::Simple(i) => match i {
            Instruction::Alu { dst, src, .. } => {
                write!(o, "st{nxt}_r{dst} <= alu_op(st{stage}_r{dst}, {});", Src(stage, src))
            }
            Instruction::Endian { dst, bits, .. } => {
                write!(o, "st{nxt}_r{dst} <= bswap{bits}(st{stage}_r{dst});")
            }
            Instruction::LoadImm64 { dst, imm, .. } => {
                write!(o, "st{nxt}_r{dst} <= x\"{imm:016x}\";")
            }
            Instruction::Load { dst, off, .. } => match op.label {
                MemLabel::Packet(iv) => write!(
                    o,
                    "st{nxt}_r{dst} <= pkt_bytes(st{stage}_frame, {});  -- packet{iv}",
                    iv.lo.max(0)
                ),
                MemLabel::Stack(iv) => write!(
                    o,
                    "st{nxt}_r{dst} <= stack_bytes(st{stage}_stack, {});  -- stack{iv}",
                    iv.lo
                ),
                MemLabel::Map(m) => {
                    write!(o, "st{nxt}_r{dst} <= map{m}_rd_value;  -- map value load")
                }
                _ => write!(o, "st{nxt}_r{dst} <= ctx_field({off});"),
            },
            Instruction::Store { src, .. } => {
                let s = Src(stage, src);
                match op.label {
                    MemLabel::Packet(iv) => write!(
                        o,
                        "st{nxt}_frame <= pkt_store(st{stage}_frame, {}, {s});  -- packet{iv}",
                        iv.lo.max(0)
                    ),
                    MemLabel::Stack(iv) => write!(
                        o,
                        "st{nxt}_stack <= stack_store(st{stage}_stack, {}, {s});  -- stack{iv}",
                        iv.lo
                    ),
                    MemLabel::Map(m) => {
                        write!(o, "map{m}_wr_value <= {s}; map{m}_wr_en <= '1';")
                    }
                    _ => Ok(()),
                }
            }
            Instruction::Atomic { src, .. } => match op.label {
                MemLabel::Map(m) => write!(
                    o,
                    "map{m}_atomic_en <= '1';\n        map{m}_atomic_delta <= st{stage}_r{src};"
                ),
                _ => write!(o, "-- atomic on local state"),
            },
            Instruction::Jump { cond: Some(c), .. } => {
                let cmp = match c.op.symbol() {
                    "==" => "=",
                    "!=" => "/=",
                    s => s,
                };
                let _ =
                    write!(o, "blk{block}_taken <= '1' when signed(st{stage}_r{}) {cmp} ", c.lhs);
                match c.rhs {
                    Operand::Reg(r) => write!(o, "st{stage}_r{r} else '0';"),
                    Operand::Imm(v) => write!(o, "to_signed({v}, 64) else '0';"),
                }
            }
            Instruction::Jump { cond: None, .. } => Ok(()),
            Instruction::Call { helper } => {
                write!(o, "-- helper block instance: {}", ehdl_ebpf::helpers::helper_name(helper))
            }
            Instruction::Exit => write!(o, "xdp_action <= st{stage}_r0(2 downto 0);"),
        },
    };
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

/// Emit a self-checking VHDL testbench for a design: it drives `n_packets`
/// synthetic frames into the pipeline at one frame per cycle and asserts
/// that an `xdp_action` is produced for each. Together with [`emit`] this
/// gives the complete simulation artifact a hardware engineer would expect
/// next to a generated core.
pub fn emit_testbench(design: &PipelineDesign, n_packets: usize) -> String {
    let name = sanitize(&design.name);
    let mut o = String::new();
    let _ = writeln!(o, "-- Auto-generated testbench for {name}_pipeline");
    let _ = writeln!(o, "library ieee;");
    let _ = writeln!(o, "use ieee.std_logic_1164.all;");
    let _ = writeln!(o, "use ieee.numeric_std.all;");
    let _ = writeln!(o);
    let _ = writeln!(o, "entity {name}_tb is");
    let _ = writeln!(o, "end entity {name}_tb;");
    let _ = writeln!(o);
    let _ = writeln!(o, "architecture sim of {name}_tb is");
    let _ = writeln!(o, "  constant CLK_PERIOD : time := 4 ns;  -- 250 MHz");
    let _ = writeln!(o, "  constant FRAME_BYTES : natural := {};", design.framing.frame_size);
    let _ = writeln!(o, "  signal clk, rst : std_logic := '0';");
    let _ = writeln!(
        o,
        "  signal s_tdata  : std_logic_vector(FRAME_BYTES*8-1 downto 0) := (others => '0');"
    );
    let _ = writeln!(
        o,
        "  signal s_tkeep  : std_logic_vector(FRAME_BYTES-1 downto 0) := (others => '1');"
    );
    let _ = writeln!(o, "  signal s_tvalid, s_tlast, s_tready : std_logic := '0';");
    let _ = writeln!(o, "  signal m_tdata  : std_logic_vector(FRAME_BYTES*8-1 downto 0);");
    let _ = writeln!(o, "  signal m_tkeep  : std_logic_vector(FRAME_BYTES-1 downto 0);");
    let _ = writeln!(o, "  signal m_tvalid, m_tlast : std_logic;");
    let _ = writeln!(o, "  signal action : std_logic_vector(2 downto 0);");
    let _ = writeln!(o, "  signal done : boolean := false;");
    let _ = writeln!(o, "begin");
    let _ = writeln!(o, "  clk <= not clk after CLK_PERIOD / 2 when not done else '0';");
    let _ = writeln!(o);
    let _ = writeln!(o, "  dut : entity work.{name}_pipeline");
    let _ = writeln!(o, "    generic map (FRAME_BYTES => FRAME_BYTES)");
    let _ = writeln!(o, "    port map (");
    let _ = writeln!(o, "      clk => clk, rst => rst,");
    let _ = writeln!(o, "      s_axis_tdata => s_tdata, s_axis_tkeep => s_tkeep,");
    let _ = writeln!(o, "      s_axis_tvalid => s_tvalid, s_axis_tlast => s_tlast,");
    let _ = writeln!(o, "      s_axis_tready => s_tready,");
    let _ = writeln!(o, "      m_axis_tdata => m_tdata, m_axis_tkeep => m_tkeep,");
    let _ = writeln!(o, "      m_axis_tvalid => m_tvalid, m_axis_tlast => m_tlast,");
    let _ = writeln!(o, "      m_axis_tready => '1',");
    let _ = writeln!(o, "      xdp_action => action);");
    let _ = writeln!(o);
    let _ = writeln!(o, "  stimulus : process");
    let _ = writeln!(o, "  begin");
    let _ = writeln!(o, "    rst <= '1';");
    let _ = writeln!(o, "    wait for 5 * CLK_PERIOD;");
    let _ = writeln!(o, "    rst <= '0';");
    let _ = writeln!(o, "    for pkt in 0 to {} loop", n_packets.saturating_sub(1));
    let _ = writeln!(o, "      wait until rising_edge(clk) and s_tready = '1';");
    let _ = writeln!(o, "      -- one minimum-size packet: a single frame");
    let _ = writeln!(o, "      s_tdata <= std_logic_vector(to_unsigned(pkt, FRAME_BYTES*8));");
    let _ = writeln!(o, "      s_tvalid <= '1';");
    let _ = writeln!(o, "      s_tlast <= '1';");
    let _ = writeln!(o, "      wait until rising_edge(clk);");
    let _ = writeln!(o, "      s_tvalid <= '0';");
    let _ = writeln!(o, "      s_tlast <= '0';");
    let _ = writeln!(o, "    end loop;");
    let _ = writeln!(o, "    -- drain: every packet must emerge with a verdict");
    let _ = writeln!(o, "    for pkt in 0 to {} loop", n_packets.saturating_sub(1));
    let _ = writeln!(o, "      wait until rising_edge(clk) and m_tvalid = '1';");
    let _ =
        writeln!(o, "      assert action /= \"111\" report \"invalid verdict\" severity failure;");
    let _ = writeln!(o, "    end loop;");
    let _ =
        writeln!(o, "    report \"{name}_tb: all {n_packets} packets completed\" severity note;");
    let _ = writeln!(o, "    done <= true;");
    let _ = writeln!(o, "    wait;");
    let _ = writeln!(o, "  end process stimulus;");
    let _ = writeln!(o, "end architecture sim;");
    o
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod testbench_tests {
    use crate::Compiler;
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::Program;

    #[test]
    fn testbench_emits_and_references_dut() {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        let d = Compiler::new().compile(&Program::from_insns(a.into_insns())).unwrap();
        let tb = super::emit_testbench(&d, 16);
        assert!(tb.contains("entity anonymous_tb is"));
        assert!(tb.contains("entity work.anonymous_pipeline"));
        assert!(tb.contains("for pkt in 0 to 15 loop"));
        assert!(tb.contains("severity failure"));
    }
}
