//! The paper's own evaluation (§5, Appendix A): Fig. 9a-c, Fig. 10,
//! Tables 2-5, §5.4 and the design-choice ablations, on the simulated NIC
//! and the baseline models at the sizes EXPERIMENTS.md quotes. Recorded
//! as `BENCH_paper.json`; every value is simulated or modelled, so the
//! recording is exact.

use crate::record::Fields;
use crate::{design_of, eval_packets, exemptions, par_map, setup_app};
use ehdl_baselines::{hxdp, sdnet, BluefieldModel, Profile, SdnetCompiler};
use ehdl_core::analytical::{self, FlushModelRow};
use ehdl_core::{resource, Compiler, CompilerOptions, Target};
use ehdl_ebpf::vm::Vm;
use ehdl_ebpf::Program;
use ehdl_hwsim::{Divergence, NicShell, ShellOptions, SimOptions, SimOutcome};
use ehdl_programs::{leaky_bucket, toy_counter, App};
use ehdl_runtime::json::Json;
use ehdl_traffic::{caida_like, mawi_like, FlowSet, Popularity, Trace, Workload};

/// Packets per Fig. 9 run (smaller than the testbed's minute-long runs,
/// large enough for steady state).
const EVAL_PACKETS: usize = 40_000;
/// Packets per Table 2 trace replay.
const TRACE_PACKETS: usize = 120_000;
/// Zipf flow population of Tables 3 and 4 (Appendix A.1).
const ZIPF_FLOWS: usize = 50_000;
/// Packets in the RAW-policy ablation stream.
const RAW_POLICY_PACKETS: usize = 6_000;

/// Fig. 9a (throughput) and Fig. 9b (latency) for one app. The eHDL
/// cells come from one run of 40k packets at 64 B line rate; the hXDP and
/// BlueField-2 cells charge the paths those packets execute on the VM.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Application.
    pub app: App,
    /// eHDL pipeline throughput (Mpps).
    pub ehdl_mpps: f64,
    /// eHDL mean forwarding latency (ns).
    pub ehdl_latency_ns: f64,
    /// Packets the eHDL pipeline lost (0 = line rate sustained).
    pub ehdl_lost: u64,
    /// eHDL flush events.
    pub ehdl_flushes: u64,
    /// Packets the pipeline never retired.
    pub missing: usize,
    /// Retired packets whose verdict or bytes differ from the VM's.
    pub divergences: Vec<Divergence>,
    /// The VM's executed paths over the run's packets.
    pub profile: Profile,
    /// SDNet P4 throughput (Mpps; `None` = not expressible).
    pub sdnet_mpps: Option<f64>,
    /// hXDP throughput (Mpps).
    pub hxdp_mpps: f64,
    /// hXDP forwarding latency (ns).
    pub hxdp_latency_ns: f64,
    /// BlueField-2, one core (Mpps).
    pub bf2_1c_mpps: f64,
    /// BlueField-2, four cores (Mpps).
    pub bf2_4c_mpps: f64,
}

/// Fig. 9c: pipeline depth against instruction counts.
#[derive(Debug, Clone)]
pub struct Fig9cRow {
    /// Application.
    pub app: App,
    /// eHDL pipeline stages.
    pub stages: usize,
    /// hXDP instructions after its compiler.
    pub hxdp_instrs: usize,
    /// Original bytecode instructions.
    pub original_instrs: usize,
}

/// Fig. 10: fractions of the Alveo U50, Corundum shell included.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Application.
    pub app: App,
    /// eHDL utilisation.
    pub ehdl: resource::Utilization,
    /// hXDP utilisation (constant across apps: a fixed processor).
    pub hxdp: resource::Utilization,
    /// SDNet utilisation (`None` = not expressible).
    pub sdnet: Option<resource::Utilization>,
}

/// Table 2 (and §5.3): the leaky bucket replaying a trace at 100 Gbps.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Trace name.
    pub trace: String,
    /// Packets replayed.
    pub packets: usize,
    /// Packets lost.
    pub lost: u64,
    /// Flush events.
    pub flushes: u64,
    /// Flush events per simulated second.
    pub flushes_per_sec: f64,
    /// Achieved throughput (Mpps).
    pub mpps: f64,
}

/// Table 4: the deepest flushable pipeline sustaining 148 Mpps.
#[derive(Debug, Clone)]
pub struct KmaxRow {
    /// Hazard window `L`.
    pub l: usize,
    /// Flush probability under Zipf traffic.
    pub p_flush: f64,
    /// `K_max`.
    pub k_max: f64,
}

/// Table 5: instruction-level parallelism.
#[derive(Debug, Clone)]
pub struct IlpRow {
    /// Application.
    pub app: App,
    /// Widest stage (instructions).
    pub max: usize,
    /// Mean instructions per stage.
    pub avg: f64,
}

/// One compiled configuration: §5.4 and the design-choice sweeps.
/// Resources are the pipeline's alone (no shell); latency is 4 ns per
/// stage at 250 MHz.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Pipeline stages.
    pub stages: usize,
    /// Frame-wait stages inserted.
    pub wait_stages: usize,
    /// Pipeline LUTs.
    pub luts: u64,
    /// Pipeline FFs.
    pub ffs: u64,
    /// Pipeline BRAM36 blocks.
    pub brams: u64,
}

/// RAW-policy ablation: the flush policy measured, against a stall
/// oracle and the flush model at the measured hazard rate.
#[derive(Debug, Clone)]
pub struct RawPolicyRow {
    /// Policy name.
    pub policy: String,
    /// Throughput (Mpps).
    pub mpps: f64,
    /// Verdicts differing from the sequential reference (`None` for the
    /// modelled rows, which run no packets).
    pub violations: Option<usize>,
}

/// Every paper table, measured.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Fig. 9a and 9b.
    pub fig9: Vec<Fig9Row>,
    /// Fig. 9c.
    pub fig9c: Vec<Fig9cRow>,
    /// Fig. 10.
    pub fig10: Vec<Fig10Row>,
    /// Table 2: CAIDA-like, MAWI-like, then the §5.3 single-address run.
    pub tab2: Vec<TraceRow>,
    /// Table 3 (the five apps, then the leaky bucket).
    pub tab3: Vec<FlushModelRow>,
    /// Table 4, `L` = 2..=5.
    pub tab4: Vec<KmaxRow>,
    /// Table 5.
    pub tab5: Vec<IlpRow>,
    /// §5.4: the Listing-1 pipeline pruned, then unpruned.
    pub sec54: Vec<AblationRow>,
    /// Compiler passes switched off one at a time (Tunnel).
    pub passes: Vec<AblationRow>,
    /// Frame size sweep (Suricata).
    pub frame_size: Vec<AblationRow>,
    /// §4.2 deep payload access: offset × frame size.
    pub deep_payload: Vec<AblationRow>,
    /// RAW hazard policy (leaky bucket, 8 hot flows).
    pub raw_policy: Vec<RawPolicyRow>,
}

/// Measure every table.
pub fn measure() -> Paper {
    let default = CompilerOptions::default;
    let tunnel = App::Tunnel.program();
    let suricata = App::Suricata.program();
    let toy = toy_counter::program();
    Paper {
        fig9: fig9(),
        fig9c: fig9c(),
        fig10: fig10(),
        tab2: tab2(),
        tab3: tab3(),
        tab4: (2..=5)
            .map(|l| {
                let p_flush = analytical::p_flush_zipf(l, ZIPF_FLOWS);
                KmaxRow {
                    l,
                    p_flush,
                    k_max: analytical::k_max(analytical::PEAK_PPS, 148e6, p_flush),
                }
            })
            .collect(),
        tab5: App::ALL
            .iter()
            .map(|&app| {
                let ilp = design_of(app).stats.ilp;
                IlpRow { app, max: ilp.max, avg: ilp.avg }
            })
            .collect(),
        sec54: vec![
            compiled("pruned", &toy, default()),
            compiled("unpruned", &toy, CompilerOptions { prune: false, ..default() }),
        ],
        passes: vec![
            compiled("full (default)", &tunnel, default()),
            compiled("no fusion", &tunnel, CompilerOptions { fusion: false, ..default() }),
            compiled(
                "no parallelize",
                &tunnel,
                CompilerOptions { parallelize: false, ..default() },
            ),
            compiled("no dce", &tunnel, CompilerOptions { dce: false, ..default() }),
            compiled("no prune", &tunnel, CompilerOptions { prune: false, ..default() }),
            compiled(
                "keep bounds checks",
                &tunnel,
                CompilerOptions { elide_bounds_checks: false, ..default() },
            ),
        ],
        frame_size: [16, 32, 64, 128]
            .iter()
            .map(|&frame_size| {
                let o = CompilerOptions { frame_size, ..default() };
                compiled(&format!("{frame_size} B frames"), &suricata, o)
            })
            .collect(),
        deep_payload: deep_payload(&[13, 150, 300, 600, 1200], &[32, 64]),
        raw_policy: raw_policy(),
    }
}

/// Fig. 9a and 9b: per app (one worker thread each) the eHDL run, and
/// the VM replay of its packets that checks it and profiles the paths
/// the baseline models charge.
fn fig9() -> Vec<Fig9Row> {
    par_map(&App::ALL, |&app| {
        let design = design_of(app);
        let packets = eval_packets(app, EVAL_PACKETS);
        let mut shell = NicShell::new(&design, ShellOptions::default());
        setup_app(app, shell.sim_mut().maps_mut());
        let run = shell.run(packets.iter().cloned());
        let (profile, missing, divergences) = vm_replay(app, &packets, shell.drain());
        let hxdp = hxdp::evaluate(&profile);
        let [bf1, bf4] = [1, 4].map(|cores| BluefieldModel::new(cores).evaluate(&profile));
        let sdnet = SdnetCompiler::new().compile(&sdnet::spec_for(app)).ok();
        Fig9Row {
            app,
            ehdl_mpps: run.throughput_pps / 1e6,
            ehdl_latency_ns: run.avg_latency_ns,
            ehdl_lost: run.lost,
            ehdl_flushes: run.flushes,
            missing,
            divergences,
            profile,
            sdnet_mpps: sdnet.map(|d| d.pps / 1e6),
            hxdp_mpps: hxdp.pps / 1e6,
            hxdp_latency_ns: hxdp.latency_ns,
            bf2_1c_mpps: bf1.pps / 1e6,
            bf2_4c_mpps: bf4.pps / 1e6,
        }
    })
}

/// One Fig. 9 run replayed on the VM, in arrival order against `app`'s
/// maps: every executed path folds into the profile, and every packet
/// the pipeline `retired` must carry the VM's verdict and bytes, the
/// field [`exemptions`] allocates excepted. Returns the profile, the
/// packets never retired and the divergences.
fn vm_replay(
    app: App,
    packets: &[Vec<u8>],
    mut retired: Vec<SimOutcome>,
) -> (Profile, usize, Vec<Divergence>) {
    retired.sort_unstable_by_key(|o| o.seq);
    let mut retired = retired.into_iter().peekable();
    let exempt = exemptions(app).1.map_or(0..0, |field| field.bytes);
    let mut vm = Vm::new(&app.program());
    setup_app(app, vm.maps_mut());
    let (mut profile, mut missing, mut divergences) = (Profile::default(), 0, Vec::new());
    for (seq, pkt) in packets.iter().enumerate() {
        let mut bytes = pkt.clone();
        let out = vm.run(&mut bytes, 0).expect("evaluation traffic runs on the VM");
        profile.add(&out);
        let Some(hw) = retired.next_if(|o| o.seq == seq as u64) else {
            missing += 1;
            continue;
        };
        let mut compared = (0..bytes.len().max(hw.packet.len())).filter(|i| !exempt.contains(i));
        if hw.action != out.action {
            divergences.push(Divergence::Action { seq, vm: out.action, hw: hw.action });
        } else if let Some(at) = compared.find(|&i| bytes.get(i) != hw.packet.get(i)) {
            divergences.push(Divergence::Packet { seq, at });
        }
    }
    (profile, missing, divergences)
}

fn fig9c() -> Vec<Fig9cRow> {
    App::ALL
        .iter()
        .map(|&app| {
            let design = design_of(app);
            Fig9cRow {
                app,
                stages: design.stage_count(),
                hxdp_instrs: design.stats.hw_insns,
                original_instrs: app.program().insn_count(),
            }
        })
        .collect()
}

fn fig10() -> Vec<Fig10Row> {
    let shell = resource::ResourceEstimate {
        luts: resource::cost::SHELL_LUTS,
        ffs: resource::cost::SHELL_FFS,
        brams: resource::cost::SHELL_BRAMS,
    };
    let hxdp = hxdp::resources().plus(shell).utilization(Target::ALVEO_U50);
    App::ALL
        .iter()
        .map(|&app| Fig10Row {
            app,
            ehdl: resource::estimate_with_shell(&design_of(app)).utilization(Target::ALVEO_U50),
            hxdp,
            sdnet: SdnetCompiler::new()
                .compile(&sdnet::spec_for(app))
                .ok()
                .map(|d| d.resources.plus(shell).utilization(Target::ALVEO_U50)),
        })
        .collect()
}

/// Replay `packets` through the leaky-bucket pipeline at 100 Gbps.
fn replay(trace: String, packets: Vec<Vec<u8>>) -> TraceRow {
    let design = Compiler::new().compile(&leaky_bucket::program()).expect("leaky bucket compiles");
    let mut shell = NicShell::new(&design, ShellOptions::default());
    let n = packets.len();
    let r = shell.run(packets);
    TraceRow {
        trace,
        packets: n,
        lost: r.lost,
        flushes: r.flushes,
        flushes_per_sec: r.flushes_per_sec,
        mpps: r.throughput_pps / 1e6,
    }
}

/// Table 2 on both traces, then §5.3: a CAIDA-shaped trace whose every
/// packet hits one map address.
fn tab2() -> Vec<TraceRow> {
    let traces = [caida_like(TRACE_PACKETS, 7), mawi_like(TRACE_PACKETS, 8)];
    let mut rows = par_map(&traces, |t: &Trace| {
        replay(t.name.clone(), (0..t.len()).map(|i| t.packet(i)).collect())
    });
    let trace = caida_like(TRACE_PACKETS / 4, 9);
    let one_flow = trace.flow_set().flows()[0];
    let single = trace
        .iter()
        .map(|(_, size)| ehdl_traffic::build_flow_packet(&one_flow, [2; 6], [3; 6], size))
        .collect();
    rows.push(replay(format!("{} single address", trace.name), single));
    rows
}

fn tab3() -> Vec<FlushModelRow> {
    let mut rows: Vec<FlushModelRow> = App::ALL
        .iter()
        .map(|&app| analytical::model_design(app.name(), &design_of(app).hazards, ZIPF_FLOWS))
        .collect();
    let lb = Compiler::new().compile(&leaky_bucket::program()).expect("leaky bucket compiles");
    rows.push(analytical::model_design("Leaky_bucket", &lb.hazards, ZIPF_FLOWS));
    rows
}

/// Compile `program` under `options` and measure the design.
fn compiled(config: &str, program: &Program, options: CompilerOptions) -> AblationRow {
    let d = Compiler::with_options(options).compile(program).expect("ablation config compiles");
    let r = resource::estimate_pipeline(&d);
    AblationRow {
        config: config.to_string(),
        stages: d.stage_count(),
        wait_stages: d.framing.wait_stages,
        luts: r.luts,
        ffs: r.ffs,
        brams: r.brams,
    }
}

/// §4.2 microbenchmark: a DPI-style program that reads one byte deep in
/// the payload. The deeper the access and the smaller the frame, the more
/// synthetic wait stages the compiler inserts ("eHDL handles these cases by
/// introducing synthetic NOP stages") and the longer the bypass wiring.
fn deep_payload(offsets: &[i16], frame_sizes: &[usize]) -> Vec<AblationRow> {
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};

    let mut rows = Vec::new();
    for &off in offsets {
        let mut a = Asm::new();
        let drop = a.new_label();
        a.load(MemSize::W, 7, 1, 0);
        a.load(MemSize::W, 8, 1, 4);
        a.mov64_reg(2, 7);
        a.alu64_imm(AluOp::Add, 2, i32::from(off) + 1);
        a.jmp_reg(JmpOp::Jgt, 2, 8, drop);
        a.load(MemSize::B, 0, 7, off); // the deep payload byte
        a.alu64_imm(AluOp::And, 0, 1);
        a.alu64_imm(AluOp::Add, 0, 2);
        a.exit();
        a.bind(drop);
        a.mov64_imm(0, 1);
        a.exit();
        let program = Program::from_insns(a.into_insns());
        for &frame_size in frame_sizes {
            let o = CompilerOptions { frame_size, ..Default::default() };
            rows.push(compiled(&format!("payload byte {off} @ {frame_size}B frames"), &program, o));
        }
    }
    rows
}

/// Flush (the implemented design) measured on a same-flow-heavy stream;
/// then the stall oracle and the flush model at the measured hazard rate.
fn raw_policy() -> Vec<RawPolicyRow> {
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).expect("leaky bucket compiles");
    let mut wl = Workload::new(FlowSet::udp(8, 5), Popularity::Zipf { alpha: 1.0 }, 64, 5);
    let stream = wl.packets(RAW_POLICY_PACKETS);

    let mut vm = Vm::new(&program);
    vm.set_time_ns(1000);
    let reference: Vec<_> =
        stream.iter().map(|p| vm.run(&mut p.clone(), 0).map(|o| o.action)).collect();

    let sim = SimOptions { freeze_time_ns: Some(1000), ..Default::default() };
    let mut shell = NicShell::new(&design, ShellOptions { sim, ..Default::default() });
    let report = shell.run(stream);
    let measured_pf = report.flushes as f64 / report.completed.max(1) as f64;
    let violations = shell
        .drain()
        .iter()
        .enumerate()
        .filter(|(i, o)| reference.get(*i).is_none_or(|r| r.as_ref().ok() != Some(&o.action)))
        .count();
    // A stall inserts L bubbles per hazard instead of refilling K stages,
    // but needs the write address at the read stage (§4.1.2: "only
    // possible if the writing address can be inferred in advance").
    let modelled = |policy: &str, depth: Option<usize>| {
        let d = depth.unwrap_or(0) as f64;
        let pps = analytical::PEAK_PPS / ((1.0 - measured_pf) + d * measured_pf);
        RawPolicyRow { policy: policy.into(), mpps: (pps / 1e6).min(148.8), violations: None }
    };
    vec![
        RawPolicyRow {
            policy: "flush (eHDL)".into(),
            mpps: report.throughput_pps / 1e6,
            violations: Some(violations),
        },
        modelled("stall (oracle)", design.hazards.max_raw_window()),
        modelled("flush (model)", design.hazards.max_flush_depth()),
    ]
}

/// `v` with `decimals` fraction digits, or `null` where the system or
/// parameter does not apply.
fn fixed_or_null(j: &mut Json, v: Option<f64>, decimals: usize) {
    match v {
        Some(v) => j.fixed(v, decimals),
        None => j.null(),
    };
}

/// A count, or `null` where it does not apply.
fn uint_or_null(j: &mut Json, v: Option<usize>) {
    match v {
        Some(v) => j.uint(v as u64),
        None => j.null(),
    };
}

impl Fields for Fig9Row {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(self.app.name());
        j.key("ehdl_mpps").fixed(self.ehdl_mpps, 3);
        j.key("ehdl_latency_ns").fixed(self.ehdl_latency_ns, 1);
        j.key("ehdl_lost").uint(self.ehdl_lost);
        j.key("ehdl_flushes").uint(self.ehdl_flushes);
        fixed_or_null(j.key("sdnet_mpps"), self.sdnet_mpps, 3);
        j.key("hxdp_mpps").fixed(self.hxdp_mpps, 3);
        j.key("hxdp_latency_ns").fixed(self.hxdp_latency_ns, 1);
        j.key("bf2_1c_mpps").fixed(self.bf2_1c_mpps, 3);
        j.key("bf2_4c_mpps").fixed(self.bf2_4c_mpps, 3);
        j.key("vm_insns_min").uint(self.profile.min_insns);
        j.key("vm_insns_mean").fixed(self.profile.per_packet(self.profile.insns), 2);
        j.key("vm_insns_max").uint(self.profile.max_insns);
    }
}

impl Fields for Fig9cRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(self.app.name());
        j.key("stages").uint(self.stages as u64);
        j.key("hxdp_instrs").uint(self.hxdp_instrs as u64);
        j.key("original_instrs").uint(self.original_instrs as u64);
    }
}

impl Fields for Fig10Row {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(self.app.name());
        for (system, u) in
            [("ehdl", Some(self.ehdl)), ("hxdp", Some(self.hxdp)), ("sdnet", self.sdnet)]
        {
            fixed_or_null(j.key(&format!("{system}_luts_pct")), u.map(|u| u.luts * 100.0), 2);
            fixed_or_null(j.key(&format!("{system}_ffs_pct")), u.map(|u| u.ffs * 100.0), 2);
            fixed_or_null(j.key(&format!("{system}_brams_pct")), u.map(|u| u.brams * 100.0), 2);
        }
    }
}

impl Fields for TraceRow {
    fn fields(&self, j: &mut Json) {
        j.key("trace").str(&self.trace);
        j.key("packets").uint(self.packets as u64);
        j.key("lost").uint(self.lost);
        j.key("flushes").uint(self.flushes);
        j.key("flushes_per_sec").fixed(self.flushes_per_sec, 0);
        j.key("mpps").fixed(self.mpps, 3);
    }
}

impl Fields for FlushModelRow {
    fn fields(&self, j: &mut Json) {
        j.key("program").str(&self.program);
        uint_or_null(j.key("k"), self.k);
        uint_or_null(j.key("l"), self.l);
        fixed_or_null(j.key("tp_mpps"), self.throughput_pps.map(|t| t / 1e6), 3);
    }
}

impl Fields for KmaxRow {
    fn fields(&self, j: &mut Json) {
        j.key("l").uint(self.l as u64);
        j.key("p_flush").fixed(self.p_flush, 5);
        j.key("k_max").fixed(self.k_max, 2);
    }
}

impl Fields for IlpRow {
    fn fields(&self, j: &mut Json) {
        j.key("app").str(self.app.name());
        j.key("max").uint(self.max as u64);
        j.key("avg").fixed(self.avg, 4);
    }
}

impl Fields for AblationRow {
    fn fields(&self, j: &mut Json) {
        j.key("config").str(&self.config);
        j.key("stages").uint(self.stages as u64);
        j.key("wait_stages").uint(self.wait_stages as u64);
        j.key("luts").uint(self.luts);
        j.key("ffs").uint(self.ffs);
        j.key("brams").uint(self.brams);
    }
}

impl Fields for RawPolicyRow {
    fn fields(&self, j: &mut Json) {
        j.key("policy").str(&self.policy);
        j.key("mpps").fixed(self.mpps, 3);
        uint_or_null(j.key("violations"), self.violations);
    }
}
