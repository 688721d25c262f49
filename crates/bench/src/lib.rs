//! Shared measurement harness for the evaluation benches.
//!
//! Every table and figure of the paper's §5 has a `regenerate` function
//! here returning structured rows; the `benches/` targets print them in
//! the paper's layout, and integration tests assert the qualitative shape
//! (who wins, by roughly what factor). The eight campaign modules beyond
//! the paper are recorded as `BENCH_*.json` and checked for equality: see
//! [`record`].

#![deny(clippy::unwrap_used)]

pub mod absint;
pub mod chaos;
pub mod fault_campaign;
pub mod flush_opt;
pub mod record;
pub mod runtime_ops;
pub mod scale_out;
pub mod shardcheck;
pub mod slo;

use ehdl_baselines::{hxdp, sdnet, BluefieldModel, HxdpModel, SdnetCompiler};
use ehdl_core::{analytical, resource, Compiler, CompilerOptions, PipelineDesign, Target};
use ehdl_hwsim::diff::AllocatedField;
use ehdl_hwsim::{NicShell, ShellOptions, SimOptions};
use ehdl_net::{FiveTuple, IPPROTO_UDP};
use ehdl_programs::{dnat, leaky_bucket, toy_counter, App};
use ehdl_traffic::{caida_like, mawi_like, FlowSet, Popularity, Trace, Workload};

/// Flows offered in the §5.1 end-to-end tests.
pub const EVAL_FLOWS: usize = 10_000;
/// Packets per throughput measurement (smaller than the testbed's
/// minute-long runs, large enough for steady state).
pub const EVAL_PACKETS: usize = 40_000;

/// Map `f` over `items` with one scoped thread per item.
///
/// The evaluation fan-out: apps (or traces) are fully independent — each
/// owns its compiler, simulator and map state — so every row of a figure
/// regenerates concurrently. Results come back in item order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|it| scope.spawn(move || f(it))).collect();
        handles.into_iter().map(|h| h.join().expect("evaluation worker panicked")).collect()
    })
}

/// Compile one application with default options.
pub fn design_of(app: App) -> PipelineDesign {
    Compiler::new().compile(&app.program()).expect("evaluation app compiles")
}

/// Build the §5.1 traffic sample for an app: 10k flows, 64 B packets.
pub fn eval_packets(app: App, n: usize) -> Vec<Vec<u8>> {
    let flows = match app {
        App::Suricata => FlowSet::tcp(EVAL_FLOWS, 42),
        _ => FlowSet::udp(EVAL_FLOWS, 42),
    };
    let mut wl = Workload::new(flows, Popularity::Uniform, 64, 43);
    wl.packets(n)
}

/// Host-side map setup per app (routes, endpoints, ACLs).
pub fn setup_app(app: App, maps: &mut ehdl_ebpf::maps::MapStore) {
    match app {
        App::Router => {
            ehdl_programs::router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
            ehdl_programs::router::install_route(
                maps,
                [192, 168, 0, 0],
                16,
                2,
                [0xbb; 6],
                [0x02; 6],
            );
        }
        App::Tunnel => {
            for i in 0..32u8 {
                ehdl_programs::tunnel::install_endpoint(
                    maps,
                    [192, 168, i, i],
                    [172, 16, 0, 1],
                    [172, 16, 0, 2],
                    [0xaa; 6],
                    [0xbb; 6],
                );
            }
        }
        App::Suricata => {
            let flows = FlowSet::tcp(EVAL_FLOWS, 42);
            for f in flows.flows().iter().take(64) {
                ehdl_programs::suricata::install_rule(maps, f);
            }
        }
        App::Firewall | App::Dnat => {}
    }
}

/// What an app's differential check exempts from exact comparison: the
/// maps whose final contents may legitimately drift, and the allocated
/// output field checked by its invariant instead. For DNAT a flush skips a
/// port the sequential reference hands out, so the allocator runs ahead
/// and the bindings store other ports; the translated source port must
/// instead be in range, stable per flow and distinct across flows.
pub fn exemptions(app: App) -> (Vec<u32>, Option<AllocatedField>) {
    if app != App::Dnat {
        return (Vec::new(), None);
    }
    let port = AllocatedField {
        bytes: 34..36,
        values: u64::from(dnat::PORT_BASE)..u64::from(dnat::PORT_BASE + dnat::PORT_RANGE),
        flow: |p| {
            let f = FiveTuple::parse(p).filter(|f| f.proto == IPPROTO_UDP)?;
            Some(f.to_key().to_vec())
        },
    };
    (vec![dnat::CONN_MAP, dnat::PORT_ALLOC_MAP], Some(port))
}

/// One measured end-to-end run of an app on the simulated NIC.
#[derive(Debug, Clone)]
pub struct EhdlRun {
    /// Application.
    pub app: App,
    /// The compiled design.
    pub stages: usize,
    /// Throughput in Mpps at 64 B line rate offered load.
    pub mpps: f64,
    /// Mean latency in nanoseconds.
    pub latency_ns: f64,
    /// Packets lost (0 = line rate sustained).
    pub lost: u64,
    /// Flush events.
    pub flushes: u64,
}

/// Run one app end-to-end at 100 Gbps line rate.
pub fn run_ehdl(app: App, packets: usize) -> EhdlRun {
    let design = design_of(app);
    let mut shell = NicShell::new(&design, ShellOptions::default());
    setup_app(app, shell.sim_mut().maps_mut());
    let report = shell.run(eval_packets(app, packets));
    EhdlRun {
        app,
        stages: design.stage_count(),
        mpps: report.throughput_pps / 1e6,
        latency_ns: report.avg_latency_ns,
        lost: report.lost,
        flushes: report.flushes,
    }
}

/// Figure 9a row: throughput of every system on one app.
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Application.
    pub app: App,
    /// eHDL pipeline (Mpps).
    pub ehdl_mpps: f64,
    /// SDNet P4 (Mpps; `None` = not expressible).
    pub sdnet_mpps: Option<f64>,
    /// hXDP (Mpps).
    pub hxdp_mpps: f64,
    /// BlueField-2, one core (Mpps).
    pub bf2_1c_mpps: f64,
    /// BlueField-2, four cores (Mpps).
    pub bf2_4c_mpps: f64,
}

/// Regenerate Figure 9a (one worker thread per app).
pub fn fig9a(packets: usize) -> Vec<Fig9aRow> {
    par_map(&App::ALL, |&app| {
        let run = run_ehdl(app, packets);
        let sample = baseline_sample(app);
        let program = app.program();
        let hxdp = HxdpModel::new().evaluate(&program, &sample).expect("hxdp model");
        let bf1 = BluefieldModel::new(1).evaluate(&program, &sample).expect("bf2 model");
        let bf4 = BluefieldModel::new(4).evaluate(&program, &sample).expect("bf2 model");
        let sdnet = SdnetCompiler::new().compile(&sdnet::spec_for(app)).ok();
        Fig9aRow {
            app,
            ehdl_mpps: run.mpps,
            sdnet_mpps: sdnet.map(|d| d.pps / 1e6),
            hxdp_mpps: hxdp.pps / 1e6,
            bf2_1c_mpps: bf1.pps / 1e6,
            bf2_4c_mpps: bf4.pps / 1e6,
        }
    })
}

/// A pre-warmed sample for the processor baselines: steady-state paths
/// with maps already populated.
fn baseline_sample(app: App) -> Vec<Vec<u8>> {
    eval_packets(app, 64)
}

/// Figure 9b row: forwarding latency.
#[derive(Debug, Clone)]
pub struct Fig9bRow {
    /// Application.
    pub app: App,
    /// eHDL pipeline latency (ns).
    pub ehdl_ns: f64,
    /// hXDP latency (ns).
    pub hxdp_ns: f64,
}

/// Regenerate Figure 9b (one worker thread per app).
pub fn fig9b(packets: usize) -> Vec<Fig9bRow> {
    par_map(&App::ALL, |&app| {
        let run = run_ehdl(app, packets);
        let hxdp =
            HxdpModel::new().evaluate(&app.program(), &baseline_sample(app)).expect("hxdp model");
        Fig9bRow { app, ehdl_ns: run.latency_ns, hxdp_ns: hxdp.latency_ns }
    })
}

/// Figure 9c row: pipeline depth vs instruction counts.
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

/// Regenerate Figure 9c.
pub fn fig9c() -> Vec<Fig9cRow> {
    App::ALL
        .iter()
        .map(|&app| {
            let program = app.program();
            let design = design_of(app);
            Fig9cRow {
                app,
                stages: design.stage_count(),
                hxdp_instrs: hxdp::optimized_instruction_count(&program),
                original_instrs: program.insn_count(),
            }
        })
        .collect()
}

/// Figure 10 row: FPGA utilisation (fractions of the Alveo U50, shell
/// included, like the paper's plots).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Application.
    pub app: App,
    /// eHDL utilisation.
    pub ehdl: resource::Utilization,
    /// hXDP utilisation (constant across apps).
    pub hxdp: resource::Utilization,
    /// SDNet utilisation (`None` = not expressible).
    pub sdnet: Option<resource::Utilization>,
}

/// Regenerate Figure 10.
pub fn fig10() -> Vec<Fig10Row> {
    let shell = resource::ResourceEstimate {
        luts: resource::cost::SHELL_LUTS,
        ffs: resource::cost::SHELL_FFS,
        brams: resource::cost::SHELL_BRAMS,
    };
    let hxdp_u = hxdp::resources().plus(shell).utilization(Target::ALVEO_U50);
    App::ALL
        .iter()
        .map(|&app| {
            let design = design_of(app);
            let ehdl = resource::estimate_with_shell(&design).utilization(Target::ALVEO_U50);
            let sdnet = SdnetCompiler::new()
                .compile(&sdnet::spec_for(app))
                .ok()
                .map(|d| d.resources.plus(shell).utilization(Target::ALVEO_U50));
            Fig10Row { app, ehdl, hxdp: hxdp_u, sdnet }
        })
        .collect()
}

/// Table 2 row: leaky bucket under a realistic trace.
#[derive(Debug, Clone)]
pub struct Tab2Row {
    /// Trace name.
    pub trace: String,
    /// Packets replayed.
    pub packets: usize,
    /// Packets lost.
    pub lost: u64,
    /// Flush events per second at 100 Gbps replay.
    pub flushes_per_sec: f64,
}

/// Replay a trace through the leaky-bucket pipeline at 100 Gbps.
pub fn run_trace(trace: &Trace) -> Tab2Row {
    let design = Compiler::new().compile(&leaky_bucket::program()).expect("leaky bucket compiles");
    let mut shell = NicShell::new(&design, ShellOptions::default());
    let packets: Vec<Vec<u8>> = (0..trace.len()).map(|i| trace.packet(i)).collect();
    let report = shell.run(packets);
    Tab2Row {
        trace: trace.name.clone(),
        packets: trace.len(),
        lost: report.lost,
        flushes_per_sec: report.flushes_per_sec,
    }
}

/// Regenerate Table 2 (plus the §5.3 single-flow degradation check).
pub fn tab2(packets: usize) -> (Vec<Tab2Row>, f64) {
    let traces = [caida_like(packets, 7), mawi_like(packets, 8)];
    let rows = par_map(&traces, run_trace);
    // §5.3: same trace shape but every packet hitting one map address.
    let design = Compiler::new().compile(&leaky_bucket::program()).expect("compiles");
    let mut shell = NicShell::new(&design, ShellOptions::default());
    let trace = caida_like(packets / 4, 9);
    let one_flow = trace.flow_set().flows()[0];
    let single: Vec<Vec<u8>> = trace
        .iter()
        .map(|(_, sz)| ehdl_traffic::build_flow_packet(&one_flow, [2; 6], [3; 6], sz))
        .collect();
    let single_report = shell.run(single);
    (rows, single_report.throughput_pps / 1e6)
}

/// Regenerate Table 3: per-app analytical flush parameters.
pub fn tab3(n_flows: usize) -> Vec<analytical::FlushModelRow> {
    let mut rows: Vec<analytical::FlushModelRow> = App::ALL
        .iter()
        .map(|&app| analytical::model_design(app.name(), &design_of(app).hazards, n_flows))
        .collect();
    let lb = Compiler::new().compile(&leaky_bucket::program()).expect("compiles");
    rows.push(analytical::model_design("Leaky_bucket", &lb.hazards, n_flows));
    rows
}

/// Regenerate Table 4: `K_max` sustaining 148 Mpps for L = 2..=5.
pub fn tab4(n_flows: usize) -> Vec<(usize, f64, f64)> {
    (2..=5)
        .map(|l| {
            let pf = analytical::p_flush_zipf(l, n_flows);
            let k = analytical::k_max(analytical::PEAK_PPS, 148e6, pf);
            (l, pf, k)
        })
        .collect()
}

/// Regenerate Table 5: ILP per app.
pub fn tab5() -> Vec<(App, usize, f64)> {
    App::ALL
        .iter()
        .map(|&app| {
            let d = design_of(app);
            (app, d.stats.ilp.max, d.stats.ilp.avg)
        })
        .collect()
}

/// §5.4: resource impact of disabling state pruning on the Listing-1
/// pipeline (pipeline-only, no shell). Returns `(pruned, unpruned)`.
pub fn sec54() -> (resource::ResourceEstimate, resource::ResourceEstimate) {
    let program = toy_counter::program();
    let pruned = Compiler::new().compile(&program).expect("compiles");
    let unpruned = Compiler::with_options(CompilerOptions { prune: false, ..Default::default() })
        .compile(&program)
        .expect("compiles");
    (resource::estimate_pipeline(&pruned), resource::estimate_pipeline(&unpruned))
}

/// Ablation: compare design metrics across compiler options for one app.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Pipeline stages.
    pub stages: usize,
    /// Frame-wait stages inserted.
    pub wait_stages: usize,
    /// Pipeline LUTs (no shell).
    pub luts: u64,
    /// Pipeline FFs (no shell).
    pub ffs: u64,
    /// Pipeline latency at 250 MHz, ns (stages x 4).
    pub latency_ns: f64,
}

/// Sweep compiler options over an app's program.
pub fn ablation(app: App, configs: &[(&str, CompilerOptions)]) -> Vec<AblationRow> {
    let program = app.program();
    configs
        .iter()
        .map(|(label, opts)| {
            let d = Compiler::with_options(*opts).compile(&program).expect("compiles");
            let r = resource::estimate_pipeline(&d);
            AblationRow {
                config: (*label).to_string(),
                stages: d.stage_count(),
                wait_stages: d.framing.wait_stages,
                luts: r.luts,
                ffs: r.ffs,
                latency_ns: d.stage_count() as f64 * 4.0,
            }
        })
        .collect()
}

/// RAW-policy ablation: measure the flush policy against a stall-style
/// oracle and against no protection at all, on a same-flow-heavy stream.
#[derive(Debug, Clone)]
pub struct RawPolicyRow {
    /// Policy name.
    pub policy: String,
    /// Achieved Mpps.
    pub mpps: f64,
    /// Consistency violations detected (vs the sequential reference).
    pub violations: usize,
}

/// Run the flush-policy ablation on the leaky bucket.
pub fn ablation_raw_policy(packets: usize) -> Vec<RawPolicyRow> {
    use ehdl_ebpf::vm::Vm;
    let program = leaky_bucket::program();
    let design = Compiler::new().compile(&program).expect("compiles");
    let flows = FlowSet::udp(8, 5);
    let mut wl = Workload::new(flows, Popularity::Zipf { alpha: 1.0 }, 64, 5);
    let stream: Vec<Vec<u8>> = wl.packets(packets);

    // Sequential reference actions.
    let mut vm = Vm::new(&program);
    vm.set_time_ns(1000);
    let reference: Vec<_> =
        stream.iter().map(|p| vm.run(&mut p.clone(), 0).map(|o| o.action)).collect();

    let mut rows = Vec::new();
    // Policy 1: flush (the implemented design), measured in the simulator.
    let measured_pf;
    {
        let mut shell = NicShell::new(
            &design,
            ShellOptions {
                sim: SimOptions { freeze_time_ns: Some(1000), ..Default::default() },
                ..Default::default()
            },
        );
        let report = shell.run(stream.clone());
        measured_pf = report.flushes as f64 / report.completed.max(1) as f64;
        let outs = shell.drain();
        let violations = outs
            .iter()
            .enumerate()
            .filter(|(i, o)| {
                reference.get(*i).map(|r| r.as_ref().ok() != Some(&o.action)).unwrap_or(true)
            })
            .count();
        rows.push(RawPolicyRow {
            policy: "flush (eHDL)".into(),
            mpps: report.throughput_pps / 1e6,
            violations,
        });
    }
    // Policy 2: stall oracle — on each hazard it inserts only L bubbles
    // instead of refilling K stages, but needs the write address known at
    // the read stage (§4.1.2: "only possible if the writing address can be
    // inferred in advance"). Modelled with the *measured* hazard rate so
    // the policies are compared on identical traffic.
    {
        let l = design.hazards.max_raw_window().unwrap_or(0) as f64;
        let mpps = analytical::PEAK_PPS / ((1.0 - measured_pf) + l * measured_pf) / 1e6;
        rows.push(RawPolicyRow {
            policy: "stall (oracle)".into(),
            mpps: mpps.min(148.8),
            violations: 0,
        });
    }
    // Policy 3: the flush cost predicted by the same analytical model, for
    // reference against the measured row.
    {
        let k = design.hazards.max_flush_depth().unwrap_or(0) as f64;
        let mpps = analytical::PEAK_PPS / ((1.0 - measured_pf) + k * measured_pf) / 1e6;
        rows.push(RawPolicyRow {
            policy: "flush (model)".into(),
            mpps: mpps.min(148.8),
            violations: 0,
        });
    }
    rows
}

/// §4.2 microbenchmark: a DPI-style program that reads one byte deep in
/// the payload. The deeper the access and the smaller the frame, the more
/// synthetic wait stages the compiler inserts ("eHDL handles these cases by
/// introducing synthetic NOP stages") and the longer the bypass wiring.
pub fn ablation_deep_payload(offsets: &[i16], frame_sizes: &[usize]) -> Vec<AblationRow> {
    use ehdl_ebpf::asm::Asm;
    use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
    use ehdl_ebpf::Program;

    let mut rows = Vec::new();
    for &off in offsets {
        for &frame in frame_sizes {
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
            let d =
                Compiler::with_options(CompilerOptions { frame_size: frame, ..Default::default() })
                    .compile(&program)
                    .expect("dpi probe compiles");
            let r = resource::estimate_pipeline(&d);
            rows.push(AblationRow {
                config: format!("payload byte {off} @ {frame}B frames"),
                stages: d.stage_count(),
                wait_stages: d.framing.wait_stages,
                luts: r.luts,
                ffs: r.ffs,
                latency_ns: d.stage_count() as f64 * 4.0,
            });
        }
    }
    rows
}

/// Render a Markdown-ish table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out += &fmt_row(headers.iter().map(|s| s.to_string()).collect(), &widths);
    out += &fmt_row(widths.iter().map(|w| "-".repeat(*w)).collect(), &widths);
    for r in rows {
        out += &fmt_row(r.clone(), &widths);
    }
    out
}

/// Format Mpps with one decimal.
pub fn mpps(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a utilisation fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}
