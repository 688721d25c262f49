//! `ehdl` — command-line front-end to the compiler and the simulated NIC.
//!
//! ```sh
//! ehdl list
//! ehdl disasm router
//! ehdl compile suricata --summary
//! ehdl compile firewall --vhdl firewall.vhd
//! ehdl run dnat --packets 20000 --flows 5000
//! ```

use ehdl::core::{resource, vhdl, Compiler, CompilerOptions, Target};
use ehdl::ebpf::disasm;
use ehdl::hwsim::{NicShell, ShellOptions};
use ehdl::programs::App;
use ehdl::traffic::{FlowSet, Popularity, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ehdl list\n  ehdl disasm <app>\n  ehdl emit-obj <app> <file.o>\n  ehdl compile <app|file.o> [--summary] [--vhdl FILE] [--dot FILE] \
         [--frame-size N] [--no-prune] [--no-fusion] [--no-parallelize] [--keep-bounds-checks]\n  \
         ehdl run <app> [--packets N] [--flows N] [--size BYTES]\n\napps: firewall router tunnel dnat suricata"
    );
    ExitCode::from(2)
}

fn app_of(name: &str) -> Option<App> {
    match name.to_lowercase().as_str() {
        "firewall" => Some(App::Firewall),
        "router" => Some(App::Router),
        "tunnel" => Some(App::Tunnel),
        "dnat" => Some(App::Dnat),
        "suricata" => Some(App::Suricata),
        _ => None,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Resolve an app name or a `.o` path into a program.
fn program_of(arg: &str) -> Option<ehdl::ebpf::Program> {
    if let Some(app) = app_of(arg) {
        return Some(app.program());
    }
    if std::path::Path::new(arg).exists() {
        let bytes = std::fs::read(arg).ok()?;
        match ehdl::ebpf::elf::load(&bytes) {
            Ok(p) => return Some(p),
            Err(e) => {
                eprintln!("cannot load {arg}: {e}");
                return None;
            }
        }
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    match cmd.as_str() {
        "emit-obj" => {
            let (Some(app), Some(path)) = (args.get(1).and_then(|n| app_of(n)), args.get(2)) else {
                return usage();
            };
            let object = ehdl::ebpf::elf::write(&app.program());
            if let Err(e) = std::fs::write(path, object) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("BPF ELF object written to {path}");
            ExitCode::SUCCESS
        }
        "list" => {
            println!("bundled eBPF/XDP applications (Table 1 of the paper):");
            for app in App::ALL {
                let p = app.program();
                println!(
                    "  {:10} {:3} instructions, {} maps",
                    app.name().to_lowercase(),
                    p.insn_count(),
                    p.maps.len()
                );
            }
            ExitCode::SUCCESS
        }
        "disasm" => {
            let Some(app) = args.get(1).and_then(|n| app_of(n)) else { return usage() };
            print!("{}", disasm::disassemble(&app.program()));
            ExitCode::SUCCESS
        }
        "compile" => {
            let Some(program) = args.get(1).and_then(|n| program_of(n)) else { return usage() };
            let mut opts = CompilerOptions::default();
            if let Some(fs) = flag_value(&args, "--frame-size") {
                match fs.parse() {
                    Ok(v) => opts.frame_size = v,
                    Err(_) => return usage(),
                }
            }
            opts.prune = !args.iter().any(|a| a == "--no-prune");
            opts.fusion = !args.iter().any(|a| a == "--no-fusion");
            opts.parallelize = !args.iter().any(|a| a == "--no-parallelize");
            opts.elide_bounds_checks = !args.iter().any(|a| a == "--keep-bounds-checks");

            let design = match Compiler::with_options(opts).compile(&program) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("compile error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let util = resource::estimate_with_shell(&design).utilization(Target::ALVEO_U50);
            println!(
                "{}: {} insns -> {} hw insns -> {} stages | ILP max {} avg {:.2} | \
                 {} FEB, {} WAR buffers, {} atomic blocks | U50: {:.1}% LUT {:.1}% FF {:.1}% BRAM",
                design.name,
                design.stats.source_insns,
                design.stats.hw_insns,
                design.stage_count(),
                design.stats.ilp.max,
                design.stats.ilp.avg,
                design.hazards.febs.len(),
                design.hazards.war_buffers.len(),
                design.hazards.atomic_stages.len(),
                util.luts * 100.0,
                util.ffs * 100.0,
                util.brams * 100.0,
            );
            if args.iter().any(|a| a == "--summary") {
                print!("{}", design.summary());
            }
            if let Some(path) = flag_value(&args, "--vhdl") {
                let hdl = vhdl::emit(&design);
                if let Err(e) = std::fs::write(&path, hdl) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("VHDL written to {path}");
            }
            if let Some(path) = flag_value(&args, "--dot") {
                if let Err(e) = std::fs::write(&path, design.to_dot()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("graphviz written to {path}");
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(app) = args.get(1).and_then(|n| app_of(n)) else { return usage() };
            let packets: usize =
                flag_value(&args, "--packets").and_then(|v| v.parse().ok()).unwrap_or(20_000);
            let flows: usize =
                flag_value(&args, "--flows").and_then(|v| v.parse().ok()).unwrap_or(10_000);
            let size: usize =
                flag_value(&args, "--size").and_then(|v| v.parse().ok()).unwrap_or(64);
            let program = app.program();
            let design = match Compiler::new().compile(&program) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("compile error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut shell = NicShell::new(&design, ShellOptions::default());
            // Minimal host setup so every app forwards something.
            let maps = shell.sim_mut().maps_mut();
            match app {
                App::Router => {
                    ehdl::programs::router::install_route(maps, [0; 4], 0, 1, [0xaa; 6], [0x02; 6]);
                }
                App::Tunnel => {
                    ehdl::programs::tunnel::install_endpoint(
                        maps,
                        [192, 168, 0, 0],
                        [172, 16, 0, 1],
                        [172, 16, 0, 2],
                        [0xaa; 6],
                        [0xbb; 6],
                    );
                }
                _ => {}
            }
            let flowset = match app {
                App::Suricata => FlowSet::tcp(flows, 1),
                _ => FlowSet::udp(flows, 1),
            };
            let mut wl = Workload::new(flowset, Popularity::Uniform, size.max(64), 2);
            let stream: Vec<Vec<u8>> = wl.packets(packets);
            let report = shell.run(stream);
            println!(
                "{}: offered {} pkts ({} B, {} flows) @ 100GbE",
                app.name(),
                report.offered,
                size.max(64),
                flows
            );
            println!(
                "  throughput {:.1} Mpps | avg latency {:.0} ns (p99 {:.0}) | lost {} | flushes {}",
                report.throughput_pps / 1e6,
                report.avg_latency_ns,
                report.p99_latency_ns,
                report.lost,
                report.flushes
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
