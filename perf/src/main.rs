//! `ehdl-perf`: the repository benchmark. See `perf/README.md`.
//!
//! ```text
//! perf/run.sh [--seed N] [--seconds S] [--trace] [--smoke]     all six workloads, interleaved
//! perf/run.sh --workload NAME --seed N --seconds S --trace 0|1 one workload (the driver's form)
//! perf/run.sh --describe                                       print BENCHMARK.json
//! perf/run.sh --list                                           print every metric's definition
//! ```
//!
//! One process, one thread. Every workload generates its inputs from the
//! seed, runs one warm-up unit whose outputs are checked against the
//! reference VM, then measures units round-robin until the time budget
//! is spent. A unit is a cold set-up followed by a timed section over
//! the same inputs, so every unit must reproduce the same simulated
//! numbers bit for bit; host times are medians over the units.

mod alloc;
mod clock;
mod json;
mod metrics;
mod stats;
mod toolchain;
mod trace;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, summarize, Summary};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Check, LayerSamples, Layers, Scale, Sim, Unit, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Cold set-ups behind every `setup_s` (the measured units add more).
const SETUP_SAMPLES: usize = 21;
/// Measured units per workload below which a run does not stop.
const MIN_UNITS: usize = 3;
/// Where `result.json` and the span files go, relative to the checkout.
const OUT_DIR: &str = "perf/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    describe: bool,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        describe: false,
        list: false,
    };
    let mut explicit_seconds = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                explicit_seconds = true;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {} is out of range", args.seconds));
                }
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--describe" => args.describe = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && !explicit_seconds {
        args.seconds = 0.0; // one measured unit per workload
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// One workload's measurements as they accumulate.
struct Lane {
    name: &'static str,
    workload: Box<dyn Workload>,
    reference: Sim,
    check: Check,
    setups: Vec<f64>,
    units: Vec<Unit>,
    traced: Vec<Unit>,
    layers: LayerSamples,
    tracer: Tracer,
    /// Reasons the run is not correct (empty = correct).
    problems: Vec<String>,
}

impl Lane {
    /// Generate inputs, warm up with one unit, and check its outputs.
    fn open(name: &'static str, seed: u64, scale: Scale) -> Lane {
        let mut workload = workloads::build(name, seed, scale).expect("registered workload");
        let (warm, _) = workload.unit();
        let check = workload.check();
        let mut problems = Vec::new();
        if check.mismatches > 0 {
            problems.push(format!(
                "{} of {} checked outputs differ from the oracle; first: {}",
                check.mismatches,
                check.checked,
                check.first.as_deref().unwrap_or("?")
            ));
        }
        Lane {
            name,
            workload,
            reference: warm.sim,
            check,
            setups: Vec::new(),
            units: Vec::new(),
            traced: Vec::new(),
            layers: LayerSamples::default(),
            tracer: Tracer::new(),
            problems,
        }
    }

    /// A unit's simulated numbers must equal the warm-up's, bit for bit.
    fn admit(&mut self, unit: &Unit, kind: &str) {
        if unit.sim != self.reference {
            self.problems.push(format!(
                "{kind} unit diverged from the first: {:?} vs {:?}",
                unit.sim, self.reference
            ));
        }
    }

    /// One round: an untraced unit, and a traced one when tracing.
    fn round(&mut self, trace: bool) {
        let (unit, setup_s) = self.workload.unit();
        self.admit(&unit, "untraced");
        self.setups.push(setup_s);
        self.units.push(unit);
        if trace {
            let unit = self.workload.traced_unit(&mut self.tracer, &mut self.layers);
            self.admit(&unit, "traced");
            self.traced.push(unit);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn attempted(&self) -> u64 {
        self.units.iter().map(|u| u.attempted).sum::<u64>() + self.check.checked
    }

    fn failed(&self) -> u64 {
        self.units.iter().map(|u| u.failed).sum::<u64>() + self.check.mismatches
    }

    /// End-to-end values, with the spread of the host-time ones.
    fn end_to_end(&self) -> Vec<(&'static MetricDef, f64, Option<Summary>)> {
        let rates: Vec<f64> = self.units.iter().map(|u| u.items as f64 / u.host_s).collect();
        let s = &self.reference;
        let (luts, ffs) = self.workload.design_totals();
        END_TO_END
            .iter()
            .map(|def| {
                let (value, summary) = match def.name {
                    "setup_s" => (median(&self.setups), Some(summarize(&self.setups))),
                    "host_items_per_s" => (median(&rates), Some(summarize(&rates))),
                    "sim_items_per_kcycle" => (s.items as f64 * 1e3 / s.cycles.max(1) as f64, None),
                    "sim_latency_avg_cycles" => (s.lat_avg, None),
                    "sim_latency_p99_cycles" => (s.lat_p99 as f64, None),
                    "design_luts_sum" => (luts as f64, None),
                    "design_ffs_sum" => (ffs as f64, None),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (def, value, summary)
            })
            .collect()
    }

    /// Per-layer values; a metric this workload never sampled reads 0.
    fn per_layer(&self) -> Vec<(&'static MetricDef, f64)> {
        let mut values: Layers = self.layers.layers();
        values.insert("ebpf.vm_ns_per_pkt", self.check.vm_ns_per_pkt);
        values.insert("traffic.gen_ns_per_pkt", self.workload.gen_ns_per_item());
        if !self.traced.is_empty() {
            let cpu = |units: &[Unit]| median(&units.iter().map(|u| u.host_s).collect::<Vec<_>>());
            values.insert("trace.overhead_frac", cpu(&self.traced) / cpu(&self.units) - 1.0);
        }
        for name in values.keys() {
            assert!(metrics::find(name).is_some(), "sampled metric {name} is not declared");
        }
        PER_LAYER.iter().map(|def| (def, values.get(def.name).copied().unwrap_or(0.0))).collect()
    }
}

/// Run `names` round-robin for `seconds` each.
fn measure(names: &[&'static str], args: &Args) -> Vec<Lane> {
    let scale = Scale { div: if args.smoke { 50 } else { 1 } };
    let mut lanes: Vec<Lane> = names
        .iter()
        .map(|&name| {
            eprintln!("[{name}] generating inputs, warm-up unit, output check");
            Lane::open(name, args.seed, scale)
        })
        .collect();
    for lane in &mut lanes {
        while lane.setups.len() < SETUP_SAMPLES {
            let s = lane.workload.setup_sample();
            lane.setups.push(s);
        }
    }
    let min_units = if args.smoke { 1 } else { MIN_UNITS };
    let budget = Duration::from_secs_f64(args.seconds * lanes.len() as f64);
    let start = Instant::now();
    loop {
        for lane in &mut lanes {
            lane.round(args.trace);
        }
        let enough = lanes.iter().all(|l| l.units.len() >= min_units);
        if enough && start.elapsed() >= budget {
            return lanes;
        }
    }
}

fn print_lane(lane: &Lane, trace: bool) {
    println!(
        "\n== {} ==  units {}  checked {} (mismatches {})  attempted {}  failed {}  {}",
        lane.name,
        lane.units.len(),
        lane.check.checked,
        lane.check.mismatches,
        lane.attempted(),
        lane.failed(),
        if lane.correct() { "correct" } else { "NOT CORRECT" }
    );
    for p in &lane.problems {
        println!("   problem: {p}");
    }
    for (def, value, summary) in lane.end_to_end() {
        let spread = summary.map_or(String::new(), |s| {
            format!(
                "   n {} min {:.6} q1 {:.6} median {:.6} q3 {:.6} iqr {:.1}%",
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                (s.q3 - s.q1) / s.median * 100.0
            )
        });
        println!(
            "  {:<24} {:>16.6} {:<12} {:<6} bound {:>4.0}%{}",
            def.name,
            value,
            def.unit,
            def.better.word(),
            def.bound * 100.0,
            spread
        );
    }
    if trace {
        for (def, value) in lane.per_layer() {
            println!("  {:<32} {:>16.4} {:<12} {}", def.name, value, def.unit, def.better.word());
        }
        println!("  self time by span (traced units):");
        for (name, ns, calls) in lane.tracer.self_ns_by_name().into_iter().take(12) {
            println!("    {name:<28} {:>10.3} ms  {calls:>10} calls", ns as f64 / 1e6);
        }
    }
}

/// Every workload's reason and every metric's definition.
fn print_definitions() {
    println!("workloads");
    for w in WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    for (title, defs) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        println!("{title}");
        for m in defs {
            println!("  {:<30} {:<12} {:<6} {}", m.name, m.unit, m.better.word(), m.what);
        }
    }
}

/// The driver's result line for one workload.
fn result_line(lane: &Lane, trace: bool) -> String {
    let mut j = Json::compact();
    j.begin_obj();
    j.key("correct").bool(lane.correct());
    j.key("attempted").uint(lane.attempted().max(1));
    j.key("failed").uint(lane.failed());
    j.key("metrics").begin_obj();
    let values: Vec<(&MetricDef, f64)> = if trace {
        lane.per_layer()
    } else {
        lane.end_to_end().into_iter().map(|(d, v, _)| (d, v)).collect()
    };
    for (def, value) in values {
        j.key(def.name).begin_obj().key("value").num(value).key("unit").str(def.unit).end_obj();
    }
    j.end_obj().end_obj();
    j.finish()
}

/// `result.json`: provenance header plus everything measured.
fn result_document(lanes: &[Lane], args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut j = Json::pretty();
    j.begin_obj();
    j.key("nproc").uint(nproc);
    j.key("rustc").str(&env("EHDL_PERF_RUSTC"));
    j.key("commit").str(&env("EHDL_PERF_COMMIT"));
    j.key("seed").uint(args.seed);
    j.key("seconds_per_workload").num(args.seconds);
    j.key("smoke").bool(args.smoke);
    j.key("trace").bool(args.trace);
    j.key("workloads").begin_arr();
    for lane in lanes {
        j.begin_obj();
        j.key("name").str(lane.name);
        j.key("correct").bool(lane.correct());
        j.key("attempted").uint(lane.attempted());
        j.key("failed").uint(lane.failed());
        j.key("units").uint(lane.units.len() as u64);
        j.key("unit_host_s").begin_arr();
        for u in &lane.units {
            j.num(u.host_s);
        }
        j.end_arr();
        j.key("problems").begin_arr();
        for p in &lane.problems {
            j.str(p);
        }
        j.end_arr();
        j.key("end_to_end").begin_obj();
        for (def, value, summary) in lane.end_to_end() {
            j.key(def.name).begin_obj();
            j.key("value").num(value).key("unit").str(def.unit);
            j.key("better").str(def.better.word()).key("bound").num(def.bound);
            if let Some(s) = summary {
                j.key("n").uint(s.n as u64).key("min").num(s.min);
                j.key("q1").num(s.q1).key("median").num(s.median).key("q3").num(s.q3);
            }
            j.end_obj();
        }
        j.end_obj();
        if args.trace {
            j.key("per_layer").begin_obj();
            for (def, value) in lane.per_layer() {
                j.key(def.name).begin_obj().key("value").num(value).key("unit").str(def.unit);
                j.end_obj();
            }
            j.end_obj();
        }
        j.end_obj();
    }
    j.end_arr().end_obj();
    j.finish()
}

fn write_outputs(lanes: &[Lane], args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    // A single-workload run keeps its own result file, so the six driver
    // runs of one checkout do not overwrite each other.
    let result = match &args.workload {
        Some(w) => format!("{OUT_DIR}/result-{w}.json"),
        None => format!("{OUT_DIR}/result.json"),
    };
    std::fs::write(result, result_document(lanes, args))?;
    if args.trace {
        for lane in lanes {
            let path = format!("{OUT_DIR}/trace-{}.json", lane.name);
            std::fs::write(path, lane.tracer.to_json(lane.name))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ehdl-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.list {
        print_definitions();
        return ExitCode::SUCCESS;
    }
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|d| d.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    println!(
        "ehdl-perf  seed {}  {} s per workload  trace {}  smoke {}  nproc {}",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let lanes = measure(&names, &args);
    for lane in &lanes {
        print_lane(lane, args.trace);
    }
    if let Err(e) = write_outputs(&lanes, &args) {
        eprintln!("ehdl-perf: writing {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let all_correct = lanes.iter().all(Lane::correct);
    match lanes.as_slice() {
        [lane] if args.workload.is_some() => println!("{}", result_line(lane, args.trace)),
        _ => {
            let mut j = Json::compact();
            j.begin_obj().key("correct").bool(all_correct);
            j.key("attempted").uint(lanes.iter().map(Lane::attempted).sum());
            j.key("failed").uint(lanes.iter().map(Lane::failed).sum());
            j.key("workloads").uint(lanes.len() as u64).end_obj();
            println!("{}", j.finish());
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_bare_trace_flag() {
        let a = parse("--workload fw_line_rate --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fw_line_rate"), 9, 3.0, true)
        );
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().smoke);
        assert_eq!(parse("").unwrap().seconds, metrics::RUN_SECONDS as f64);
        assert_eq!(parse("--smoke").unwrap().seconds, 0.0);
        assert_eq!(parse("--smoke --seconds 2").unwrap().seconds, 2.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in ["--workload nope", "--seed x", "--seconds -1", "--seconds", "--frobnicate"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Every declared metric is emitted, and nothing undeclared is: run
    /// each workload once at a tiny size in both modes and compare the
    /// result line's keys with the registry.
    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let args = Args {
            workload: None,
            seed: 3,
            seconds: 0.0,
            trace: true,
            smoke: true,
            describe: false,
            list: false,
        };
        for w in WORKLOADS {
            let mut lane = Lane::open(w.name, args.seed, Scale { div: 200 });
            lane.round(true);
            assert!(lane.correct(), "{}: {:?}", w.name, lane.problems);
            let e2e: Vec<&str> = lane.end_to_end().iter().map(|(d, ..)| d.name).collect();
            assert_eq!(e2e, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
            for (def, value, _) in lane.end_to_end() {
                assert!(value.is_finite() && value > 0.0, "{} {} = {value}", w.name, def.name);
            }
            let layers = lane.per_layer();
            assert_eq!(layers.len(), PER_LAYER.len());
            assert!(layers.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
            for trace in [false, true] {
                let line = result_line(&lane, trace);
                let declared = if trace { PER_LAYER } else { END_TO_END };
                for def in declared {
                    assert!(
                        line.contains(&format!("\"{}\": {{\"value\": ", def.name)),
                        "{}",
                        def.name
                    );
                }
                assert_eq!(line.matches("\"value\": ").count(), declared.len());
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}
