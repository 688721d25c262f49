//! Recorded results: one test per `BENCH_*.json` at the repository root.
//!
//! Each test runs its deterministic measurement, asserts the claims the
//! recording stands for, then compares the rendering with the file *for
//! equality* (`ehdl_bench::record`). The four long ones are `#[ignore]`d
//! (10-30 s each in a debug build); `scripts/check.sh` runs them in a
//! release build. Re-record after an intended change with
//! [`RERECORD`](ehdl_bench::record::RERECORD).

use ehdl::programs::App;
use ehdl_bench::record::{check_at, Record, RERECORD};
use ehdl_bench::{
    absint, chaos, fault_campaign, flush_opt, paper, runtime_ops, scale_out, shardcheck, slo,
};

/// Compare `record` with `BENCH_<name>.json`; fail the calling test with
/// the diff.
fn check(name: &str, record: Record) {
    record.check(name).unwrap_or_else(|diff| panic!("{diff}"));
}

#[test]
fn absint_proves_the_packet_accesses_of_every_app() {
    let rows = absint::measure();
    for r in &rows {
        // Hard floor from the evaluation: at least 80% of packet
        // accesses proven on every example app.
        assert!(
            r.proven_fraction() >= 0.8,
            "{}: only {}/{} packet accesses proven",
            r.app,
            r.proven_accesses,
            r.packet_accesses
        );
        assert!(
            r.luts <= r.luts_baseline,
            "{}: analysis must never cost LUTs ({} vs {})",
            r.app,
            r.luts,
            r.luts_baseline
        );
    }
    check("absint", Record::default().rows("apps", &rows));
}

#[test]
fn shardcheck_classifies_the_zoo_and_agrees_with_the_dynamic_checker() {
    let rows = shardcheck::measure();
    for r in &rows {
        // An `OpaqueRmw` demotion would force hand-written sharding
        // configs back in.
        assert_eq!(r.sound_maps, r.maps, "{}: maps left unclassified", r.app);
        assert_eq!(
            r.agreement_failures, 0,
            "{}: {} of {} static verdicts contradicted dynamically",
            r.app, r.agreement_failures, r.agreement_checks
        );
        assert!(r.agreement_checks >= 2 * r.maps, "{}: agreement runs missing", r.app);
    }
    let diagnostics = shardcheck::diagnostics_exercised();
    assert_eq!(diagnostics, 4, "every ShardError variant fires on the unsound configs");
    let record = Record::default().rows("apps", &rows);
    check("shardcheck", record.uint("diagnostics_exercised", diagnostics as u64));
}

#[test]
fn slo_campaign_meets_its_targets() {
    let r = slo::measure();
    let (o, c, k, l) = (&r.overall, &r.reactor.coalesce, &r.kill, &r.lossy);
    assert!(
        o.availability >= slo::TARGET_AVAILABILITY,
        "serving availability {:.4} fell below the target",
        o.availability
    );
    assert!(
        o.op_p999_cycles <= slo::OP_P999_BOUND_CYCLES,
        "op p999 latency {} cy exceeds the bound",
        o.op_p999_cycles
    );
    assert!(r.swaps >= 1, "the reload phase completed no live swap");
    assert!(
        c.ops_out < c.ops_in && c.updates_collapsed + c.lookups_shared > 0,
        "coalescing ineffective: {} ops in -> {} out ({} collapsed, {} shared)",
        c.ops_in,
        c.ops_out,
        c.updates_collapsed,
        c.lookups_shared
    );
    assert_eq!(k.detected, 1, "kill storm: one kill, one detection");
    assert_eq!(k.drained_unrecovered, 0, "kill storm: punted frames left after the host retry");
    assert!(
        k.availability >= slo::KILL_AVAILABILITY_FLOOR,
        "kill-storm availability {:.4} below the floor",
        k.availability
    );
    assert_eq!(
        k.offered,
        k.completed + k.drained_unrecovered + k.discarded,
        "kill storm: silent loss"
    );
    assert_eq!((l.gave_up, l.lost_acked), (0, 0), "lossy channel: exactly-once broken");
    assert!(l.retries > 0, "lossy channel: 10% loss produced no retransmissions");
    check("slo", Record::default().rows("phases", &r.phases).fields(&r));
}

#[test]
fn chaos_every_failure_is_detected_and_every_packet_accounted() {
    let rows = chaos::measure_all_faults();
    let floor = (chaos::CHAOS_REPLICAS as f64 - 1.0) / chaos::CHAOS_REPLICAS as f64 - 0.05;
    for r in &rows {
        let at = format!("{}/{}", r.app, r.scenario);
        assert_eq!(r.detected + r.masked, r.injected, "{at}: injected failures unaccounted");
        assert!(
            r.detection_latency_max <= chaos::WATCHDOG_BUDGET,
            "{at}: detection latency {} cy exceeds the watchdog budget",
            r.detection_latency_max
        );
        assert_eq!(
            r.packets as u64,
            r.completed + r.lost + r.dropped,
            "{at}: silent loss — every packet completes, drains, is discarded or rejected"
        );
        if r.scenario == "kill1" {
            assert!(
                r.availability >= floor,
                "{at}: availability {:.4} below the {floor:.4} single-kill floor",
                r.availability
            );
        }
    }
    let ctrl = chaos::measure_ctrl();
    for c in &ctrl {
        let at = format!("ctrl loss {:.0}%", c.loss_rate * 100.0);
        assert_eq!(c.gave_up, 0, "{at}: ops abandoned — exactly-once broken");
        assert!(c.reference_identical, "{at}: retried ops diverged from the lossless reference");
        assert_eq!(c.completed_ops, c.ops, "{at}: ops never completed");
        assert_eq!(c.retries > 0, c.loss_rate > 0.0, "{at}: loss must force retransmissions");
    }
    check("chaos", Record::default().rows("entries", &rows).rows("ctrl", &ctrl));
}

#[test]
fn fault_campaign_protection_covers_and_the_watchdog_recovers() {
    let rows = fault_campaign::run();
    for r in rows.iter().filter(|r| !r.hang) {
        let at = format!("{} {} rate={}", r.app, r.protect, r.rate);
        if r.protect != "none" {
            assert!(r.clean, "{at}: diverges on packets no fault touched");
        }
        if r.protect == "ecc+watchdog" {
            assert!(r.coverage >= 0.99 || r.effective == 0, "{at}: coverage {:.3}", r.coverage);
            assert_eq!(r.silent, 0, "{at}: faults corrupt silently");
            assert_eq!(r.missing, 0, "{at}: packets lost without recovery");
        }
    }
    // Negative control: the unprotected designs must visibly corrupt —
    // otherwise the campaign is not biting.
    assert!(
        rows.iter().any(|r| {
            !r.hang
                && r.protect == "none"
                && r.silent > 0
                && (r.map_corrupted || !r.clean || !r.map_clean)
        }),
        "no unprotected run shows observable corruption"
    );
    // The watchdog must recover what an unwatched hang destroys.
    for app in fault_campaign::APPS {
        let hang = |protect: &str| {
            rows.iter()
                .find(|r| r.hang && r.app == app.name() && r.protect == protect)
                .unwrap_or_else(|| panic!("{} {protect}: no hang row", app.name()))
        };
        let (none, wd) = (hang("none"), hang("ecc+watchdog"));
        assert!(
            wd.availability > none.availability && wd.watchdog_resets > 0,
            "the watchdog does not restore {} availability",
            app.name()
        );
    }
    check("fault_campaign", Record::default().rows("points", &rows));
}

#[test]
#[ignore = "20k-packet schedules: ~30 s in a debug build; scripts/check.sh runs it in release"]
fn runtime_ops_swap_and_op_latency() {
    let r = runtime_ops::measure(20_000);
    assert!(r.swap_downtime_cycles > 0, "swap reported zero downtime (not measured?)");
    check("runtime", Record::default().rows("scenarios", &r.scenarios).fields(&r));
}

#[test]
#[ignore = "sweep: ~11 s in a debug build; scripts/check.sh runs it in release"]
fn scale_out_four_replicas_deliver_2_5x() {
    let rows = scale_out::measure_all();
    let firewall_uniform = |replicas: usize| {
        rows.iter()
            .find(|r| r.app == "Firewall" && r.workload == "uniform" && r.replicas == replicas)
            .unwrap_or_else(|| panic!("the sweep covers Firewall/uniform/r{replicas}"))
            .pkts_per_cycle
    };
    // The scale-out headroom the sharded driver exists to buy.
    let speedup = firewall_uniform(4) / firewall_uniform(1);
    assert!(speedup >= 2.5, "uniform firewall 4-replica speedup {speedup:.2}x below 2.5x");
    for r in rows.iter().filter(|r| r.workload == "uniform") {
        // RX overflow on a balanced load is a feeding or drain bug.
        assert_eq!(r.dropped, 0, "{}/uniform/r{}: RX drops", r.app, r.replicas);
    }
    check("scale_out", Record::default().rows("entries", &rows));
}

#[test]
#[ignore = "sweep: ~21 s in a debug build; scripts/check.sh runs it in release"]
fn flush_opt_partial_flushes_gain_and_match_the_model() {
    let rows = flush_opt::run();
    for r in &rows {
        let at = format!("{} flows={} alpha={}", r.app, r.flows, r.alpha);
        assert!(r.identical, "{at}: diverges from the VM");
        assert!(r.base_dev_pct <= 10.0, "{at}: base run {:.1}% off the model", r.base_dev_pct);
        assert!(r.opt_dev_pct <= 10.0, "{at}: opt run {:.1}% off the model", r.opt_dev_pct);
    }
    let headline = rows
        .iter()
        .find(|r| r.app == "DNAT" && r.flows == 10_000 && r.alpha == 1.0)
        .expect("headline DNAT point present");
    assert!(headline.gain_pct >= 20.0, "headline DNAT gain {:.1}% < 20%", headline.gain_pct);
    check("flush_opt", Record::default().rows("points", &rows));
}

/// The paper's §5 figures and tables: the shape each one claims (who wins,
/// by roughly what factor), then the exact values EXPERIMENTS.md quotes.
#[test]
#[ignore = "Fig. 9 and Table 2 at the quoted sizes: ~15 s in a debug build; scripts/check.sh runs it in release"]
fn paper_figures_and_tables_keep_their_shape() {
    let p = paper::measure();
    for r in &p.fig9 {
        let app = r.app;
        // Fig. 9a: eHDL holds 100 GbE line rate at 64 B on every app and
        // loses nothing; hXDP sits in the paper's 0.9-5.4 band, >= 10x
        // below; the BlueField-2 core is comparable-or-faster than hXDP
        // and four cores scale roughly linearly; SDNet cannot express
        // DNAT's data-plane table write.
        assert!((140.0..155.0).contains(&r.ehdl_mpps), "{app}: eHDL {:.1} Mpps", r.ehdl_mpps);
        assert_eq!(r.ehdl_lost, 0, "{app}: eHDL lost packets at line rate");
        assert!((0.9..5.4).contains(&r.hxdp_mpps), "{app}: hXDP {:.1} Mpps", r.hxdp_mpps);
        assert!(r.ehdl_mpps / r.hxdp_mpps >= 10.0, "{app}: eHDL vs hXDP");
        assert!(r.bf2_1c_mpps >= r.hxdp_mpps * 0.8, "{app}: Bf2 1c vs hXDP");
        let cores = r.bf2_4c_mpps / r.bf2_1c_mpps;
        assert!((3.0..4.01).contains(&cores), "{app}: Bf2 4c/1c {cores:.2}");
        assert_eq!(r.sdnet_mpps.is_none(), app == App::Dnat, "{app}: SDNet N/A only on DNAT");
        // The VM replay the baselines are charged from checks the run:
        // every packet retired, each as the VM has it.
        assert_eq!(r.missing, 0, "{app}: packets the pipeline never retired");
        let shown: Vec<String> = r.divergences.iter().take(4).map(|d| d.to_string()).collect();
        assert!(r.divergences.is_empty(), "{app}: {} diverge: {shown:?}", r.divergences.len());
        // Fig. 9b: both about one microsecond. eHDL's latency is its
        // depth, hXDP's the path a packet executes: the pipeline is the
        // faster one on every app but Suricata, whose pipeline is the
        // deepest (87 stages) while its uniform traffic over 10k flows
        // rarely matches one of the 64 rules, so every packet executes
        // 41-44 of its 124 instructions.
        let (e, h) = (r.ehdl_latency_ns, r.hxdp_latency_ns);
        assert!((500.0..1500.0).contains(&e), "{app}: eHDL {e:.0} ns");
        assert!((600.0..2000.0).contains(&h), "{app}: hXDP {h:.0} ns");
        assert_eq!(e < h, app != App::Suricata, "{app}: eHDL {e:.0} ns vs hXDP {h:.0} ns");
    }
    for r in &p.fig9c {
        // Both toolchains shrink the program; ILP puts several optimized
        // instructions in one stage.
        assert!(r.hxdp_instrs < r.original_instrs, "{}: hXDP instrs", r.app);
        assert!(r.stages <= r.hxdp_instrs, "{}: stages vs hXDP instrs", r.app);
        assert!(r.stages >= r.original_instrs / 4, "{}: implausibly few stages", r.app);
    }
    for r in &p.fig10 {
        // The paper's 6.5-13.3 % LUT band with a little slack, within 1.5x
        // of hXDP either way, 2-4x below SDNet where it is expressible.
        assert!((0.06..0.14).contains(&r.ehdl.luts), "{}: {:.3} LUTs", r.app, r.ehdl.luts);
        let vs_hxdp = r.ehdl.luts / r.hxdp.luts;
        assert!((0.5..1.5).contains(&vs_hxdp), "{}: vs hXDP {vs_hxdp:.2}", r.app);
        if let Some(sdnet) = r.sdnet {
            let vs_sdnet = sdnet.luts / r.ehdl.luts;
            assert!((1.8..4.5).contains(&vs_sdnet), "{}: vs SDNet {vs_sdnet:.2}", r.app);
        }
    }
    let [caida, mawi, single] = &p.tab2[..] else { panic!("Table 2 has three rows") };
    for t in [caida, mawi] {
        // Realistic flow mixes flush, and the pipeline absorbs it.
        assert_eq!(t.lost, 0, "{}: lost packets at 100 Gbps replay", t.trace);
        assert!(t.flushes_per_sec > 0.0, "{}: realistic traces flush", t.trace);
    }
    assert!(caida.flushes > mawi.flushes, "smaller CAIDA packets flush more");
    // §5.3: all packets on one map address fall below the 29 Mpps trace
    // line rate the CAIDA replay sustains.
    assert!(single.mpps < 29.0 && single.mpps < caida.mpps, "§5.3: {:.1} Mpps", single.mpps);
    for r in &p.tab3 {
        // Lookup->update windows give finite K and L; programs whose only
        // cross-packet state is atomic counters never flush.
        let windowed = ["Firewall", "DNAT", "Leaky_bucket"].contains(&r.program.as_str());
        assert_eq!(r.k.is_some() && r.l.is_some(), windowed, "{}: K/L", r.program);
    }
    let paper_kmax = [(2, 61.0), (3, 21.0), (4, 11.0), (5, 7.0)];
    assert_eq!(p.tab4.len(), paper_kmax.len());
    for (r, (l, k)) in p.tab4.iter().zip(paper_kmax) {
        assert_eq!(r.l, l);
        assert!((r.k_max - k).abs() / k < 0.45, "L={l}: K_max {:.0} vs paper {k}", r.k_max);
    }
    for r in &p.tab5 {
        assert!((1.1..2.5).contains(&r.avg), "{}: avg ILP {:.2}", r.app, r.avg);
        assert!((2..=8).contains(&r.max), "{}: max ILP {}", r.app, r.max);
    }
    let [pruned, unpruned] = &p.sec54[..] else { panic!("§5.4 has two rows") };
    assert!(unpruned.luts as f64 >= pruned.luts as f64 * 1.2, "§5.4: pruning saves LUTs");
    assert!(unpruned.ffs as f64 >= pruned.ffs as f64 * 1.3, "§5.4: pruning saves FFs");
    assert!(unpruned.brams >= pruned.brams, "§5.4: pruning never costs BRAM");
    let [flush, _stall, model] = &p.raw_policy[..] else { panic!("three RAW policies") };
    assert_eq!(flush.violations, Some(0), "the flush policy is exact");
    assert!(flush.mpps > model.mpps, "measured flushing beats the model's worst case");

    let record = Record::default()
        .rows("fig9", &p.fig9)
        .rows("fig9c", &p.fig9c)
        .rows("fig10", &p.fig10)
        .rows("tab2", &p.tab2)
        .rows("tab3", &p.tab3)
        .rows("tab4", &p.tab4)
        .rows("tab5", &p.tab5)
        .rows("sec54", &p.sec54)
        .rows("ablation_passes", &p.passes)
        .rows("ablation_frame_size", &p.frame_size)
        .rows("ablation_deep_payload", &p.deep_payload)
        .rows("ablation_raw_policy", &p.raw_policy);
    check("paper", record);
}

/// The spine itself: a one-digit drift fails and says where, a missing
/// recording fails, neither is written unless asked.
#[test]
fn check_names_the_drifted_line_and_refuses_a_missing_recording() {
    let dir = std::env::temp_dir().join(format!("ehdl-recorded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let recorded = "{\n  \"rows\": [\n    {\"luts\": 21353},\n    {\"luts\": 28779}\n  ]\n}\n";
    let missing = check_at(&dir, "spine", recorded, false).expect_err("nothing recorded yet");
    assert!(missing.contains("BENCH_spine.json") && missing.contains(RERECORD), "{missing}");
    assert!(!dir.join("BENCH_spine.json").exists(), "a check never writes");

    check_at(&dir, "spine", recorded, true).expect("recording");
    check_at(&dir, "spine", recorded, false).expect("equal to its recording");
    let drift = check_at(&dir, "spine", &recorded.replace("28779", "28778"), false)
        .expect_err("one digit moved");
    for part in ["BENCH_spine.json line 4", "{\"luts\": 28779}", "{\"luts\": 28778}", RERECORD] {
        assert!(drift.contains(part), "missing {part:?} in:\n{drift}");
    }
    let truncated = check_at(&dir, "spine", "{\n", false).expect_err("rows missing");
    assert!(truncated.contains("line 2") && truncated.contains("<end of file>"), "{truncated}");
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
}

/// No orphan, no skip: every `BENCH_*.json` at the repository root is
/// checked by exactly one test above, and every check names a file that
/// exists.
#[test]
fn every_recording_is_owned_by_exactly_one_test() {
    let mut on_disk: Vec<String> = std::fs::read_dir(env!("CARGO_MANIFEST_DIR"))
        .expect("repository root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|f| Some(f.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
        .collect();
    on_disk.sort();
    // Every call of the helper above with a literal name, in this file.
    let mut checked: Vec<&str> = include_str!("recorded.rs")
        .split(concat!("check", "("))
        .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
        .collect();
    checked.sort_unstable();
    assert_eq!(checked, on_disk, "checked recordings vs BENCH_*.json at the repository root");
}

/// EXPERIMENTS.md quotes Fig. 9a and 9b as `BENCH_paper.json` records
/// them: each "here" cell is the recorded value at the precision the
/// column prints (Mpps to 1 decimal, ns whole, the mean path to 2).
#[test]
fn experiments_quotes_fig9_as_recorded() {
    let doc = include_str!("../EXPERIMENTS.md");
    let bench = include_str!("../BENCH_paper.json");
    let fig9 = bench.split("\"fig9\": [").nth(1).and_then(|r| r.split("\n  ],").next());
    let fig9 = fig9.expect("BENCH_paper.json has fig9 rows");
    type Columns<'a> = &'a [(&'a str, &'a [(&'a str, i32)])];
    const PATH: &[(&str, i32)] = &[("vm_insns_min", 0), ("vm_insns_mean", 2), ("vm_insns_max", 0)];
    let tables: [(&str, Columns); 2] = [
        (
            "## Figure 9a",
            &[
                ("eHDL here", &[("ehdl_mpps", 1)]),
                ("SDNet paper / here", &[("sdnet_mpps", 1)]),
                ("hXDP here", &[("hxdp_mpps", 1)]),
                ("Bf2 1c paper / here", &[("bf2_1c_mpps", 1)]),
                ("Bf2 4c paper / here", &[("bf2_4c_mpps", 1)]),
                ("VM path min / mean / max", PATH),
            ],
        ),
        (
            "## Figure 9b",
            &[
                ("eHDL here", &[("ehdl_latency_ns", 0)]),
                ("hXDP here", &[("hxdp_latency_ns", 0)]),
                ("VM path min / mean / max", PATH),
            ],
        ),
    ];
    let cells = |line: &'static str| -> Vec<&'static str> {
        line.trim().trim_matches('|').split('|').map(str::trim).collect()
    };
    for (heading, columns) in tables {
        let section = doc.split(heading).nth(1).unwrap_or_else(|| panic!("no {heading}"));
        let mut lines = section.lines().skip_while(|l| !l.starts_with('|'));
        let header = cells(lines.next().expect("a table header"));
        let rows: Vec<_> = lines.skip(1).take_while(|l| l.starts_with('|')).map(cells).collect();
        assert_eq!(rows.len(), App::ALL.len(), "{heading}: one row per app");
        for row in &rows {
            let app = row[0];
            let recorded = fig9.lines().find(|l| l.contains(&format!("\"app\": \"{app}\"")));
            let recorded = recorded.unwrap_or_else(|| panic!("{heading}: no recorded {app}"));
            for &(column, fields) in columns {
                let at = header.iter().position(|h| *h == column);
                let cell = row[at.unwrap_or_else(|| panic!("{heading}: no {column:?}"))];
                let parts: Vec<&str> = cell.trim_matches('*').split(" / ").collect();
                let here = &parts[parts.len().saturating_sub(fields.len())..];
                assert_eq!(here.len(), fields.len(), "{heading} {app} {column}: {cell:?}");
                for (&text, &(field, decimals)) in here.iter().zip(fields) {
                    let value = recorded.split(&format!("\"{field}\": ")).nth(1);
                    let value = value.and_then(|v| v.split([',', '}']).next()).unwrap_or("");
                    let printed = text.split_once('.').map_or(0, |(_, f)| f.len() as i32);
                    let quoted = match (text.parse::<f64>(), value.parse::<f64>()) {
                        (Ok(t), Ok(v)) => {
                            printed == decimals
                                && (t - v).abs() <= 0.5 / 10f64.powi(decimals) + 1e-9
                        }
                        _ => (text, value) == ("N/A", "null"),
                    };
                    assert!(
                        quoted,
                        "{heading} {app} {column}: quoted {text}, recorded {field} {value}"
                    );
                }
            }
        }
    }
}
