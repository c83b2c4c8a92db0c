#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Runs every table and figure in sequence (the paper's full evaluation),
//! then Fig. 7's TLB miss anatomy on the paper's Pentium III TLB geometry
//! (32-entry 4-way I-TLB, 64-entry 4-way D-TLB). Figs 6–9 are not re-run
//! on that geometry: every one of their sub-runs is cycle- and
//! counter-identical on both, which `tests/performance_shape.rs` pins.
//!
//! Every section is wall-clock timed, raw interpreter throughput is probed
//! with tracing off and on, and the lot is written to
//! `BENCH_summary.json` (override the path with `BENCH_SUMMARY_PATH`) so
//! CI can archive per-commit performance data. Takes no arguments. A
//! summary path that cannot be written fails before the first section,
//! with exit status 1.
//!
//! Host-dependent lines (the throughput probes, snapshot MB/s, section
//! timings and the summary path) go to stderr. Stdout holds only
//! simulated results, identical at any `RAYON_NUM_THREADS`, and is pinned
//! by `tests/golden/all_experiments.txt`.
use sm_bench::chaos::{self, Scenario};
use sm_bench::summary::BenchSummary;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;
use std::time::Instant;

fn main() {
    sm_bench::cli::checked_args("all_experiments", "usage: all_experiments", &[], &[]);
    let path = std::env::var("BENCH_SUMMARY_PATH").unwrap_or_else(|_| "BENCH_summary.json".into());
    sm_bench::cli::check_writable("all_experiments", &path);
    let mut summary = BenchSummary::default();
    let t_total = Instant::now();

    summary.section("table1", || {
        println!("==== Table 1 ====================================================\n");
        let t1 = sm_bench::table1::run();
        println!("{}", sm_bench::table1::render(&t1));
        println!("matches paper: {}\n", t1.matches_paper());
    });

    summary.section("table2", || {
        println!("==== Table 2 ====================================================\n");
        let t2 = sm_bench::table2::run();
        println!("{}", sm_bench::table2::render(&t2));
        println!("matches paper: {}\n", t2.matches_paper());
    });

    let matrix_rows = summary.section("attack-matrix", || {
        println!("==== Engine x attack matrix (§7 scope boundary) =================\n");
        let m = sm_bench::matrix::run();
        println!("{}", sm_bench::matrix::render(&m));
        let violations = m.violations();
        if violations.is_empty() {
            println!("matches expectations: true\n");
        } else {
            println!("matches expectations: FALSE");
            for v in &violations {
                println!("  {v}");
            }
            println!();
        }
        m.cells
            .iter()
            .map(|c| sm_bench::summary::MatrixRow {
                attack: c.attack.name(),
                engine: c.engine.clone(),
                shell: c.outcome.succeeded(),
                detections: c.detections as u64,
            })
            .collect::<Vec<_>>()
    });
    summary.attack_matrix = matrix_rows;

    summary.section("fig5", || {
        println!("==== Fig. 5 =====================================================\n");
        let f5 = sm_bench::fig5::run();
        println!("{}", sm_bench::fig5::render(&f5));
    });

    summary.section("fig6", || {
        println!("==== Fig. 6 =====================================================\n");
        let f6 = sm_bench::fig6::run(sm_bench::fig6::Fig6Params::default());
        println!("{}", sm_bench::fig6::render(&f6));
    });

    summary.section("fig7", || {
        println!("==== Fig. 7 =====================================================\n");
        let f7 = sm_bench::fig7::run(60);
        println!("{}", sm_bench::fig7::render(&f7));
    });

    summary.section("fig8", || {
        println!("==== Fig. 8 =====================================================\n");
        let f8 = sm_bench::fig8::run(30);
        println!("{}", sm_bench::fig8::render(&f8));
    });

    summary.section("fig9", || {
        println!("==== Fig. 9 =====================================================\n");
        let f9 = sm_bench::fig9::run(50, 8);
        println!("{}", sm_bench::fig9::render(&f9));
    });

    summary.section("memory", || {
        println!("==== Memory overhead (§5.1) =====================================\n");
        let mem = sm_bench::memory::run(4096, 25);
        println!("{}", sm_bench::memory::render(&mem));
    });

    summary.section("ablations", || {
        println!("==== Ablations ==================================================\n");
        let itlb = sm_bench::ablation::itlb_loader(60);
        let sens = sm_bench::ablation::trap_cost_sensitivity(60);
        let soft = sm_bench::ablation::softtlb_port(60);
        println!("{}", sm_bench::ablation::render_all(&itlb, &sens, &soft));
    });

    let counters = summary.section("interference", || {
        println!("==== Cross-process interference (fork + COW) ====================\n");
        let split = Protection::SplitMem(ResponseMode::Break);
        let seeds = [1u64];
        for (mode, asid) in [("flush-on-switch", false), ("asid-tagged", true)] {
            let swept = chaos::sweep(
                &seeds,
                &[Scenario::Interference { asid }],
                &split,
                TlbPreset::default(),
                chaos::perturbation_plans,
            );
            let detected = swept.iter().filter(|c| c.run.detections > 0).count();
            let stable = swept.iter().all(|c| c.verdict_stable);
            println!(
                "split({mode}): {detected}/{} combos detected the injection, verdicts stable: {stable}",
                swept.len()
            );
        }
        let c = sm_bench::interference::probe(&split, false);
        println!(
            "fault-free run: {} context switches, {} COW breaks, {} detections",
            c.context_switches, c.cow_breaks, c.detections
        );
        for p in &c.processes {
            println!(
                "  pid {} ({:<8}) user_cycles={} exit={:?}",
                p.pid, p.role, p.user_cycles, p.exit_code
            );
        }
        println!();
        c
    });
    summary.interference = Some(counters);

    summary.section("fig7-pentium3", || {
        println!("==== Fig. 7 (pentium3 geometry) =================================\n");
        let diags = sm_bench::fig7::tlb_diagnostics(TlbPreset::pentium3(), 60);
        println!("{}", sm_bench::fig7::render_diagnostics(&diags));
    });

    println!("==== Interpreter throughput =====================================\n");
    for (name, trace) in [("probe-cache-on", false), ("probe-trace-on", true)] {
        let p = summary.section(name, || sm_bench::summary::steps_probe(trace));
        eprintln!(
            "trace {:>3}: {:.2} Minsn/s ({} insns in {:.1} ms; dc_hits={} dc_misses={} trace_events={} sb_hits={} sb_builds={} sb_invalidations={} sb_slow={})",
            if trace { "on" } else { "off" },
            p.steps_per_sec / 1e6,
            p.instructions,
            p.wall_ms,
            p.dcache.hits,
            p.dcache.misses,
            p.trace_events,
            p.sblocks.hits,
            p.sblocks.builds,
            p.sblocks.invalidations,
            p.sblocks.slow_steps,
        );
        summary.probes.push(p);
    }
    println!();

    println!("==== Verified run (fig6 Apache workload) ========================\n");
    let verified = summary.section("fig6-verified", sm_bench::fig6::verified_run);
    println!(
        "split(break), checked every {} cycles: exit {:?}, {} violations, {} trace records emitted, {} dropped",
        sm_bench::fig6::VERIFIED_STRIDE,
        verified.exit,
        verified.violations,
        verified.emitted,
        verified.dropped
    );
    println!();

    println!("==== Fleet simulation (multi-tenant) ============================\n");
    let fleet = summary.section("fleet", || {
        let cfg = sm_bench::fleet::FleetConfig {
            tenants: 120,
            requests_per_tenant: 4,
            ..sm_bench::fleet::FleetConfig::default()
        };
        let t0 = Instant::now();
        let result = sm_bench::fleet::run(&cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let serial = sm_bench::fleet::run_serial(&cfg);
        let identical = result.render() == serial.render()
            && result.render_tenants() == serial.render_tenants();
        print!("{}", result.render());
        let all = result.merged_latency();
        let (detected, attempts) = result.detection();
        sm_bench::summary::FleetProbe {
            tenants: cfg.tenants,
            cells: cfg.cells(),
            completed: result.completed(),
            dropped: result.dropped(),
            p50: all.percentile(50),
            p95: all.percentile(95),
            p99: all.percentile(99),
            req_per_mcycle: result.req_per_mcycle(),
            detected,
            attempts,
            degradations: result.degradations(),
            duration_cycles: result.duration_cycles,
            wall_ms,
            identical,
        }
    });
    println!(
        "fleet: p99={} cycles, {} req/Mcycle, detection {}/{}, parallel vs serial {}",
        fleet.p99,
        fleet.req_per_mcycle,
        fleet.detected,
        fleet.attempts,
        if fleet.identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    summary.fleet = Some(fleet);
    println!();

    println!("==== Snapshot save/restore throughput ===========================\n");
    let snap = summary.section("probe-snapshot", || sm_bench::summary::snapshot_probe(25));
    eprintln!(
        "snapshot: {} bytes; save {:.1} MB/s, restore {:.1} MB/s ({} iterations, {:.1}/{:.1} ms)",
        snap.snapshot_bytes,
        snap.save_mb_per_sec,
        snap.restore_mb_per_sec,
        snap.iterations,
        snap.save_ms,
        snap.restore_ms,
    );
    summary.snapshot = Some(snap);
    println!();

    summary.total_wall_ms = t_total.elapsed().as_secs_f64() * 1e3;
    println!("==== Section timings ============================================\n");
    for s in &summary.sections {
        eprintln!("  {:<18} {:>10.1} ms", s.name, s.wall_ms);
    }
    eprintln!("  {:<18} {:>10.1} ms", "total", summary.total_wall_ms);
    println!();

    sm_bench::cli::write_artifact("all_experiments", &path, summary.to_json().as_bytes());
    eprintln!("wrote {path}");
}
