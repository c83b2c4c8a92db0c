#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Chaos sweep runner: seeds × fault plans × scenarios, asserting that
//! protection verdicts survive every deterministic fault stream.
//!
//! By default every applicable cell of the Wilander technique × location
//! matrix is swept (20 cells + the benign loop); `--quick` restores the
//! reduced pre-matrix scenario set for time-budgeted CI runs. Combos run
//! in parallel (pin `RAYON_NUM_THREADS` for a fixed thread count); output
//! order is deterministic either way.
//!
//! Exits non-zero on any verdict mismatch, invariant violation, or
//! attack success under injected faults.
//!
//! `--trace` arms the trace subsystem: a canonical traced run is always
//! written to `chaos_trace_sample.jsonl` (CI schema-validates it), and any
//! failing combo is re-run serially with all trace layers enabled, its
//! event tail dumped to `chaos_trace.jsonl` plus a replayable checkpoint
//! dump per combo (`chaos_dump_<n>.smcdump`).
//!
//! `--dump-demo <path>` runs one canonical seeded detection combo under a
//! checkpointing, snapshot-faulting plan and writes its dump — the
//! artifact `--replay` consumes. `--replay <path>` restores a dump,
//! re-runs it from the checkpoint, and exits non-zero unless the original
//! verdict reproduces and the trace tail splices byte-identically.
//! Adding `--stop-seq <seq>` time-travels instead: the run stops as soon
//! as the tracer reaches that sequence number and prints the tail.

use sm_attacks::wilander::{self, InjectLocation, Technique};
use sm_bench::chaos::{self, Scenario};
use sm_bench::cli;
use sm_bench::interference;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::RunExit;
use sm_machine::trace::mask;
use sm_machine::TlbPreset;
use std::collections::HashMap;

/// A failing combo queued for a traced re-run.
struct FailedCombo {
    scenario: String,
    plan: &'static str,
    seed: u64,
    protection: Protection,
    tlb: TlbPreset,
}

/// The reduced pre-matrix scenario set: one wilander column per technique
/// (on the stack) plus the FuncPtrVariable row across locations.
fn quick_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![Scenario::Benign];
    for technique in Technique::ALL {
        let case = wilander::Case {
            technique,
            location: InjectLocation::Stack,
        };
        if case.applicable() {
            scenarios.push(Scenario::Wilander(case));
        }
    }
    for location in InjectLocation::ALL {
        let case = wilander::Case {
            technique: Technique::FuncPtrVariable,
            location,
        };
        if case.applicable() && location != InjectLocation::Stack {
            scenarios.push(Scenario::Wilander(case));
        }
    }
    scenarios
}

/// Every applicable cell of the Wilander matrix (ROADMAP's full 20-cell
/// sweep) plus the benign loop.
fn full_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![Scenario::Benign];
    scenarios.extend(
        wilander::all_cases()
            .into_iter()
            .filter(wilander::Case::applicable)
            .map(Scenario::Wilander),
    );
    scenarios
}

const USAGE: &str = "usage: chaos [--quick] [--trace]
       chaos --fleet
       chaos --replay <dump.smcdump> [--stop-seq <seq>]
       chaos --dump-demo <out.smcdump>";

/// A malformed command line: every arg-parsing failure funnels here
/// (never a panic — the replay path handles untrusted files and must
/// fail with a diagnostic and a nonzero exit however it is misused).
fn usage_error(msg: &str) -> i32 {
    eprintln!("chaos: {msg}");
    eprintln!("{USAGE}");
    2
}

/// A fatal runtime error (a missing internal table entry; I/O refusals go
/// through [`cli::write_artifact`]): diagnostic plus nonzero exit, never a
/// panic — this binary's failure modes are part of its CLI contract.
fn fatal(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(1);
}

/// Parse the flag's value argument, rejecting a missing value or another
/// flag in value position.
fn flag_value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// `--fleet`: chaos scenarios at fleet scale — fork-storm churn, an OOM
/// ramp under real memory pressure, and a mid-run shard kill healed by
/// snapshot restore. Every scenario must come back with clean invariants,
/// a clean trace ordering, full attacker detection and zero executed
/// payloads; failures dump the full fleet report as an artifact and exit
/// non-zero.
fn fleet_scenarios() -> i32 {
    use sm_bench::fleet::{self, FleetConfig, Mix};
    let mut failures = 0usize;

    let base = FleetConfig {
        tenants: 40,
        shards: 2,
        requests_per_tenant: 4,
        trace: true,
        check_invariants: true,
        ..FleetConfig::default()
    };

    let mut run_scenario = |name: &str, cfg: &FleetConfig, expect_degradations: bool| {
        let result = fleet::run(cfg);
        let mut bad: Vec<String> = Vec::new();
        if !result.violations.is_empty() {
            bad.push(format!("{} invariant violations", result.violations.len()));
        }
        if !result.trace_violations.is_empty() {
            bad.push(format!(
                "{} trace-order violations",
                result.trace_violations.len()
            ));
        }
        let (det, att) = result.detection();
        if det != att {
            bad.push(format!("detection {det}/{att}"));
        }
        let injected: u32 = result.tenants.iter().map(|t| t.injected).sum();
        if injected > 0 {
            bad.push(format!("{injected} payloads executed"));
        }
        if expect_degradations && result.degradations() == 0 {
            bad.push("expected OOM degradations, saw none".into());
        }
        if bad.is_empty() {
            println!(
                "fleet {name}: ok ({} completed, detection {det}/{att}, {} degradations)",
                result.completed(),
                result.degradations()
            );
        } else {
            failures += 1;
            let artifact = format!("fleet_{name}_report.txt");
            let _ = std::fs::write(
                &artifact,
                format!("{}{}", result.render(), result.render_tenants()),
            );
            println!("fleet {name}: FAILED ({}) -> {artifact}", bad.join("; "));
            for v in result
                .violations
                .iter()
                .chain(result.trace_violations.iter())
                .take(10)
            {
                println!("  {v}");
            }
        }
    };

    run_scenario(
        "forkstorm",
        &FleetConfig {
            mix: Mix::ForkStorm,
            ..base.clone()
        },
        false,
    );
    run_scenario(
        "oomramp",
        &FleetConfig {
            mix: Mix::OomRamp,
            phys_frames: 96,
            ..base.clone()
        },
        true,
    );

    // Mid-run shard kill: one cell snapshotted, dropped, restored from the
    // bytes and driven to completion. Everything observable — per-tenant
    // reports, the event timeline, and the pre/post trace streams spliced
    // through the PR-5 validator — must match an uninterrupted twin.
    let kill_cfg = FleetConfig {
        tenants: 5,
        shards: 1,
        requests_per_tenant: 8,
        trace: true,
        check_invariants: true,
        ..FleetConfig::default()
    };
    let probe = fleet::shard_kill_probe(&kill_cfg, 2);
    if probe.ok() {
        println!("fleet shard-kill: ok (reports, timeline and spliced trace all identical)");
    } else {
        failures += 1;
        let artifact = "fleet_shard_kill_report.txt";
        let _ = std::fs::write(
            artifact,
            format!(
                "killed={} reports_identical={} timeline_identical={} splice_ok={} violations={}\n\n{}",
                probe.killed,
                probe.reports_identical,
                probe.timeline_identical,
                probe.splice_ok,
                probe.violations.len(),
                probe.detail
            ),
        );
        println!("fleet shard-kill: FAILED -> {artifact}");
    }

    if failures == 0 {
        println!("fleet chaos: all scenarios clean");
        0
    } else {
        println!("fleet chaos: {failures} scenario(s) failed");
        1
    }
}

fn main() {
    let args = cli::checked_args(
        "chaos",
        USAGE,
        &["--quick", "--trace", "--fleet"],
        &["--replay", "--stop-seq", "--dump-demo"],
    );
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let path = match flag_value(&args, i, "--replay") {
            Ok(p) => p,
            Err(e) => std::process::exit(usage_error(&format!("{e} (a dump path)"))),
        };
        let stop_seq = match args.iter().position(|a| a == "--stop-seq") {
            Some(j) => match flag_value(&args, j, "--stop-seq").map(str::parse::<u64>) {
                Ok(Ok(s)) => Some(s),
                Ok(Err(e)) => {
                    std::process::exit(usage_error(&format!("--stop-seq is not a number: {e}")))
                }
                Err(e) => std::process::exit(usage_error(&format!("{e} (a trace seq)"))),
            },
            None => None,
        };
        std::process::exit(match stop_seq {
            Some(s) => replay_to_seq(path, s),
            None => replay(path),
        });
    }
    if args.iter().any(|a| a == "--stop-seq") {
        std::process::exit(usage_error("--stop-seq only makes sense with --replay"));
    }
    if let Some(i) = args.iter().position(|a| a == "--dump-demo") {
        let path = match flag_value(&args, i, "--dump-demo") {
            Ok(p) => p,
            Err(e) => std::process::exit(usage_error(&format!("{e} (an output path)"))),
        };
        std::process::exit(dump_demo(path));
    }
    if args.iter().any(|a| a == "--fleet") {
        std::process::exit(fleet_scenarios());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().any(|a| a == "--trace");
    let scenarios = if quick {
        quick_scenarios()
    } else {
        full_scenarios()
    };

    let seeds = [1u64, 2, 3];
    let split = Protection::SplitMem(ResponseMode::Break);
    let combined = Protection::Combined(ResponseMode::Break);
    let shadow_alone = Protection::ShadowStack(ResponseMode::Break);
    let shadow_stacked = Protection::ShadowCombined(ResponseMode::Break);

    println!(
        "chaos sweep ({}): {} scenarios x {} seeds",
        if quick {
            "quick subset"
        } else {
            "full wilander matrix"
        },
        scenarios.len(),
        seeds.len()
    );

    let mut combos = 0usize;
    let mut failures = 0usize;
    let mut failed_combos: Vec<FailedCombo> = Vec::new();

    let perturbed = chaos::sweep(&seeds, &scenarios, &split);
    for r in &perturbed {
        combos += 1;
        let mut bad = Vec::new();
        if !r.verdict_stable {
            bad.push(format!(
                "verdict {:?} != baseline {:?}",
                r.run.verdict, r.baseline
            ));
        }
        if !r.run.violations.is_empty() {
            bad.push(format!("{} invariant violations", r.run.violations.len()));
        }
        if matches!(r.run.exit, RunExit::Livelock { .. }) {
            bad.push("livelock".into());
        }
        if report(r, &mut failures, bad) && trace {
            failed_combos.push(FailedCombo {
                scenario: r.scenario.clone(),
                plan: r.plan,
                seed: r.seed,
                protection: split.clone(),
                tlb: TlbPreset::default(),
            });
        }
    }

    // Third-engine pass: the same perturbation sweep with the
    // shadow-stack/CFI engine, standalone and stacked on combined
    // split+NX. CFI events ride the ordinary retire path, so verdicts
    // must stay plan-stable with the extra engine in the loop — under
    // --quick and the full matrix alike. (Standalone runs a reduced seed
    // set: the engine sees the same control-flow stream per plan, the
    // extra seeds only move fault timing.)
    for (label, protection, sweep_seeds) in [
        (
            "shadow-stack engine alone",
            shadow_alone.clone(),
            &seeds[..1],
        ),
        ("shadow+nx+split stack", shadow_stacked.clone(), &seeds[..]),
    ] {
        println!("\n{label}:");
        let swept = chaos::sweep(sweep_seeds, &scenarios, &protection);
        for r in &swept {
            combos += 1;
            let mut bad = Vec::new();
            if !r.verdict_stable {
                bad.push(format!(
                    "verdict {:?} != baseline {:?}",
                    r.run.verdict, r.baseline
                ));
            }
            if !r.run.violations.is_empty() {
                bad.push(format!("{} invariant violations", r.run.violations.len()));
            }
            if matches!(r.run.exit, RunExit::Livelock { .. }) {
                bad.push("livelock".into());
            }
            if report(r, &mut failures, bad) && trace {
                failed_combos.push(FailedCombo {
                    scenario: r.scenario.clone(),
                    plan: r.plan,
                    seed: r.seed,
                    protection: protection.clone(),
                    tlb: TlbPreset::default(),
                });
            }
        }
    }

    // The mixed-segment self-patcher is swept separately: its *observable
    // patch outcome* is legitimately plan-dependent (a periodic flush
    // landing between the I-TLB fill and the store's fetch widens the
    // paper-§7 single-step window onto the store itself), so we demand
    // convergence, clean invariants and no livelock — not verdict
    // equality.
    let mixed = chaos::sweep(&seeds, &[Scenario::MixedPatch], &split);
    for r in &mixed {
        combos += 1;
        let mut bad = Vec::new();
        if !r.run.violations.is_empty() {
            bad.push(format!("{} invariant violations", r.run.violations.len()));
        }
        if !matches!(r.run.exit, RunExit::AllExited) {
            bad.push(format!("did not converge: {:?}", r.run.exit));
        }
        if report(r, &mut failures, bad) && trace {
            failed_combos.push(FailedCombo {
                scenario: r.scenario.clone(),
                plan: r.plan,
                seed: r.seed,
                protection: split.clone(),
                tlb: TlbPreset::default(),
            });
        }
    }

    let oom = chaos::sweep_oom(&seeds, &scenarios, &combined);
    for r in &oom {
        combos += 1;
        let mut bad = Vec::new();
        if r.run.attack_succeeded {
            bad.push(format!("attack succeeded under OOM: {}", r.run.verdict));
        }
        if !r.run.violations.is_empty() {
            bad.push(format!("{} invariant violations", r.run.violations.len()));
        }
        if report(r, &mut failures, bad) && trace {
            failed_combos.push(FailedCombo {
                scenario: r.scenario.clone(),
                plan: r.plan,
                seed: r.seed,
                protection: combined.clone(),
                tlb: TlbPreset::default(),
            });
        }
    }

    // Set-associative pass: the same guarantees must hold when chaos
    // evictions pick a victim set then a way (paper-testbed geometry). A
    // reduced seed set keeps the sweep inside its runtime budget — the
    // geometry changes which entries evictions hit, not the fault stream.
    println!("\npentium3 geometry (32-entry 4-way I-TLB, 64-entry 4-way D-TLB):");
    let p3 = TlbPreset::pentium3();
    let p3_seeds = [1u64];
    let perturbed = chaos::sweep_on(&p3_seeds, &scenarios, &split, p3);
    for r in &perturbed {
        combos += 1;
        let mut bad = Vec::new();
        if !r.verdict_stable {
            bad.push(format!(
                "verdict {:?} != baseline {:?}",
                r.run.verdict, r.baseline
            ));
        }
        if !r.run.violations.is_empty() {
            bad.push(format!("{} invariant violations", r.run.violations.len()));
        }
        if matches!(r.run.exit, RunExit::Livelock { .. }) {
            bad.push("livelock".into());
        }
        if report(r, &mut failures, bad) && trace {
            failed_combos.push(FailedCombo {
                scenario: r.scenario.clone(),
                plan: r.plan,
                seed: r.seed,
                protection: split.clone(),
                tlb: p3,
            });
        }
    }
    let oom = chaos::sweep_oom_on(&p3_seeds, &scenarios, &combined, p3);
    for r in &oom {
        combos += 1;
        let mut bad = Vec::new();
        if r.run.attack_succeeded {
            bad.push(format!("attack succeeded under OOM: {}", r.run.verdict));
        }
        if !r.run.violations.is_empty() {
            bad.push(format!("{} invariant violations", r.run.violations.len()));
        }
        if report(r, &mut failures, bad) && trace {
            failed_combos.push(FailedCombo {
                scenario: r.scenario.clone(),
                plan: r.plan,
                seed: r.seed,
                protection: combined.clone(),
                tlb: p3,
            });
        }
    }

    // Cross-process pass: one image forks into attacker and victim
    // sharing data frames COW; chaos preemption moves the context-switch
    // points between arbitrary steps of either guest. The injection must
    // *work* unprotected (the attack is real) and be detected 100% of the
    // time under split memory — in both the flush-on-switch and the
    // ASID-tagged TLB models — while the victim's COW view stays pristine.
    println!("\ncross-process interference (fork + COW-shared pages):");
    let unprotected = Protection::Unprotected;
    for (mode, asid) in [("flush", false), ("asid", true)] {
        for (pname, protection, expect_success) in
            [("unprot", &unprotected, true), ("split", &split, false)]
        {
            let swept =
                interference::sweep_interference_on(&seeds, protection, TlbPreset::default(), asid);
            for r in &swept {
                combos += 1;
                let mut bad = Vec::new();
                if r.run.attack_succeeded != expect_success {
                    bad.push(format!(
                        "attack_succeeded={} (want {expect_success}): {}",
                        r.run.attack_succeeded, r.run.verdict
                    ));
                }
                if !expect_success && r.run.detections == 0 {
                    bad.push("injection not detected".into());
                }
                if r.run.victim_corrupted {
                    bad.push("victim saw attacker bytes through COW".into());
                }
                if !r.verdict_stable {
                    bad.push(format!(
                        "verdict {:?} != baseline {:?}",
                        r.run.verdict, r.baseline
                    ));
                }
                if !r.run.violations.is_empty() {
                    bad.push(format!("{} invariant violations", r.run.violations.len()));
                }
                if matches!(r.run.exit, RunExit::Livelock { .. }) {
                    bad.push("livelock".into());
                }
                let label = format!("interfere-{pname}-{mode}");
                if bad.is_empty() {
                    println!(
                        "  ok   {:<44} {:<18} seed={} -> {}",
                        label, r.plan, r.seed, r.run.verdict
                    );
                } else {
                    failures += 1;
                    println!(
                        "  FAIL {:<44} {:<18} seed={} -> {} [{}]",
                        label,
                        r.plan,
                        r.seed,
                        r.run.verdict,
                        bad.join("; ")
                    );
                    for v in &r.run.violations {
                        println!("       violation: {v}");
                    }
                }
            }
        }
    }

    if trace {
        write_trace_sample(&scenarios, &split);
        if !failed_combos.is_empty() {
            let mut by_name: HashMap<String, Scenario> =
                scenarios.iter().map(|&s| (s.name(), s)).collect();
            by_name.insert(Scenario::MixedPatch.name(), Scenario::MixedPatch);
            dump_failed_traces(&by_name, &failed_combos);
        }
    }

    println!("\n{combos} combos swept, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Trace one canonical combo (first Wilander cell, split memory, inert
/// plan) and write its event stream for CI schema validation.
fn write_trace_sample(scenarios: &[Scenario], split: &Protection) {
    let scenario = scenarios
        .iter()
        .copied()
        .find(|s| matches!(s, Scenario::Wilander(_)))
        .unwrap_or(Scenario::Benign);
    let Some(plan) = chaos::plan_by_name("inert", 1) else {
        fatal("internal plan table is missing 'inert'");
    };
    let (_, jsonl) =
        chaos::run_scenario_traced_on(scenario, split, TlbPreset::default(), plan, mask::ALL);
    cli::write_artifact("chaos", "chaos_trace_sample.jsonl", jsonl.as_bytes());
    println!(
        "\ntrace sample: {} events ({}) -> chaos_trace_sample.jsonl",
        jsonl.lines().count(),
        scenario.name()
    );
}

/// Re-run every failing combo serially with all trace layers on and dump
/// the concatenated event tails, plus a replayable checkpoint dump per
/// combo. (Interference combos are built by a different harness and are
/// not re-traced here.)
fn dump_failed_traces(by_name: &HashMap<String, Scenario>, failed: &[FailedCombo]) {
    let mut out = String::new();
    for (i, fc) in failed.iter().enumerate() {
        let Some(&scenario) = by_name.get(&fc.scenario) else {
            println!("  (no traced re-run for unknown scenario {})", fc.scenario);
            continue;
        };
        let Some(plan) = chaos::plan_by_name(fc.plan, fc.seed) else {
            println!("  (no traced re-run for unknown plan {})", fc.plan);
            continue;
        };
        let (run, jsonl) =
            chaos::run_scenario_traced_on(scenario, &fc.protection, fc.tlb, plan, mask::ALL);
        println!(
            "  traced re-run {} {} seed={} -> {} ({} events)",
            fc.scenario,
            fc.plan,
            fc.seed,
            run.verdict,
            jsonl.lines().count()
        );
        out.push_str(&jsonl);
        // Also preserve a replayable dump: the combo re-run checkpointed,
        // its latest snapshot + plan + expected verdict in one file.
        // A short checkpoint interval (5 × 1000 cycles) so even quick
        // guests leave a restorable snapshot behind.
        match chaos::checkpointed_dump(
            scenario,
            &fc.protection,
            fc.tlb,
            fc.plan,
            plan,
            mask::ALL,
            chaos::Cadence {
                every: 5,
                stride: 1_000,
            },
        ) {
            Ok((cp, dump)) => {
                let path = format!("chaos_dump_{i}.smcdump");
                cli::write_artifact("chaos", &path, &dump);
                println!(
                    "  replay dump: checkpoint @ slice {} ({} checkpoints) -> {path}",
                    cp.snapshot_slice, cp.checkpoints_taken
                );
            }
            Err(e) => println!("  (no replay dump: {e})"),
        }
    }
    cli::write_artifact("chaos", "chaos_trace.jsonl", out.as_bytes());
    println!("failure event tails -> chaos_trace.jsonl");
}

/// Canonical `--dump-demo` combo: the first applicable Wilander cell under
/// stand-alone split memory, a perturbation plan that also faults every
/// other checkpoint. Deterministic, so the dump it writes is stable for a
/// given build — CI restores a checked-in copy and replays it.
fn dump_demo(path: &str) -> i32 {
    let Some(scenario) = full_scenarios()
        .into_iter()
        .find(|s| matches!(s, Scenario::Wilander(_)))
    else {
        fatal("no applicable wilander cell to build the demo dump from");
    };
    let split = Protection::SplitMem(ResponseMode::Break);
    let plan = sm_machine::chaos::FaultPlan {
        flush_every: Some(101),
        evict_every: Some(17),
        snap_fault_every: Some(2),
        seed: 1,
        ..sm_machine::chaos::FaultPlan::default()
    };
    match chaos::checkpointed_dump(
        scenario,
        &split,
        TlbPreset::default(),
        "demo-flush-evict-snapfault",
        plan,
        mask::ALL,
        chaos::Cadence {
            every: 2,
            stride: 500,
        },
    ) {
        Ok((cp, dump)) => {
            cli::write_artifact("chaos", path, &dump);
            println!(
                "demo dump: {} -> {} ({} checkpoints, {} snapshot faults injected+detected, \
                 checkpoint @ slice {}, {} bytes) -> {path}",
                scenario.name(),
                cp.run.verdict,
                cp.checkpoints_taken,
                cp.snap_faults_injected,
                cp.snapshot_slice,
                dump.len()
            );
            0
        }
        Err(e) => {
            eprintln!("dump-demo failed: {e}");
            1
        }
    }
}

/// `--replay <path>`: restore a dump, finish its run, verify verdict and
/// trace splice.
fn replay(path: &str) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    match chaos::replay_dump(&bytes) {
        Ok(r) => {
            println!(
                "replay {path}: {} {} (seed={}, checkpoint @ slice {})",
                r.scenario, r.plan_name, r.plan.seed, r.slice
            );
            println!(
                "  verdict: {} (expected {}) -> {}",
                r.verdict,
                r.expected_verdict,
                if r.verdict_matches {
                    "MATCH"
                } else {
                    "MISMATCH"
                }
            );
            println!(
                "  trace splice: {} events re-emitted -> {}",
                r.events_replayed,
                if r.splice_matches {
                    "byte-identical"
                } else {
                    "DIVERGED"
                }
            );
            println!("  exit: {:?}, violations: {}", r.exit, r.violations.len());
            let ok = r.verdict_matches && r.splice_matches && r.violations.is_empty();
            if ok {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("replay rejected: {e}");
            1
        }
    }
}

/// `--replay <path> --stop-seq <seq>`: time travel — restore a dump and
/// run it forward only until the tracer reaches the given seq.
fn replay_to_seq(path: &str, stop_seq: u64) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    match chaos::replay_dump_to_seq(&bytes, stop_seq) {
        Ok(r) => {
            println!(
                "time travel {path}: {} {} (checkpoint seq {}, stop seq {stop_seq})",
                r.scenario, r.plan_name, r.seq0
            );
            println!(
                "  stopped at seq {} after {} cycles ({} events re-emitted) -> {}",
                r.seq_reached,
                r.cycles,
                r.events_replayed,
                if r.reached {
                    "REACHED"
                } else {
                    "run ended first"
                }
            );
            println!("  exit: {:?}, violations: {}", r.exit, r.violations.len());
            print!("{}", r.tail_jsonl);
            if r.violations.is_empty() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("replay rejected: {e}");
            1
        }
    }
}

fn report(r: &chaos::ComboResult, failures: &mut usize, bad: Vec<String>) -> bool {
    if bad.is_empty() {
        println!(
            "  ok   {:<44} {:<18} seed={} -> {}",
            r.scenario, r.plan, r.seed, r.run.verdict
        );
        false
    } else {
        *failures += 1;
        println!(
            "  FAIL {:<44} {:<18} seed={} -> {} [{}]",
            r.scenario,
            r.plan,
            r.seed,
            r.run.verdict,
            bad.join("; ")
        );
        for v in &r.run.violations {
            println!("       violation: {v}");
        }
        true
    }
}
