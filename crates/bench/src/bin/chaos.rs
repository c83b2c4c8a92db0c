#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Chaos sweep runner: seeds × fault plans × scenarios, asserting that
//! protection verdicts survive every deterministic fault stream.
//!
//! The sweep is a table of passes ([`passes`]): each names its
//! scenarios, protection, seeds, TLB geometry, plan family and the
//! [`Expect`] every combo is judged against, and one loop sweeps them
//! all and prints one `ok`/`FAIL` line per combo. By default every
//! applicable cell of the Wilander technique × location matrix is swept
//! (20 cells + the benign loop); `--quick` restores the reduced
//! pre-matrix scenario set for time-budgeted CI runs. Combos run in
//! parallel (pin `RAYON_NUM_THREADS` for a fixed thread count); output
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
//! `--replay`, `--dump-demo` and `--fleet` exclude each other and the
//! sweep's `--quick` and `--trace`.

use sm_attacks::wilander::{self, InjectLocation, Technique};
use sm_bench::chaos::{
    self, oom_plans, perturbation_plans, ComboResult, Expect, NamedPlan, Scenario,
};
use sm_bench::cli;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::chaos::FaultPlan;
use sm_machine::trace::mask;
use sm_machine::TlbPreset;

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
fn usage_error(msg: &str) -> ! {
    cli::usage_error("chaos", USAGE, msg)
}

/// A fatal runtime error (a missing internal table entry; I/O refusals go
/// through [`cli::write_artifact`]): diagnostic plus nonzero exit, never a
/// panic — this binary's failure modes are part of its CLI contract.
fn fatal(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(1);
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
            let report = format!("{}{}", result.render(), result.render_tenants());
            cli::write_artifact("chaos", &artifact, report.as_bytes());
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
        let report = format!(
            "killed={} reports_identical={} timeline_identical={} splice_ok={} violations={}\n\n{}",
            probe.killed,
            probe.reports_identical,
            probe.timeline_identical,
            probe.splice_ok,
            probe.violations.len(),
            probe.detail
        );
        cli::write_artifact("chaos", artifact, report.as_bytes());
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

/// The seeds of every pass that does not name a reduced set.
const SEEDS: &[u64] = &[1, 2, 3];

/// One sweep of the transcript and what each of its combos must show.
struct Pass {
    /// Printed after a blank line before the pass's combos.
    heading: Option<&'static str>,
    /// Printed in place of each combo's scenario name.
    label: Option<String>,
    scenarios: Vec<Scenario>,
    protection: Protection,
    seeds: &'static [u64],
    tlb: TlbPreset,
    plans: fn(u64) -> Vec<NamedPlan>,
    expect: Expect,
}

/// Every pass of the sweep, in transcript order, over `scenarios`.
fn passes(scenarios: &[Scenario]) -> Vec<Pass> {
    let split = Protection::SplitMem(ResponseMode::Break);
    let combined = Protection::Combined(ResponseMode::Break);
    let p3 = TlbPreset::pentium3();
    let pass = |scenarios: &[Scenario], protection: &Protection, plans, expect| Pass {
        heading: None,
        label: None,
        scenarios: scenarios.to_vec(),
        protection: protection.clone(),
        seeds: SEEDS,
        tlb: TlbPreset::default(),
        plans,
        expect,
    };
    let mut passes = vec![
        pass(scenarios, &split, perturbation_plans, Expect::Stable),
        // Third-engine passes: the shadow-stack/CFI engine, standalone and
        // stacked on combined split+NX. CFI events ride the ordinary
        // retire path, so verdicts must stay plan-stable with the extra
        // engine in the loop. (Standalone runs a reduced seed set: the
        // engine sees the same control-flow stream per plan, the extra
        // seeds only move fault timing.)
        Pass {
            heading: Some("shadow-stack engine alone"),
            seeds: &[1],
            ..pass(
                scenarios,
                &Protection::ShadowStack(ResponseMode::Break),
                perturbation_plans,
                Expect::Stable,
            )
        },
        Pass {
            heading: Some("shadow+nx+split stack"),
            ..pass(
                scenarios,
                &Protection::ShadowCombined(ResponseMode::Break),
                perturbation_plans,
                Expect::Stable,
            )
        },
        // The self-patcher's *observable patch outcome* is legitimately
        // plan-dependent (a periodic flush landing between the I-TLB fill
        // and the store's fetch widens the paper-§7 single-step window
        // onto the store itself), so it must converge, not keep its
        // verdict.
        pass(
            &[Scenario::MixedPatch],
            &split,
            perturbation_plans,
            Expect::Converges,
        ),
        // OOM plans run under combined mode, where NX backstops degraded
        // pages.
        pass(scenarios, &combined, oom_plans, Expect::NoAttack),
        // Set-associative geometry: chaos evictions pick a victim set
        // then a way (paper-testbed geometry). One seed: the geometry
        // changes which entries evictions hit, not the fault stream.
        Pass {
            heading: Some("pentium3 geometry (32-entry 4-way I-TLB, 64-entry 4-way D-TLB)"),
            seeds: &[1],
            tlb: p3,
            ..pass(scenarios, &split, perturbation_plans, Expect::Stable)
        },
        Pass {
            seeds: &[1],
            tlb: p3,
            ..pass(scenarios, &combined, oom_plans, Expect::NoAttack)
        },
    ];
    // Cross-process passes: one image forks into attacker and victim
    // sharing data frames COW; chaos preemption moves the context-switch
    // points between arbitrary steps of either guest. The injection must
    // *work* unprotected (the attack is real) and be detected on every
    // combo under split memory, in both the flush-on-switch and the
    // ASID-tagged TLB models, while the victim's COW view stays pristine.
    let mut heading = Some("cross-process interference (fork + COW-shared pages)");
    for (mode, asid) in [("flush", false), ("asid", true)] {
        for (name, protection, works) in [
            ("unprot", &Protection::Unprotected, true),
            ("split", &split, false),
        ] {
            let scenario = [Scenario::Interference { asid }];
            passes.push(Pass {
                heading: heading.take(),
                label: Some(format!("interfere-{name}-{mode}")),
                ..pass(
                    &scenario,
                    protection,
                    perturbation_plans,
                    Expect::Injection { works },
                )
            });
        }
    }
    passes
}

fn main() {
    let args = cli::checked_args(
        "chaos",
        USAGE,
        &["--quick", "--trace", "--fleet"],
        &["--replay", "--stop-seq", "--dump-demo"],
    );
    let given = |flag: &str| args.iter().any(|a| a == flag);
    let modes: Vec<&str> = ["--replay", "--dump-demo", "--fleet"]
        .into_iter()
        .filter(|f| given(f))
        .collect();
    if let [first, second, ..] = modes[..] {
        usage_error(&format!("{first} and {second} cannot be combined"));
    }
    if let Some(mode) = modes.first() {
        if let Some(flag) = ["--quick", "--trace"].into_iter().find(|f| given(f)) {
            usage_error(&format!("{flag} only applies to the sweep, not {mode}"));
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let path = match cli::flag_value(&args, i, "--replay") {
            Ok(p) => p,
            Err(e) => usage_error(&format!("{e} (a dump path)")),
        };
        let stop_seq = match args.iter().position(|a| a == "--stop-seq") {
            Some(j) => match cli::flag_value(&args, j, "--stop-seq").map(str::parse::<u64>) {
                Ok(Ok(s)) => Some(s),
                Ok(Err(e)) => usage_error(&format!("--stop-seq is not a number: {e}")),
                Err(e) => usage_error(&format!("{e} (a trace seq)")),
            },
            None => None,
        };
        std::process::exit(replay(path, stop_seq));
    }
    if given("--stop-seq") {
        usage_error("--stop-seq only makes sense with --replay");
    }
    if let Some(i) = args.iter().position(|a| a == "--dump-demo") {
        let path = match cli::flag_value(&args, i, "--dump-demo") {
            Ok(p) => p,
            Err(e) => usage_error(&format!("{e} (an output path)")),
        };
        std::process::exit(dump_demo(path));
    }
    if given("--fleet") {
        std::process::exit(fleet_scenarios());
    }
    let quick = given("--quick");
    let trace = given("--trace");
    let scenarios = if quick {
        quick_scenarios()
    } else {
        full_scenarios()
    };
    println!(
        "chaos sweep ({}): {} scenarios x {} seeds",
        if quick {
            "quick subset"
        } else {
            "full wilander matrix"
        },
        scenarios.len(),
        SEEDS.len()
    );

    let mut combos = 0usize;
    let mut failed: Vec<(ComboResult, Protection, TlbPreset)> = Vec::new();
    for pass in passes(&scenarios) {
        if let Some(heading) = pass.heading {
            println!("\n{heading}:");
        }
        let swept = chaos::sweep(
            pass.seeds,
            &pass.scenarios,
            &pass.protection,
            pass.tlb,
            pass.plans,
        );
        for r in swept {
            combos += 1;
            let bad = r.problems(pass.expect);
            let name = pass.label.clone().unwrap_or_else(|| r.scenario.name());
            let line = format!(
                "{name:<44} {:<18} seed={} -> {}",
                r.plan.name, r.seed, r.run.verdict
            );
            if bad.is_empty() {
                println!("  ok   {line}");
                continue;
            }
            println!("  FAIL {line} [{}]", bad.join("; "));
            for v in &r.run.violations {
                println!("       violation: {v}");
            }
            failed.push((r, pass.protection.clone(), pass.tlb));
        }
    }

    if trace {
        write_trace_sample(&scenarios);
        if !failed.is_empty() {
            dump_failed_traces(&failed);
        }
    }

    println!("\n{combos} combos swept, {} failures", failed.len());
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// Trace one canonical combo (first Wilander cell, split memory, inert
/// plan) and write its event stream for CI schema validation.
fn write_trace_sample(scenarios: &[Scenario]) {
    let scenario = scenarios
        .iter()
        .copied()
        .find(|s| matches!(s, Scenario::Wilander(_)))
        .unwrap_or(Scenario::Benign);
    let split = Protection::SplitMem(ResponseMode::Break);
    let inert = FaultPlan {
        seed: 1,
        ..FaultPlan::default()
    };
    let cp = chaos::run_scenario(
        scenario,
        &split,
        TlbPreset::default(),
        inert,
        mask::ALL,
        None,
    );
    cli::write_artifact("chaos", "chaos_trace_sample.jsonl", cp.jsonl.as_bytes());
    println!(
        "\ntrace sample: {} events ({}) -> chaos_trace_sample.jsonl",
        cp.jsonl.lines().count(),
        scenario.name()
    );
}

/// Re-run every failing combo serially with all trace layers on and dump
/// the concatenated event tails, plus a replayable checkpoint dump per
/// combo that has a dump encoding.
fn dump_failed_traces(failed: &[(ComboResult, Protection, TlbPreset)]) {
    let mut out = String::new();
    for (i, (r, protection, tlb)) in failed.iter().enumerate() {
        let cp = chaos::run_scenario(r.scenario, protection, *tlb, r.plan.plan, mask::ALL, None);
        println!(
            "  traced re-run {} {} seed={} -> {} ({} events)",
            r.scenario.name(),
            r.plan.name,
            r.seed,
            cp.run.verdict,
            cp.jsonl.lines().count()
        );
        out.push_str(&cp.jsonl);
        // Also preserve a replayable dump: the combo re-run checkpointed,
        // its latest snapshot + plan + expected verdict in one file.
        // A short checkpoint interval (5 × 1000 cycles) so even quick
        // guests leave a restorable snapshot behind.
        let cadence = chaos::Cadence {
            every: 5,
            stride: 1_000,
        };
        match chaos::checkpointed_dump(r.scenario, protection, *tlb, r.plan, mask::ALL, cadence) {
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
    let plan = NamedPlan {
        name: "demo-flush-evict-snapfault",
        plan: FaultPlan {
            flush_every: Some(101),
            evict_every: Some(17),
            snap_fault_every: Some(2),
            seed: 1,
            ..FaultPlan::default()
        },
    };
    match chaos::checkpointed_dump(
        scenario,
        &split,
        TlbPreset::default(),
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

/// `--replay <path>`: restore a dump and finish its run, verifying the
/// verdict and the trace splice; with `--stop-seq`, time travel instead —
/// run it forward only until the tracer reaches the given seq.
fn replay(path: &str, stop_seq: Option<u64>) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let ok = match stop_seq {
        None => chaos::replay_dump(&bytes).map(|r| print_replay(path, &r)),
        Some(seq) => chaos::replay_dump_to_seq(&bytes, seq).map(|r| print_time_travel(path, &r)),
    };
    match ok {
        Ok(ok) => i32::from(!ok),
        Err(e) => {
            eprintln!("replay rejected: {e}");
            1
        }
    }
}

/// Print a replay to the deadline; true if it reproduced the run.
fn print_replay(path: &str, r: &chaos::ReplayReport) -> bool {
    let d = &r.dump;
    println!(
        "replay {path}: {} {} (seed={}, checkpoint @ slice {})",
        d.scenario, d.plan_name, d.plan.seed, d.slice
    );
    println!(
        "  verdict: {} (expected {}) -> {}",
        r.run.verdict,
        d.expected_verdict,
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
    println!(
        "  exit: {:?}, violations: {}",
        r.run.exit,
        r.run.violations.len()
    );
    r.verdict_matches && r.splice_matches && r.run.violations.is_empty()
}

/// Print a time-travel stop and its trace tail; true if the run up to
/// the stop kept its invariants.
fn print_time_travel(path: &str, r: &chaos::TimeTravelReport) -> bool {
    println!(
        "time travel {path}: {} {} (checkpoint seq {}, stop seq {})",
        r.dump.scenario, r.dump.plan_name, r.dump.seq0, r.stop_seq
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
    r.violations.is_empty()
}
