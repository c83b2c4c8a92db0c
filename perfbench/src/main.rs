//! Repository benchmark for the split-memory simulator.
//!
//! ```text
//! perfbench --workload <compute|serve|verified|fleet> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! A run sets the workload up, runs one untimed warm-up pass whose counters
//! become the reference, then repeats passes over the workload's fixed op
//! list for `--seconds`, timing one more set-up before each untraced pass.
//! Every op is checked and every pass's counters must equal the reference. With
//! `--trace 1` untraced and traced passes alternate; traced passes record
//! a span around every call into a crate's public API, and the run reports
//! per-layer self times and counters instead of the end-to-end metrics.
//! The last line of standard output is one JSON object; everything before
//! it is a human-readable report.

mod arith;
mod spans;
mod workloads;

use spans::{span, Span};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{PassOut, Plan, Sizes, Workload, PROT_TAGS};

/// Set-ups before the measured phase (the traced ones in a traced run);
/// `setup_s` is the median of these and the set-ups between passes.
const SETUP_REPS: usize = 5;
/// Fewest measured passes (per kind, in a traced run) however short
/// `--seconds` is.
const MIN_PASSES: usize = 5;

/// Layer spans of the measured phase.
const LAYER_SPANS: [&str; 9] = [
    "core.setup.boot",
    "kernel.spawn",
    "kernel.run",
    "core.invariants.check",
    "core.invariants.trace_check",
    "kernel.snapshot.save",
    "kernel.snapshot.restore",
    "trace.export",
    "bench.fleet.run",
];
/// Layer spans of set-up, reported with a `setup.` prefix.
const SETUP_SPANS: [&str; 3] = ["asm.build", "core.setup.boot", "kernel.snapshot.save"];
/// Counters reported once per protection (suffix `.unprot`, `.split`,
/// `.stack`); `machine.dcache.hit_ratio` is derived from hits and lookups.
const PROT_COUNTERS: [&str; 20] = [
    "machine.instructions",
    "machine.walks",
    "machine.page_faults",
    "machine.debug_traps",
    "machine.cr3_loads",
    "machine.itlb.misses",
    "machine.dtlb.misses",
    "machine.dcache.hit_ratio",
    "machine.dcache.lookups",
    "machine.dcache.invalidations",
    "machine.superblock.hits",
    "machine.superblock.builds",
    "machine.superblock.bailouts",
    "machine.superblock.slow_steps",
    "kernel.syscalls",
    "kernel.context_switches",
    "kernel.cow_breaks",
    "kernel.demand_pages",
    "kernel.processes_spawned",
    "core.detections",
];
/// Counters reported once per workload (`core.split.*` under split memory).
const PLAIN_COUNTERS: [&str; 11] = [
    "kernel.snapshot.bytes",
    "kernel.snapshot.saves",
    "trace.emitted",
    "trace.dropped",
    "core.invariants.checks",
    "core.invariants.violations",
    "bench.fleet.completed",
    "bench.fleet.dropped",
    "bench.fleet.degradations",
    "core.split.code_reloads",
    "core.split.data_reloads",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {value} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Everything one run measured.
struct Run {
    workload: Workload,
    seed: u64,
    setup_s: Vec<f64>,
    walls: Vec<f64>,
    /// Host run-queue wait per untraced pass.
    waits: Vec<f64>,
    traced_walls: Vec<f64>,
    reference: PassOut,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    setup_spans: Vec<Span>,
    pass_spans: Vec<Span>,
}

/// One timed set-up: assemble the plan and cold-boot its kernels.
fn set_up(w: Workload, seed: u64, sizes: Sizes) -> (Plan, f64) {
    let t = Instant::now();
    let p = span("bench.setup", || {
        let p = Plan::new(w, seed, sizes);
        p.cold_boots();
        p
    });
    (p, t.elapsed().as_secs_f64())
}

fn run(w: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes, min_passes: usize) -> Run {
    spans::set_enabled(trace);
    let mut setup_s = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let (p, t) = set_up(w, seed, sizes);
        setup_s.push(t);
        plan = Some(p);
    }
    let setup_spans = spans::take();
    spans::set_enabled(false);
    let plan = plan.expect("at least one set-up");
    plan.warm();
    let ops = plan.ops_per_pass();
    let reference = plan.pass(0);
    let mut r = Run {
        workload: w,
        seed,
        setup_s,
        walls: Vec::new(),
        waits: Vec::new(),
        traced_walls: Vec::new(),
        attempted: reference.attempted,
        failed: reference.failed,
        failures: reference.failures.clone(),
        reference,
        setup_spans,
        pass_spans: Vec::new(),
    };
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first_op = ops;
    let mut traced_passes = 0;
    for i in 0.. {
        let traced = trace && i % 2 == 1;
        if !traced {
            // Set-ups spread over the run see the same host as the passes.
            r.setup_s.push(set_up(w, seed, sizes).1);
        }
        spans::set_enabled(traced);
        let wait0 = runqueue_wait_ns();
        let t0 = Instant::now();
        let out = span("bench.pass", || plan.pass(first_op));
        let wall = t0.elapsed().as_secs_f64();
        spans::set_enabled(false);
        if traced {
            traced_passes += 1;
        } else {
            r.walls.push(wall);
            r.waits
                .push(runqueue_wait_ns().saturating_sub(wait0) as f64 / 1e9);
        }
        first_op += ops;
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.failures.extend(out.failures);
        if out.counters != r.reference.counters {
            r.failed += 1;
            r.failures.push(format!(
                "pass {i}{}: counters differ from the reference pass: {}",
                if traced { " (traced)" } else { "" },
                diff(&r.reference.counters, &out.counters)
            ));
        }
        let enough = r.walls.len() >= min_passes && (!trace || traced_passes >= min_passes);
        if enough && Instant::now() >= end {
            break;
        }
    }
    r.pass_spans = spans::take();
    r.traced_walls = r
        .pass_spans
        .iter()
        .filter(|s| s.name == "bench.pass")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    r
}

fn diff(a: &workloads::Counters, b: &workloads::Counters) -> String {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .take(5)
        .map(|k| format!("{k} {:?} vs {:?}", a.get(k), b.get(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Nanoseconds this process has spent runnable but waiting for a CPU
/// (`/proc/self/schedstat`; 0 where unavailable).
fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric: name, value (`Err` with the reason where the
/// workload does not define it), unit.
struct Metric {
    name: String,
    value: Result<f64, &'static str>,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: Ok(value),
        unit,
    }
}

fn sum_prefixed(c: &workloads::Counters, prefix: &str) -> u64 {
    c.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Per-program simulated cycles under protection `tag`, by program name.
fn program_cycles(c: &workloads::Counters, tag: &str) -> Vec<(String, u64)> {
    let suffix = format!(".{tag}");
    c.iter()
        .filter_map(|(k, v)| {
            let prog = k
                .strip_prefix("sim.cycles.")?
                .strip_suffix(suffix.as_str())?;
            Some((prog.to_string(), *v))
        })
        .collect()
}

fn norm_perf(c: &workloads::Counters, tag: &str) -> Result<f64, &'static str> {
    let base = program_cycles(c, "unprot");
    let prot = program_cycles(c, tag);
    if base.is_empty() || base.len() != prot.len() {
        return Err("compute/serve only");
    }
    let u: Vec<u64> = base.iter().map(|p| p.1).collect();
    let p: Vec<u64> = prot.iter().map(|p| p.1).collect();
    Ok(arith::norm_perf(&u, &p))
}

/// The twelve end-to-end metrics.
fn end_to_end(r: &Run) -> Vec<Metric> {
    let c = &r.reference.counters;
    // The fastest pass: on a shared host the pass time moves with the
    // neighbours' load in phases of many seconds, and the fastest pass of a
    // run is the statistic that moved least between runs.
    let wall_s = r.walls.iter().copied().fold(f64::INFINITY, f64::min);
    let insns = sum_prefixed(c, "machine.instructions.");
    let attacks = sum_prefixed(c, "bench.attacks.");
    let fleet_only = "fleet only";
    let fleet_kcycles = |key: &str| c.get(key).map(|&v| v as f64 / 1e3).ok_or(fleet_only);
    vec![
        metric("setup_s", arith::median(&r.setup_s), "s"),
        metric("wall_s", wall_s, "s"),
        Metric {
            name: "sim_mips".into(),
            value: if insns > 0 {
                Ok(insns as f64 / wall_s / 1e6)
            } else {
                Err("fleet retires instructions inside the fleet runner")
            },
            unit: "Minsn/s",
        },
        metric("host_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "sim_mcycles",
            sum_prefixed(c, "sim.cycles.") as f64 / 1e6,
            "Mcycle",
        ),
        Metric {
            name: "norm_perf_split".into(),
            value: norm_perf(c, "split"),
            unit: "ratio",
        },
        Metric {
            name: "norm_perf_stack".into(),
            value: norm_perf(c, "stack"),
            unit: "ratio",
        },
        Metric {
            name: "sim_p50_kcycles".into(),
            value: fleet_kcycles("bench.fleet.p50_cycles"),
            unit: "kcycle",
        },
        Metric {
            name: "sim_p99_kcycles".into(),
            value: fleet_kcycles("bench.fleet.p99_cycles"),
            unit: "kcycle",
        },
        Metric {
            name: "req_per_mcycle".into(),
            value: match c.get("bench.fleet.duration_cycles") {
                Some(&d) if d > 0 => Ok(c["bench.fleet.completed"] as f64 * 1e6 / d as f64),
                _ => Err(fleet_only),
            },
            unit: "req/Mcycle",
        },
        Metric {
            name: "detect_rate".into(),
            value: if attacks > 0 {
                Ok(sum_prefixed(c, "bench.detected.") as f64 / attacks as f64)
            } else {
                Err("verified/fleet only")
            },
            unit: "ratio",
        },
        metric(
            "error_rate",
            r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Metrics the benchmark definition lists as end to end: every one of
/// them is defined, and never 0, on every workload.
const JSON_END_TO_END: [&str; 4] = ["setup_s", "wall_s", "host_rss_mb", "sim_mcycles"];

/// Per-layer metrics of a traced run.
fn per_layer(r: &Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let passes = r.traced_walls.len().max(1) as f64;
    let agg = spans::aggregate(&r.pass_spans);
    let get = |name: &str| agg.get(name).copied().unwrap_or((0, 0));
    for name in LAYER_SPANS {
        let (ns, calls) = get(name);
        out.push(metric(format!("{name}_s"), ns as f64 / 1e9 / passes, "s"));
        out.push(metric(
            format!("{name}.calls"),
            calls as f64 / passes,
            "count",
        ));
    }
    let (pass_ns, _) = get("bench.pass");
    let (op_ns, op_calls) = get("bench.op");
    out.push(metric(
        "bench.self_s",
        (pass_ns + op_ns) as f64 / 1e9 / passes,
        "s",
    ));
    out.push(metric(
        "bench.self.calls",
        op_calls as f64 / passes,
        "count",
    ));
    let reps = SETUP_REPS as f64;
    let sagg = spans::aggregate(&r.setup_spans);
    for name in SETUP_SPANS {
        let (ns, calls) = sagg.get(name).copied().unwrap_or((0, 0));
        out.push(metric(
            format!("setup.{name}_s"),
            ns as f64 / 1e9 / reps,
            "s",
        ));
        out.push(metric(
            format!("setup.{name}.calls"),
            calls as f64 / reps,
            "count",
        ));
    }
    let (setup_ns, _) = sagg.get("bench.setup").copied().unwrap_or((0, 0));
    out.push(metric(
        "setup.bench.self_s",
        setup_ns as f64 / 1e9 / reps,
        "s",
    ));
    let (traced, untraced) = (arith::mean(&r.traced_walls), arith::mean(&r.walls));
    out.push(metric("bench.traced_wall_s", traced, "s"));
    out.push(metric("bench.untraced_wall_s", untraced, "s"));
    out.push(metric("bench.trace_overhead_s", traced - untraced, "s"));
    out.push(metric("host.runqueue_wait_s", arith::median(&r.waits), "s"));

    let c = &r.reference.counters;
    let at = |k: &str| c.get(k).copied().unwrap_or(0);
    for name in PROT_COUNTERS {
        for tag in PROT_TAGS {
            let v = if name == "machine.dcache.hit_ratio" {
                let lookups = at(&format!("machine.dcache.lookups.{tag}"));
                at(&format!("machine.dcache.hits.{tag}")) as f64 / lookups.max(1) as f64
            } else {
                at(&format!("{name}.{tag}")) as f64
            };
            let unit = if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            };
            out.push(metric(format!("{name}.{tag}"), v, unit));
        }
    }
    for name in PLAIN_COUNTERS {
        let unit = if name.ends_with("bytes") {
            "B"
        } else {
            "count"
        };
        out.push(metric(name, at(name) as f64, unit));
    }
    let reload = at("core.split.reload_cycles");
    out.push(metric(
        "core.split.reload_mcycles",
        reload as f64 / 1e6,
        "Mcycle",
    ));
    // The §4.6 decomposition needs an unprotected baseline of the same
    // programs (compute and serve only).
    let share = match norm_perf(c, "split") {
        Ok(_) => {
            let cycles = |tag| program_cycles(c, tag).iter().map(|p| p.1).sum::<u64>();
            arith::reload_share(reload, cycles("split"), cycles("unprot"))
        }
        Err(_) => 0.0,
    };
    out.push(metric("core.split.reload_share", share, "ratio"));
    out.push(metric(
        "bench.fleet.duration_mcycles",
        at("bench.fleet.duration_cycles") as f64 / 1e6,
        "Mcycle",
    ));
    out
}

/// The result line; `metrics` must all be defined.
fn json_line(r: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            let v = m.value.ok()?;
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        match &m.value {
            Ok(v) => println!("  {:<36} {:>16.6} {}", m.name, v, m.unit),
            Err(why) => println!("  {:<36} {:>16} {} ({why})", m.name, "n/a", m.unit),
        }
    }
}

/// FNV-1a over the reference counters: equal digests across runs with the
/// same seed mean the simulated results repeated exactly.
fn digest(c: &workloads::Counters) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in c {
        for b in k.bytes().chain(v.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn report(r: &Run, trace: bool) {
    println!(
        "perfbench workload={} seed={} passes={} traced_passes={} attempted={} failed={}",
        r.workload.name(),
        r.seed,
        r.walls.len(),
        r.traced_walls.len(),
        r.attempted,
        r.failed
    );
    for f in r.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    let e2e = end_to_end(r);
    let q = |v: &[f64]| {
        let (lo, hi) = arith::quartiles(v);
        format!(
            "n={} q1={lo:.6} median={:.6} q3={hi:.6}",
            v.len(),
            arith::median(v)
        )
    };
    print_table(
        &format!(
            "end-to-end (wall_s: fastest pass of {}; setup_s: median set-up of {})",
            q(&r.walls),
            q(&r.setup_s)
        ),
        &e2e,
    );
    println!(
        "simulated-results digest {:016x}",
        digest(&r.reference.counters)
    );
    let metrics: Vec<Metric> = if trace {
        let layers = per_layer(r);
        print_table(
            "per-layer (self time and calls per traced pass; counters per pass)",
            &layers,
        );
        let summed: Vec<String> = LAYER_SPANS
            .iter()
            .map(|l| format!("{l}_s"))
            .chain(["bench.self_s".to_string()])
            .collect();
        let self_sum: f64 = layers
            .iter()
            .filter(|m| summed.contains(&m.name))
            .filter_map(|m| m.value.ok())
            .sum();
        println!(
            "layer self times + bench.self_s = {self_sum:.6} s; traced wall_s = {:.6} s",
            arith::mean(&r.traced_walls)
        );
        if let Err(e) = dump_spans(r) {
            eprintln!("perfbench: span dump not written: {e}");
        }
        layers
    } else {
        e2e.into_iter()
            .filter(|m| JSON_END_TO_END.contains(&m.name.as_str()))
            .collect()
    };
    println!("{}", json_line(r, &metrics));
}

/// Write the traced run's spans (set-up, then traced passes) as JSONL.
fn dump_spans(r: &Run) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", r.workload.name(), r.seed));
    let mut text = spans::to_jsonl(&r.setup_spans, 0);
    text.push_str(&spans::to_jsonl(&r.pass_spans, r.setup_spans.len()));
    std::fs::write(&path, text)?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Run every workload at smoke sizes, traced, and report whether every op
/// passed its checks.
fn smoke() -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        let r = run(w, 7, 0.0, true, Sizes::smoke(), 1);
        let layers = per_layer(&r);
        let e2e = end_to_end(&r);
        println!(
            "smoke {:<8} attempted={} failed={} metrics={}",
            w.name(),
            r.attempted,
            r.failed,
            layers.len() + e2e.len()
        );
        for f in &r.failures {
            println!("  FAILED {f}");
        }
        ok &= r.failed == 0 && r.attempted > 0;
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
        Ok(None) => {
            if smoke() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Some(a)) => {
            let r = run(
                a.workload,
                a.seed,
                a.seconds,
                a.trace,
                Sizes::full(),
                MIN_PASSES,
            );
            report(&r, a.trace);
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_every_workload() {
        assert!(smoke());
    }

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload fleet --seed 9 --seconds 3 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&v("--workload nope")).is_err());
        assert!(parse_args(&v("--workload serve --trace 2")).is_err());
        assert!(parse_args(&v("--seed 1")).is_err());
    }
}
