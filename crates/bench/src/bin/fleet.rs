#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Fleet-scale multi-tenant simulation driver.
//!
//! Runs hundreds of tenants across kernel cells, each driven to
//! completion on its own, under a seeded open-loop arrival stream and
//! prints the per-kind/per-fleet report (latency percentiles,
//! throughput, SLO misses, detection rates, degradation events).
//! Deterministic: the report is byte-identical for a fixed seed
//! regardless of `RAYON_NUM_THREADS`.
//!
//! ```text
//! cargo run --release -p sm-bench --bin fleet -- --tenants 500 --profile burst
//! ```
//!
//! Flags:
//! - `--tenants N` total tenant count (default 500)
//! - `--cell-tenants N` tenants per kernel cell, at least 1 (default 5)
//! - `--seed N` master seed (default 42)
//! - `--profile poisson|burst|ramp` arrival shape (default poisson)
//! - `--requests N` requests per tenant (default 6)
//! - `--mean N` mean inter-arrival cycles (default 120000)
//! - `--mix standard|forkstorm|oomramp` population mix (default standard)
//! - `--protection unprotected|split|observe|nx|combined` (default split)
//! - `--frames N` physical frames per cell, at least 1 (default 512)
//! - `--slo N` latency SLO in cycles (default 400000)
//! - `--pentium3` use the paper testbed's TLB geometry
//! - `--asid` ASID-tagged TLBs instead of flush-on-switch
//! - `--trace` per-cell tracing + stream-order checking
//! - `--check-invariants` run the invariant checker every driver window
//! - `--per-tenant` also print the per-tenant lines
//! - `--report PATH` write the full report (fleet + per-tenant) to a file;
//!   a path that cannot be written fails before the run, with exit 1
//! - `--quick` small smoke population: the defaults of `--tenants` and
//!   `--requests` become 60 and 4 (CI-sized); explicit flags still win
//!
//! An unknown argument, or a valued flag without its value, is a usage
//! error: exit 2 before anything runs. Otherwise exits non-zero on
//! invariant violations, trace-order violations, or any attacker payload
//! executing under a protecting configuration.

use sm_bench::cli;
use sm_bench::fleet::arrivals::Profile;
use sm_bench::fleet::{self, FleetConfig, Mix};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;

const USAGE: &str = "usage: fleet [--quick] [--tenants N] [--cell-tenants N] [--seed N]
             [--profile poisson|burst|ramp] [--requests N] [--mean N]
             [--mix standard|forkstorm|oomramp]
             [--protection unprotected|split|observe|nx|combined]
             [--frames N] [--slo N] [--pentium3] [--asid] [--trace]
             [--check-invariants] [--per-tenant] [--report PATH]";

fn usage_error(msg: &str) -> ! {
    cli::usage_error("fleet", USAGE, msg)
}

/// The value of `flag` if it is given; a flag without one is a usage
/// error.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    Some(cli::flag_value(args, i, flag).unwrap_or_else(|e| usage_error(&e)))
}

fn parse_or_die<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("bad value for {flag}: {v}"))),
    }
}

fn main() {
    let args = cli::checked_args(
        "fleet",
        USAGE,
        &[
            "--quick",
            "--pentium3",
            "--asid",
            "--trace",
            "--check-invariants",
            "--per-tenant",
        ],
        &[
            "--tenants",
            "--cell-tenants",
            "--seed",
            "--profile",
            "--requests",
            "--mean",
            "--mix",
            "--protection",
            "--frames",
            "--slo",
            "--report",
        ],
    );
    let has = |f: &str| args.iter().any(|a| a == f);
    let quick = has("--quick");

    let mut cfg = FleetConfig {
        tenants: parse_or_die(&args, "--tenants", if quick { 60 } else { 500 }),
        tenants_per_cell: parse_or_die(&args, "--cell-tenants", 5),
        seed: parse_or_die(&args, "--seed", 42),
        requests_per_tenant: parse_or_die(&args, "--requests", if quick { 4 } else { 6 }),
        mean_interarrival: parse_or_die(&args, "--mean", 120_000),
        phys_frames: parse_or_die(&args, "--frames", 512),
        slo_cycles: parse_or_die(&args, "--slo", 400_000),
        trace: has("--trace"),
        check_invariants: has("--check-invariants"),
        asid_tlbs: has("--asid"),
        ..FleetConfig::default()
    };
    if cfg.tenants_per_cell == 0 {
        usage_error("--cell-tenants must be at least 1");
    }
    if cfg.phys_frames == 0 {
        usage_error("--frames must be at least 1");
    }
    if let Some(p) = value(&args, "--profile") {
        cfg.profile =
            Profile::parse(p).unwrap_or_else(|| usage_error(&format!("unknown profile {p}")));
    }
    if let Some(m) = value(&args, "--mix") {
        cfg.mix = Mix::parse(m).unwrap_or_else(|| usage_error(&format!("unknown mix {m}")));
    }
    if let Some(p) = value(&args, "--protection") {
        cfg.protection = match p {
            "unprotected" => Protection::Unprotected,
            "split" => Protection::SplitMem(ResponseMode::Break),
            "observe" => Protection::SplitMem(ResponseMode::Observe),
            "nx" => Protection::Nx,
            "combined" => Protection::Combined(ResponseMode::Break),
            _ => usage_error(&format!("unknown protection {p}")),
        };
    }
    if has("--pentium3") {
        cfg.tlb = TlbPreset::pentium3();
    }
    let report = value(&args, "--report");
    if let Some(path) = report {
        cli::check_writable("fleet", path);
    }

    let result = fleet::run(&cfg);

    print!("{}", result.render());
    if has("--per-tenant") {
        print!("{}", result.render_tenants());
    }
    if let Some(path) = report {
        let full = format!("{}{}", result.render(), result.render_tenants());
        cli::write_artifact("fleet", path, full.as_bytes());
    }

    let mut failed = false;
    for v in &result.violations {
        eprintln!("INVARIANT: {v}");
        failed = true;
    }
    for v in &result.trace_violations {
        eprintln!("TRACE-ORDER: {v}");
        failed = true;
    }
    let protecting = !matches!(cfg.protection, Protection::Unprotected);
    let injected: u32 = result.tenants.iter().map(|t| t.injected).sum();
    if protecting && injected > 0 {
        eprintln!(
            "ATTACK SUCCEEDED: {injected} payload(s) executed under {}",
            cfg.protection.label()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
