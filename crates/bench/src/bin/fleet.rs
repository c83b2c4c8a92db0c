#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Fleet-scale multi-tenant simulation driver.
//!
//! Runs hundreds of tenants across sharded kernel cells under a seeded
//! open-loop arrival stream and prints the per-kind/per-fleet report
//! (latency percentiles, throughput, SLO misses, detection rates,
//! degradation events). Deterministic: the report is byte-identical for a
//! fixed seed regardless of `RAYON_NUM_THREADS` or `--shards`.
//!
//! ```text
//! cargo run --release -p sm-bench --bin fleet -- --tenants 500 --profile burst
//! ```
//!
//! Flags:
//! - `--tenants N` total tenant count (default 500)
//! - `--shards N` parallel execution groups (default 4)
//! - `--cell-tenants N` tenants per kernel cell (default 5)
//! - `--seed N` master seed (default 42)
//! - `--profile poisson|burst|ramp` arrival shape (default poisson)
//! - `--requests N` requests per tenant (default 6)
//! - `--mean N` mean inter-arrival cycles (default 120000)
//! - `--mix standard|forkstorm|oomramp` population mix (default standard)
//! - `--protection unprotected|split|observe|nx|combined` (default split)
//! - `--frames N` physical frames per cell (default 512)
//! - `--slo N` latency SLO in cycles (default 400000)
//! - `--pentium3` use the paper testbed's TLB geometry
//! - `--asid` ASID-tagged TLBs instead of flush-on-switch
//! - `--trace` per-cell tracing + stream-order checking
//! - `--check-invariants` run the invariant checker every driver window
//! - `--per-tenant` also print the per-tenant lines
//! - `--serial` use the single-threaded reference runner
//! - `--report PATH` write the full report (fleet + per-tenant) to a file;
//!   a path that cannot be written fails before the run, with exit 1
//! - `--quick` small smoke population (60 tenants, CI-sized)
//!
//! Exits non-zero on invariant violations, trace-order violations, or any
//! attacker payload executing under a protecting configuration.

use sm_bench::fleet::arrivals::Profile;
use sm_bench::fleet::{self, FleetConfig, Mix};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or_die<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("fleet: bad value for {flag}: {v}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |f: &str| args.iter().any(|a| a == f);

    let mut cfg = FleetConfig {
        tenants: parse_or_die(&args, "--tenants", 500),
        shards: parse_or_die(&args, "--shards", 4),
        tenants_per_cell: parse_or_die(&args, "--cell-tenants", 5),
        seed: parse_or_die(&args, "--seed", 42),
        requests_per_tenant: parse_or_die(&args, "--requests", 6),
        mean_interarrival: parse_or_die(&args, "--mean", 120_000),
        phys_frames: parse_or_die(&args, "--frames", 512),
        slo_cycles: parse_or_die(&args, "--slo", 400_000),
        trace: has("--trace"),
        check_invariants: has("--check-invariants"),
        asid_tlbs: has("--asid"),
        ..FleetConfig::default()
    };
    if has("--quick") {
        cfg.tenants = 60;
        cfg.shards = 3;
        cfg.requests_per_tenant = 4;
    }
    if let Some(p) = flag_value(&args, "--profile") {
        cfg.profile = Profile::parse(p).unwrap_or_else(|| {
            eprintln!("fleet: unknown profile {p} (poisson|burst|ramp)");
            std::process::exit(2);
        });
    }
    if let Some(m) = flag_value(&args, "--mix") {
        cfg.mix = Mix::parse(m).unwrap_or_else(|| {
            eprintln!("fleet: unknown mix {m} (standard|forkstorm|oomramp)");
            std::process::exit(2);
        });
    }
    if let Some(p) = flag_value(&args, "--protection") {
        cfg.protection = match p {
            "unprotected" => Protection::Unprotected,
            "split" => Protection::SplitMem(ResponseMode::Break),
            "observe" => Protection::SplitMem(ResponseMode::Observe),
            "nx" => Protection::Nx,
            "combined" => Protection::Combined(ResponseMode::Break),
            _ => {
                eprintln!("fleet: unknown protection {p}");
                std::process::exit(2);
            }
        };
    }
    if has("--pentium3") {
        cfg.tlb = TlbPreset::pentium3();
    }
    let report = flag_value(&args, "--report");
    if let Some(path) = report {
        sm_bench::cli::check_writable("fleet", path);
    }

    let result = if has("--serial") {
        fleet::run_serial(&cfg)
    } else {
        fleet::run(&cfg)
    };

    print!("{}", result.render());
    if has("--per-tenant") {
        print!("{}", result.render_tenants());
    }
    if let Some(path) = report {
        let full = format!("{}{}", result.render(), result.render_tenants());
        sm_bench::cli::write_artifact("fleet", path, full.as_bytes());
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
