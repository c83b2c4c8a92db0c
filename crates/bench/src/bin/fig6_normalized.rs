#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 6 (normalized performance).
//!
//! `--shards N` instead runs the fig6 Apache workload once
//! serial-verified and once segment-parallel (the PR 7 sharded
//! scheduler), printing the timing comparison and exiting non-zero if
//! the two runs were not byte-identical.

use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;

const USAGE: &str = "usage: fig6_normalized [--shards N]";

fn main() {
    let args = sm_bench::cli::checked_args("fig6_normalized", USAGE, &[], &["--shards"]);
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        let n = match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => n,
            _ => {
                eprintln!("fig6_normalized: --shards needs a segment count >= 1");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        };
        std::process::exit(sharded_probe(n));
    }
    println!("Fig. 6 — normalized performance, stand-alone split memory\n");
    let bars = sm_bench::fig6::run(sm_bench::fig6::Fig6Params::default());
    println!("{}", sm_bench::fig6::render(&bars));
}

fn sharded_probe(shards: usize) -> i32 {
    let split = Protection::SplitMem(ResponseMode::Break);
    let p = sm_bench::shards::fig6_sharded_probe(
        &split,
        TlbPreset::default(),
        sm_bench::shards::FIG6_PROBE_REQUESTS,
        sm_bench::shards::FIG6_PROBE_STRIDE,
        shards,
    );
    println!(
        "Fig. 6 sharded-verification probe ({shards} shards, {} rayon threads)\n",
        p.threads
    );
    println!("  serial-verified:  {:>9.1} ms", p.serial_ms);
    println!(
        "  sharded-verified: {:>9.1} ms ({} segments)",
        p.sharded_ms, p.segments
    );
    println!("  speedup:          {:>9.2}x", p.speedup);
    println!(
        "  outputs:          {}",
        if p.identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    if p.identical {
        0
    } else {
        1
    }
}
