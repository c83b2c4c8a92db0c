#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 7 (context-switch stress tests) on the
//! fully-associative compat geometry, then the TLB miss-class anatomy on
//! the paper's Pentium III testbed geometry. The bars themselves are the
//! same on both geometries (`tests/performance_shape.rs` pins that), so
//! they are shown once. Takes no arguments.
use sm_machine::TlbPreset;

fn main() {
    sm_bench::cli::checked_args("fig7_stress", "usage: fig7_stress", &[], &[]);
    println!("Fig. 7 — context-switch stress tests\n");
    println!("-- fully-associative 64-entry TLBs (compat preset) --\n");
    let bars = sm_bench::fig7::run(60);
    println!("{}", sm_bench::fig7::render(&bars));

    println!("-- TLB miss anatomy (pentium3, split-protected) --\n");
    let diags = sm_bench::fig7::tlb_diagnostics(TlbPreset::pentium3(), 60);
    println!("{}", sm_bench::fig7::render_diagnostics(&diags));
}
