#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 6 (normalized performance). Takes no
//! arguments.

fn main() {
    sm_bench::cli::checked_args("fig6_normalized", "usage: fig6_normalized", &[], &[]);
    println!("Fig. 6 — normalized performance, stand-alone split memory\n");
    let bars = sm_bench::fig6::run(sm_bench::fig6::Fig6Params::default());
    println!("{}", sm_bench::fig6::render(&bars));
}
