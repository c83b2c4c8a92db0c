#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 9 (split-fraction sweep under NX+split).
//! Takes no arguments.
fn main() {
    sm_bench::cli::checked_args(
        "fig9_split_fraction",
        "usage: fig9_split_fraction",
        &[],
        &[],
    );
    println!("Fig. 9 — pipe-ctxsw vs fraction of pages split\n");
    let points = sm_bench::fig9::run(50, 8);
    println!("{}", sm_bench::fig9::render(&points));
}
