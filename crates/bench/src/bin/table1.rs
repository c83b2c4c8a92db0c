#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Table 1 (Wilander benchmark grid). Takes no
//! arguments.
fn main() {
    sm_bench::cli::checked_args("table1", "usage: table1", &[], &[]);
    println!("Table 1 — benchmark attacks foiled by split memory, by injection segment\n");
    let t = sm_bench::table1::run();
    println!("{}", sm_bench::table1::render(&t));
    println!(
        "{} attacks foiled, {} N/A (paper: all applicable attacks foiled, 4 N/A)",
        t.foiled(),
        t.not_applicable()
    );
    assert!(t.matches_paper(), "TABLE 1 DOES NOT MATCH THE PAPER");
}
