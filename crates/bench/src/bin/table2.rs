#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Table 2 (five real-world vulnerabilities).
//! Takes no arguments.
fn main() {
    sm_bench::cli::checked_args("table2", "usage: table2", &[], &[]);
    println!("Table 2 — five real-world vulnerabilities\n");
    let t = sm_bench::table2::run();
    println!("{}", sm_bench::table2::render(&t));
    assert!(t.matches_paper(), "TABLE 2 DOES NOT MATCH THE PAPER");
    println!("all five: root shell unprotected, foiled + detected under split memory");
}
