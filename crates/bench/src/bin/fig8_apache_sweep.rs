#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 8 (Apache page-size sweep). Takes no
//! arguments.
fn main() {
    sm_bench::cli::checked_args("fig8_apache_sweep", "usage: fig8_apache_sweep", &[], &[]);
    println!("Fig. 8 — Apache throughput vs served page size\n");
    let points = sm_bench::fig8::run(30);
    println!("{}", sm_bench::fig8::render(&points));
}
