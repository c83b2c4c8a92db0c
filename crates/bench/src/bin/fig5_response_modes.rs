#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Regenerates the paper's Fig. 5 (response modes against WU-FTPD).
//! `--trace` appends a flight-recorded break-mode run: the tail of the
//! cycle-stamped `sm-trace` ring around the detection, validated against
//! the event-ordering protocol.
fn main() {
    let args = sm_bench::cli::checked_args(
        "fig5_response_modes",
        "usage: fig5_response_modes [--trace]",
        &["--trace"],
        &[],
    );
    println!("Fig. 5 — response modes against the WU-FTPD exploit\n");
    let f = sm_bench::fig5::run();
    println!("{}", sm_bench::fig5::render(&f));
    if args.iter().any(|a| a == "--trace") {
        println!("{}", sm_bench::fig5::trace_demo());
    }
}
