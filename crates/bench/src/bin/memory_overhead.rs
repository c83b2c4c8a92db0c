#![deny(clippy::unwrap_used, clippy::expect_used)]
//! §5.1 memory-overhead comparison: unprotected vs eager split vs the
//! envisioned demand-allocated variant. Takes no arguments.
fn main() {
    sm_bench::cli::checked_args("memory_overhead", "usage: memory_overhead", &[], &[]);
    println!("§5.1 — memory overhead of page splitting (httpd, 4KB pages)\n");
    let rows = sm_bench::memory::run(4096, 25);
    println!("{}", sm_bench::memory::render(&rows));
}
