//! Benchmark harness: one module per table/figure of the paper's
//! evaluation (§6), returning structured results the binaries print and
//! the integration tests assert on.
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table 1 (Wilander benchmark) | [`table1`] | `cargo run -p sm-bench --bin table1` |
//! | Table 2 (five real-world attacks) | [`table2`] | `... --bin table2` |
//! | Engine × attack matrix (§7 scope boundary) | [`matrix`] | part of `all_experiments` |
//! | Fig. 5 (response modes on WU-FTPD) | [`fig5`] | `... --bin fig5_response_modes` |
//! | Fig. 6 (normalized performance) | [`fig6`] | `... --bin fig6_normalized` |
//! | Fig. 7 (context-switch stress) | [`fig7`] | `... --bin fig7_stress` |
//! | Fig. 8 (Apache page-size sweep) | [`fig8`] | `... --bin fig8_apache_sweep` |
//! | Fig. 9 (split-fraction sweep) | [`fig9`] | `... --bin fig9_split_fraction` |
//! | §4.2.4 / §4.6 / §4.7 design ablations | [`ablation`] | `... --bin ablation` |
//! | §5.1 memory overhead (eager vs demand-allocated) | [`memory`] | `... --bin memory_overhead` |
//!
//! Run everything with `cargo run --release -p sm-bench --bin all_experiments`.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod cli;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod hist;
pub mod interference;
pub mod matrix;
pub mod memory;
pub mod report;
pub mod summary;
pub mod table1;
pub mod table2;
