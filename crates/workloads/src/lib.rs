//! Performance workloads for the split-memory evaluation (paper §6.2).
//!
//! Each workload runs as real guest processes on the simulated machine and
//! reports deterministic cycle counts plus the hardware/kernel counters
//! that explain them:
//!
//! * [`httpd`] — Apache-like server + ApacheBench-like client (Figs. 6–8);
//! * [`gzip`] — `cat file | gzip` compression pipeline (Fig. 6);
//! * [`nbench`] — compute-bound suite (Fig. 6);
//! * [`unixbench`] — syscall/pipe/context-switch/spawn/exec/fs micro suite
//!   (Fig. 6 index, Fig. 7 worst case, Fig. 9 sweep);
//! * [`tlbprobe`] — strided set-conflict stress probe (Fig. 7 TLB counter
//!   diagnostics on set-associative geometries).

#![forbid(unsafe_code)]

pub mod gzip;
pub mod httpd;
pub mod nbench;
pub mod runner;
pub mod tlbprobe;
pub mod unixbench;

pub use runner::{geometric_mean, normalized, WorkloadResult};
