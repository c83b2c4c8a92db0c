//! Fig. 6: "Normalized performance for applications and benchmarks"
//! (paper §6.2).
//!
//! Four bars, each the protected system's throughput relative to the
//! unprotected system in stand-alone split-memory mode:
//! Apache serving a 32 KB page (paper ≈ 0.89), gzip (≈ 0.87), the slowest
//! nbench test (≈ 0.97) and the Unixbench index (≈ 0.82).

use rayon::prelude::*;
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_machine::trace::mask;
use sm_workloads::nbench::{run_nbench, NbenchKernel};
use sm_workloads::runner::workload_kconfig;
use sm_workloads::unixbench::{run_unixbench, UnixbenchTest};
use sm_workloads::{geometric_mean, gzip, httpd, normalized};

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Workload label.
    pub name: String,
    /// Measured normalized performance.
    pub normalized: f64,
    /// The value the paper reports for its testbed.
    pub paper: f64,
}

/// Scale knobs so tests can run a quick version.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Params {
    /// Apache requests.
    pub requests: u32,
    /// gzip input size in KiB.
    pub gzip_kb: u32,
    /// nbench iterations (numeric-sort outer loops; the others are scaled
    /// relative to it).
    pub nbench_iters: u32,
    /// Unixbench iterations for cheap tests (expensive tests are scaled
    /// down internally).
    pub ub_iters: u32,
}

impl Default for Fig6Params {
    fn default() -> Fig6Params {
        Fig6Params {
            requests: 40,
            gzip_kb: 64,
            nbench_iters: 300,
            ub_iters: 2500,
        }
    }
}

impl Fig6Params {
    /// Reduced workload for smoke tests.
    pub fn quick() -> Fig6Params {
        Fig6Params {
            requests: 10,
            gzip_kb: 16,
            nbench_iters: 40,
            ub_iters: 400,
        }
    }
}

/// Per-kernel iterations for the nbench bar: integer arithmetic runs
/// 50 × `base`, the other kernels `base`. Public, like
/// [`ub_iterations_for`], so tools can reproduce the exact sub-runs.
pub fn nbench_iterations_for(kernel: NbenchKernel, base: u32) -> u32 {
    match kernel {
        NbenchKernel::IntArithmetic => base * 50,
        _ => base,
    }
}

/// Per-test iteration scaling for the Unixbench index (expensive tests
/// are scaled down so the index stays in budget). Public so profiling
/// tools can reproduce the exact per-test workloads.
pub fn ub_iterations_for(test: UnixbenchTest, base: u32) -> u32 {
    match test {
        UnixbenchTest::Syscall => base,
        UnixbenchTest::Dhrystone => base / 2,
        UnixbenchTest::Whetstone => base * 2,
        UnixbenchTest::PipeThroughput => base / 4,
        UnixbenchTest::PipeContextSwitch | UnixbenchTest::Spawn | UnixbenchTest::Execl => {
            (base / 40).max(10)
        }
        UnixbenchTest::FsThroughput => (base / 20).max(10),
    }
}

/// Unixbench index (geometric mean of per-test normalized scores), as real
/// Unixbench aggregates. Per-test ratios fan out across threads; the
/// geometric mean is order-insensitive, but the ratio vector keeps
/// `UnixbenchTest::ALL` order anyway.
pub fn unixbench_index(base: &Protection, prot: &Protection, iters: u32) -> f64 {
    let ratios: Vec<f64> = UnixbenchTest::ALL
        .par_iter()
        .map(|t| {
            let n = ub_iterations_for(*t, iters);
            let b = run_unixbench(base, *t, n);
            let p = run_unixbench(prot, *t, n);
            normalized(&p, &b)
        })
        .collect();
    geometric_mean(&ratios)
}

/// Run the figure. The four bars are independent workload families, so
/// they fan out across threads (each sub-run owns its kernel); the bar
/// order is the paper's fixed order regardless of completion order.
pub fn run(params: Fig6Params) -> Vec<Bar> {
    let base = Protection::Unprotected;
    let prot = Protection::SplitMem(ResponseMode::Break);

    type BarJob = Box<dyn Fn() -> Bar + Send + Sync>;
    let (b1, p1) = (base.clone(), prot.clone());
    let (b2, p2) = (base.clone(), prot.clone());
    let (b3, p3) = (base.clone(), prot.clone());
    let jobs: Vec<BarJob> = vec![
        Box::new(move || {
            let ab = httpd::run_httpd(&b1, 32 * 1024, params.requests);
            let ap = httpd::run_httpd(&p1, 32 * 1024, params.requests);
            Bar {
                name: "apache (32KB page)".into(),
                normalized: normalized(&ap, &ab),
                paper: 0.89,
            }
        }),
        Box::new(move || {
            let gb = gzip::run_gzip(&b2, params.gzip_kb);
            let gp = gzip::run_gzip(&p2, params.gzip_kb);
            Bar {
                name: "gzip".into(),
                normalized: normalized(&gp, &gb),
                paper: 0.87,
            }
        }),
        Box::new(move || {
            // The paper quotes the *slowest* nbench test.
            let slowest = NbenchKernel::ALL
                .par_iter()
                .map(|nk| {
                    let iters = nbench_iterations_for(*nk, params.nbench_iters);
                    let b = run_nbench(&b3, *nk, iters);
                    let p = run_nbench(&p3, *nk, iters);
                    normalized(&p, &b)
                })
                .collect::<Vec<f64>>()
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            Bar {
                name: "nbench (slowest test)".into(),
                normalized: slowest,
                paper: 0.97,
            }
        }),
        Box::new(move || Bar {
            name: "unixbench index".into(),
            normalized: unixbench_index(&base, &prot, params.ub_iters),
            paper: 0.82,
        }),
    ];
    jobs.par_iter().map(|job| job()).collect()
}

/// Apache requests in [`verified_run`], as in the Apache bar.
const VERIFIED_REQUESTS: u32 = 40;

/// Cycles per checked slice in [`verified_run`]: fine enough that the
/// per-slice checks, not execution, set its host time.
pub const VERIFIED_STRIDE: u64 = 2_000;

/// Trace ring capacity in [`verified_run`]. The run emits about eight
/// times as many records, so the ring wraps and most slices are checked
/// against a ring that has dropped its head.
const VERIFIED_RING: usize = 4096;

/// What [`verified_run`] reports.
#[derive(Debug, Clone)]
pub struct VerifiedRun {
    /// How the run ended.
    pub exit: RunExit,
    /// Invariant and trace-order violations at the last slice.
    pub violations: usize,
    /// Trace records emitted over the whole run.
    pub emitted: u64,
    /// Trace records the ring dropped.
    pub dropped: u64,
}

/// The Apache bar's workload (server and client, 32 KB page, 40
/// requests) under split(break), every trace layer on in a ring of 4 096
/// records, run in [`VERIFIED_STRIDE`]-cycle slices with every invariant
/// and the trace order checked after each
/// ([`invariants::run_with_checks`]).
///
/// # Panics
///
/// Panics if the server or client image does not spawn on a fresh kernel.
pub fn verified_run() -> VerifiedRun {
    let split = Protection::SplitMem(ResponseMode::Break);
    let mut k = split.kernel(KernelConfig {
        trace: mask::ALL,
        trace_capacity: VERIFIED_RING,
        ..workload_kconfig()
    });
    let page_size = 32 * 1024;
    k.spawn(&httpd::server_program(page_size, VERIFIED_REQUESTS).image)
        .expect("server spawns");
    k.spawn(&httpd::client_program(page_size, VERIFIED_REQUESTS).image)
        .expect("client spawns");
    let (exit, violations) = invariants::run_with_checks(&mut k, 20_000_000_000, VERIFIED_STRIDE);
    let tracer = &k.sys.machine.tracer;
    VerifiedRun {
        exit,
        violations: violations.len(),
        emitted: tracer.emitted(),
        dropped: tracer.dropped(),
    }
}

/// Render the figure.
pub fn render(bars: &[Bar]) -> String {
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.3}", b.normalized),
                format!("{:.2}", b.paper),
            ]
        })
        .collect();
    let table = crate::report::render_table(&["workload", "measured", "paper"], &rows);
    let series: Vec<(String, f64)> = bars
        .iter()
        .map(|b| (b.name.clone(), b.normalized))
        .collect();
    format!(
        "{table}\n{}",
        crate::report::render_series(
            "normalized performance (1.0 = unprotected)",
            "workload",
            &series
        )
    )
}
