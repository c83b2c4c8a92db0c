//! Fig. 9: "Unixbench pipe ctxsw with varying percentages of pages being
//! split" (paper §6.2).
//!
//! The combined configuration: a random fraction of pages is split while
//! the execute-disable bit covers the rest. "Performance increases
//! dramatically when a small percentage of an application's pages are
//! being split. When only 10 percent of the pages are split ... even this
//! 'worst case' test is able to execute at about 80 percent of full
//! speed."
//!
//! Which pages get drawn is random, so each fraction is averaged over
//! several kernel seeds (the paper averaged 10 runs of every benchmark).

use rayon::prelude::*;
use sm_core::setup::Protection;
use sm_workloads::normalized;
use sm_workloads::unixbench::{run_unixbench_seeded, UnixbenchTest};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Fraction of pages split (0.0–1.0).
    pub fraction: f64,
    /// Mean normalized performance across seeds.
    pub normalized: f64,
    /// Per-seed values (spread diagnostics).
    pub samples: Vec<f64>,
}

/// Fractions the sweep visits.
pub const FRACTIONS: [f64; 7] = [0.0, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0];

/// Run the sweep: `iterations` ctxsw iterations, `seeds` runs per point.
/// `(fraction, seed)` samples are independent (each owns its seeded
/// kernel) and fan out across threads; points keep `FRACTIONS` order,
/// samples keep seed order.
pub fn run(iterations: u32, seeds: u64) -> Vec<Point> {
    let base = run_unixbench_seeded(
        &Protection::Unprotected,
        UnixbenchTest::PipeContextSwitch,
        iterations,
        1,
    );
    FRACTIONS
        .par_iter()
        .map(|&fraction| {
            let samples: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let p = run_unixbench_seeded(
                        &Protection::CombinedFraction(fraction),
                        UnixbenchTest::PipeContextSwitch,
                        iterations,
                        seed * 7919 + 13,
                    );
                    normalized(&p, &base)
                })
                .collect();
            Point {
                fraction,
                normalized: samples.iter().sum::<f64>() / samples.len() as f64,
                samples,
            }
        })
        .collect()
}

/// Render the figure.
pub fn render(points: &[Point]) -> String {
    let series: Vec<(String, f64)> = points
        .iter()
        .map(|p| (format!("{:>3.0}%", p.fraction * 100.0), p.normalized))
        .collect();
    let mut out = crate::report::render_series(
        "pipe-ctxsw normalized performance vs fraction of pages split (NX covers the rest)",
        "split",
        &series,
    );
    out.push_str("\npaper: ~0.80 of full speed at 10% split, degrading towards the\nall-split stand-alone figure as the fraction grows\n");
    out
}
