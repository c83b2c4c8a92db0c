//! Seeded, deterministic open-loop request-arrival streams.
//!
//! Every tenant gets its own absolute-cycle arrival schedule, precomputed
//! from a per-tenant RNG fork before any kernel runs. The schedule is a
//! pure function of `(fleet seed, tenant id, profile, request count)` —
//! it cannot depend on thread count, the order cells run in, or anything
//! the simulation does — which is half of the fleet determinism argument.
//!
//! Integer-only sampling: the Poisson profile draws exponential
//! inter-arrivals through a precomputed 64-entry quantile table in 10.10
//! fixed point instead of calling `ln` (transcendental libm results are
//! not bit-identical across platforms; table lookups are).

use sm_rng::StdRng;

/// Arrival-stream shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Memoryless open-loop traffic: exponential inter-arrivals around
    /// the configured mean (an M/G/1 queue per tenant).
    Poisson,
    /// Closely-spaced clusters of [`BURST_SIZE`] requests separated by
    /// long idle gaps — the worst case for per-tenant queueing.
    Burst,
    /// Inter-arrival time shrinks linearly over the run from 1.5x the
    /// mean down to 0.25x — a load ramp that ends in overload.
    Ramp,
}

impl Profile {
    /// Parse a CLI profile name.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "poisson" => Some(Profile::Poisson),
            "burst" => Some(Profile::Burst),
            "ramp" => Some(Profile::Ramp),
            _ => None,
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Profile::Poisson => "poisson",
            Profile::Burst => "burst",
            Profile::Ramp => "ramp",
        }
    }
}

/// Requests per burst cluster under [`Profile::Burst`].
pub const BURST_SIZE: u64 = 4;

/// Quantiles of Exp(1) at the 64 midpoints (i + 0.5)/64, in 10.10 fixed
/// point (value 1024 == mean 1.0). Sampling an index uniformly and
/// scaling by the mean inter-arrival yields exponential-ish gaps with the
/// right mean (the table's own mean is 0.9946) and a capped tail at
/// ~4.85x — integer-only and platform-exact.
const EXP_Q: [u32; 64] = [
    8, 24, 41, 58, 75, 92, 110, 128, 146, 165, 184, 203, 223, 243, 263, 284, 305, 327, 349, 372,
    395, 419, 444, 469, 494, 520, 547, 575, 603, 633, 663, 694, 726, 759, 793, 828, 865, 903, 942,
    983, 1026, 1070, 1117, 1166, 1217, 1271, 1328, 1388, 1452, 1520, 1594, 1672, 1758, 1851, 1953,
    2067, 2195, 2342, 2513, 2719, 2976, 3320, 3844, 4968,
];

/// One exponential inter-arrival draw around `mean` cycles.
fn exp_gap(rng: &mut StdRng, mean: u64) -> u64 {
    let q = EXP_Q[(rng.next_u64() >> 58) as usize] as u64;
    (mean * q) >> 10
}

/// Build a tenant's full arrival schedule: `requests` absolute cycle
/// timestamps, strictly increasing from cycle 0.
pub fn schedule(rng: &mut StdRng, profile: Profile, requests: u32, mean: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(requests as usize);
    let mut t = 0u64;
    for j in 0..requests as u64 {
        let gap = match profile {
            Profile::Poisson => exp_gap(rng, mean),
            Profile::Burst => {
                if j % BURST_SIZE == 0 {
                    // Long idle gap before the cluster, then the cluster
                    // arrives nearly back-to-back.
                    mean * BURST_SIZE + exp_gap(rng, mean)
                } else {
                    mean / 16 + (rng.next_u64() % (mean / 16).max(1))
                }
            }
            Profile::Ramp => {
                // 1.5x mean at j=0 shrinking linearly to 0.25x at the
                // final request, with +-1/8 mean of uniform jitter.
                let total = requests.max(2) as u64 - 1;
                let base = mean + mean / 2 - (j * (mean + mean / 4)) / total;
                let jitter = rng.next_u64() % (mean / 4).max(1);
                base.saturating_sub(mean / 8) + jitter
            }
        };
        t += gap.max(1);
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn schedules_are_deterministic() {
        for profile in [Profile::Poisson, Profile::Burst, Profile::Ramp] {
            let a = schedule(&mut rng(7), profile, 32, 100_000);
            let b = schedule(&mut rng(7), profile, 32, 100_000);
            assert_eq!(a, b, "{profile:?}");
        }
    }

    #[test]
    fn schedules_are_strictly_increasing() {
        for profile in [Profile::Poisson, Profile::Burst, Profile::Ramp] {
            let s = schedule(&mut rng(3), profile, 64, 50_000);
            assert_eq!(s.len(), 64);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{profile:?}");
        }
    }

    #[test]
    fn poisson_mean_is_close() {
        // Average gap over many draws should land within 15% of the mean.
        let mean = 10_000u64;
        let s = schedule(&mut rng(11), Profile::Poisson, 4000, mean);
        let avg = s.last().unwrap() / 4000;
        assert!(
            (mean * 85 / 100..=mean * 115 / 100).contains(&avg),
            "avg gap {avg} vs mean {mean}"
        );
    }

    #[test]
    fn burst_clusters_are_tight() {
        let mean = 64_000u64;
        let s = schedule(&mut rng(5), Profile::Burst, 16, mean);
        // Within a cluster the gap is < mean/8; between clusters > mean.
        for (j, w) in s.windows(2).enumerate() {
            let gap = w[1] - w[0];
            if (j as u64 + 1).is_multiple_of(BURST_SIZE) {
                assert!(gap > mean, "cluster boundary gap {gap}");
            } else {
                assert!(gap <= mean / 8, "in-cluster gap {gap}");
            }
        }
    }

    #[test]
    fn ramp_tightens() {
        let mean = 80_000u64;
        let s = schedule(&mut rng(9), Profile::Ramp, 40, mean);
        let first = s[1] - s[0];
        let last = s[39] - s[38];
        assert!(
            last < first,
            "ramp should tighten: first gap {first}, last {last}"
        );
    }
}
