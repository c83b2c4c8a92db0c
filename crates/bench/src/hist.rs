//! Deterministic streaming-percentile histogram, shared by fleet
//! reporting and `BENCH_summary.json`.
//!
//! Fixed-bucket, integer-only: the hot path is a handful of shifts and
//! one array increment — no floats, no allocation after construction, no
//! data-dependent branches beyond the small/large split — so recording a
//! latency sample is cheap enough to run per-request at fleet scale and
//! the resulting report is bit-identical across platforms and thread
//! counts (merging histograms is element-wise addition, which commutes).
//!
//! Bucket layout (HDR-style, base-2): values below `LINEAR_MAX` (32) get
//! an exact bucket each; every power-of-two octave above that is split
//! into `SUBBUCKETS` (32) equal sub-buckets, bounding the relative
//! quantization error of any reported percentile by `1/SUBBUCKETS` (~3%).

/// Values below this are counted exactly (one bucket per value).
const LINEAR_MAX: u64 = 32;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBBUCKETS: u64 = 32;
/// log2(LINEAR_MAX) — octaves below this are inside the linear range.
const LINEAR_BITS: u32 = 5;
/// Octaves: values up to 2^63; bucket count = linear + per-octave.
const OCTAVES: u32 = 64 - LINEAR_BITS;
/// Total bucket count.
const BUCKETS: usize = (LINEAR_MAX + OCTAVES as u64 * SUBBUCKETS) as usize;

/// A fixed-memory streaming histogram over `u64` samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// Map a sample to its bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // msb >= LINEAR_BITS here. The octave's low edge is 2^msb; its width
    // 2^msb is split into SUBBUCKETS slices of 2^(msb-5) each.
    let msb = 63 - v.leading_zeros();
    let octave = (msb - LINEAR_BITS) as u64;
    let sub = (v >> (msb - LINEAR_BITS)) & (SUBBUCKETS - 1);
    (LINEAR_MAX + octave * SUBBUCKETS + sub) as usize
}

/// The (inclusive) upper edge of a bucket — what percentiles report.
#[inline]
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        return idx;
    }
    let octave = (idx - LINEAR_MAX) / SUBBUCKETS;
    let sub = (idx - LINEAR_MAX) % SUBBUCKETS;
    let msb = octave as u32 + LINEAR_BITS;
    let low = (1u64 << msb) + (sub << (msb - LINEAR_BITS));
    low + (1u64 << (msb - LINEAR_BITS)) - 1
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at percentile `p` (0–100): the upper edge of the bucket
    /// holding the sample of rank `ceil(p/100 * count)`, clamped to the
    /// observed max so `percentile(100) == max()` exactly. 0 when empty.
    /// Integer rank walk — no floats.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.min(100) as u64;
        // rank = ceil(p * count / 100), at least 1.
        let rank = ((p * self.count).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (element-wise; commutative
    /// and associative, so merge order can't change the report).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.percentile(50))
            .field("p95", &self.percentile(95))
            .field("p99", &self.percentile(99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), LINEAR_MAX - 1);
        // 32 samples 0..=31: the median rank (16th sample) is value 15.
        assert_eq!(h.percentile(50), 15);
        assert_eq!(h.percentile(100), 31);
    }

    #[test]
    fn single_sample_every_percentile() {
        let mut h = Hist::new();
        h.record(123_456);
        for p in [0, 1, 50, 95, 99, 100] {
            let got = h.percentile(p);
            assert!(
                (123_456..=123_456 + 123_456 / 16).contains(&got),
                "p{p} = {got}"
            );
        }
    }

    #[test]
    fn bucket_mapping_is_monotonic_and_bounded() {
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0..63 {
            for jitter in [0u64, 1, 3] {
                vals.push((1u64 << shift) + jitter);
            }
        }
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= prev, "bucket map not monotonic at {v}");
            prev = b;
            // The bucket's upper edge never understates the value.
            let high = bucket_high(b);
            assert!(high >= v, "bucket_high({b}) = {high} < {v}");
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_within_one_subbucket() {
        let mut h = Hist::new();
        for i in 0..10_000u64 {
            h.record(i * 97 + 13);
        }
        // Exact p99 of this arithmetic progression: rank 9900 → value
        // 9899*97+13 = 960316. The histogram may overshoot by at most one
        // sub-bucket (1/32 ≈ 3.2%).
        let exact = 9899u64 * 97 + 13;
        let got = h.percentile(99);
        assert!(got >= exact, "p99 {got} understates exact {exact}");
        assert!(
            got - exact <= exact / 16,
            "p99 {got} overshoots exact {exact} by more than a sub-bucket"
        );
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for i in 0..5_000u64 {
            let v = (i * 2654435761) % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [1, 25, 50, 75, 90, 95, 99, 100] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p} differs");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for i in 0..1_000u64 {
            a.record(i * 31);
            b.record(i * 17 + 5);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for p in [50, 95, 99] {
            assert_eq!(ab.percentile(p), ba.percentile(p));
        }
        assert_eq!(ab.sum(), ba.sum());
    }

    #[test]
    fn max_pins_p100() {
        let mut h = Hist::new();
        h.record(1_000_003);
        h.record(7);
        h.record(999);
        assert_eq!(h.percentile(100), 1_000_003);
        assert_eq!(h.min(), 7);
    }
}
