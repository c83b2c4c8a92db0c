//! The benchmark's own arithmetic: medians, the Fig. 6 normalised
//! performance and the §4.6 reload-cost share.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles of `values` (medians of the lower and upper
/// halves; the middle value of an odd count belongs to neither).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2;
    if half == 0 {
        return (v[0], v[0]);
    }
    (median(&v[..half]), median(&v[v.len() - half..]))
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Normalised performance over a set of programs: the geometric mean of
/// `unprotected / protected` simulated cycles per program (the paper's
/// Fig. 6 quantity; 1.0 means no overhead). Pairs are matched by index.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn norm_perf(unprotected: &[u64], protected: &[u64]) -> f64 {
    assert_eq!(unprotected.len(), protected.len(), "unpaired programs");
    let ratios: Vec<f64> = unprotected
        .iter()
        .zip(protected)
        .map(|(&u, &p)| u as f64 / p as f64)
        .collect();
    sm_workloads::geometric_mean(&ratios)
}

/// Share of split memory's overhead that its reloads explain: modelled
/// reload cycles over the measured `split − unprotected` cycle difference.
/// 0 when split costs nothing over the baseline (no overhead to explain).
pub fn reload_share(reload_cycles: u64, split_cycles: u64, unprotected_cycles: u64) -> f64 {
    match split_cycles.checked_sub(unprotected_cycles) {
        Some(overhead) if overhead > 0 => reload_cycles as f64 / overhead as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_split_the_halves() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.5, 3.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn norm_perf_is_geometric_mean_of_ratios() {
        // Ratios 1.0 and 0.25 -> geometric mean 0.5.
        let n = norm_perf(&[100, 100], &[100, 400]);
        assert!((n - 0.5).abs() < 1e-12, "{n}");
        // No overhead anywhere is exactly 1.
        assert!((norm_perf(&[7, 9, 11], &[7, 9, 11]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reload_share_uses_the_overhead_as_base() {
        // 300 cycles of overhead, 150 of them reloads.
        assert!((reload_share(150, 1300, 1000) - 0.5).abs() < 1e-12);
        // No overhead (or a faster protected run): nothing to explain.
        assert_eq!(reload_share(10, 1000, 1000), 0.0);
        assert_eq!(reload_share(10, 900, 1000), 0.0);
    }
}
