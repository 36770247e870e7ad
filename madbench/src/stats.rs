//! Order statistics over exact samples.

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds
/// (0 for an empty sample, so an inapplicable metric reads 0).
pub fn pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    mad_obs::percentile_sorted(sorted_ns, q) / 1e3
}

/// Median of nanosecond samples in microseconds; sorts in place.
pub fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    pct_us(ns, 0.50)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the acceptance driver
/// applies to a metric's ten values. Fewer than two values: all three
/// equal the one value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((rel_iqr(&v) - 1.0).abs() < 1e-12);
    }
}
