//! Order statistics for timing samples.

/// Median of a non-empty sample (mean of the two middle values for an even
/// count). Returns `None` for an empty one.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile `q` in `(0, 1)` of a sample, reported only when
/// at least ten samples lie beyond it: p90 needs 100 samples and p99 needs
/// 1000. The median (`q == 0.5`) needs 20.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    // The small term keeps 0.99 * 1000 = 990.0000000000001 at rank 990.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Per-position minimum across repeated passes over identical work: element
/// `i` of the result is the least of every pass's `i`-th sample. All
/// passes must have the same length (the caller checks that the work
/// repeated exactly).
pub fn positional_min(passes: &[&[f64]]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Mean of a sample, 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.90),
            None,
            "99 samples leave 9.9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None, "p99 needs 1000 samples");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn positional_min_takes_each_column() {
        let passes: [&[f64]; 3] = [&[1.0, 9.0], &[2.0, 7.0], &[30.0, 8.0]];
        assert_eq!(positional_min(&passes), vec![1.0, 7.0]);
        assert!(positional_min(&[]).is_empty());
    }
}
