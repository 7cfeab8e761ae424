//! Order statistics over measured samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between order statistics; 0 for an empty slice.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A smoothed `q`-quantile: the mean of the samples whose rank lies
/// within `half` of `q` (the plain quantile when none does). Job times
/// come in steps of the supervisor's poll interval, and a plain
/// quantile jumps a whole step when a few samples cross a step; the
/// band mean moves with them.
pub(crate) fn band_mean(values: &[f64], q: f64, half: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().saturating_sub(1) as f64;
    let lo = ((q - half).max(0.0) * last).ceil() as usize;
    let hi = ((q + half).min(1.0) * last).floor() as usize;
    if sorted.is_empty() || lo > hi {
        return quantile(values, q);
    }
    sorted[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// Summarises `values`.
pub(crate) fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = summarize(&v);
        assert_eq!((s.q1, s.q3, s.n), (1.75, 3.25, 4));
    }

    #[test]
    fn band_mean_averages_the_ranks_around_the_quantile() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(band_mean(&v, 0.5, 0.1), 5.0);
        assert_eq!(band_mean(&v, 0.9, 0.05), 9.0);
        assert_eq!(
            band_mean(&[150.0, 150.0, 175.0, 175.0, 175.0], 0.5, 0.25),
            500.0 / 3.0
        );
        assert_eq!(band_mean(&[2.0, 4.0], 0.5, 0.1), 3.0);
        assert_eq!(band_mean(&[], 0.5, 0.1), 0.0);
    }
}
