//! Order statistics over timing samples.

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 3] = [0.99, 0.9, 0.75];

/// The value at quantile `q` (0..=1) of `samples`, interpolating
/// linearly between the two nearest order statistics. `NaN` for no
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples beyond it, so a reported tail is never one outlier;
/// `None` below 40 samples, where the median is all there is.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert_eq!(median(&samples), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }
}
