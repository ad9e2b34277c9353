//! Order statistics over timing samples.

/// Sorts ascending; timing samples are never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. NaN without samples,
/// which the caller reports as a metric that was not measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample set (mean of the two middle samples for an
/// even count, as Python's `statistics.median` computes it). NaN without
/// samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` below 40 samples (p75 needs ten of forty).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Distance between the first and third quartile of an ascending slice.
pub fn iqr(sorted: &[f64]) -> f64 {
    percentile(sorted, 75.0) - percentile(sorted, 25.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan() && percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn iqr_spans_the_middle_half() {
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqr(&s), 6.0 - 2.0);
    }
}
