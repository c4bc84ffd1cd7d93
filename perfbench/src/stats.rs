//! Order statistics under the benchmark's sample-size rule: a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure never rests on one or two slow outliers.

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples`, linearly interpolated
/// between order statistics.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the
/// percentile, i.e. when `⌊n·(1−q)⌋ < 10`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = ((1.0 - q) * n as f64 + 1e-9).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(interpolate(samples, q))
}

/// The median of any non-empty sample set (no sample-size rule: a run's
/// repeated measurements of one quantity, not a latency tail).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    interpolate(samples, 0.5)
}

/// The geometric mean of non-empty, positive samples: the typical size
/// of a set of jobs whose sizes differ by orders, drawing on every job
/// rather than the one or two in the middle.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geometric mean of no samples");
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn interpolate(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of a Prometheus-style histogram (`bounds` are bucket
/// upper edges, `cumulative[i]` counts observations `<= bounds[i]`, and
/// `total` includes the `+Inf` bucket), interpolated linearly inside the
/// bucket that holds it. Observations past the last edge read as that
/// edge. Returns 0 for an empty histogram.
pub fn histogram_quantile(bounds: &[f64], cumulative: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut prev_bound = 0.0;
    let mut prev_count = 0u64;
    for (&bound, &count) in bounds.iter().zip(cumulative) {
        if count as f64 >= rank {
            let in_bucket = (count - prev_count) as f64;
            let frac = if in_bucket > 0.0 { (rank - prev_count as f64) / in_bucket } else { 1.0 };
            return prev_bound + (bound - prev_bound) * frac;
        }
        prev_bound = bound;
        prev_count = count;
    }
    prev_bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).is_err(), "99 samples leave 9 beyond p90");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&hundred, 0.9).is_ok(), "100 samples leave 10 beyond p90");
        let eight: Vec<f64> = (0..8).map(f64::from).collect();
        assert!(percentile(&eight, 0.5).is_err(), "8 samples leave 4 beyond the median");
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Ok(9.5));
    }

    #[test]
    fn order_statistics_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(max(&samples), 4.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        let hundred_and_one: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred_and_one, 0.9), Ok(90.0));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let bounds = [1.0, 2.0, 4.0];
        // 10 observations: 2 in (0,1], 6 in (1,2], 2 in (2,4].
        let cumulative = [2, 8, 10];
        assert_eq!(histogram_quantile(&bounds, &cumulative, 10, 0.5), 1.5);
        assert_eq!(histogram_quantile(&bounds, &cumulative, 10, 0.1), 0.5);
        assert_eq!(histogram_quantile(&bounds, &cumulative, 0, 0.5), 0.0);
        // Everything past the last edge reads as that edge.
        assert_eq!(histogram_quantile(&bounds, &cumulative, 20, 0.9), 4.0);
    }
}
