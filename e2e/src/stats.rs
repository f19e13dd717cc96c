//! Order statistics the benchmark reports: nearest-rank percentiles
//! inside one round, the quiet floor across rounds, and the
//! geometric mean across matrices.

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile: the value of rank `ceil(p * n)` (1-based,
/// clamped to `1..=n`) of the ascending sample. `p = 0.5` of an even
/// sample is therefore the lower middle value, and `p = 0.9` of 100
/// samples is the 90th, with ten samples at or beyond it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The quiet floor of one operation's times over the rounds: the
/// fastest of them. Interference on a shared machine only ever adds
/// time, and it comes in episodes that can outlast most of a run, so
/// the one sample that met the machine undisturbed is the repeatable
/// part of the distribution; any higher rank needs that share of the
/// run to have been quiet (replayed over recorded rounds of a busy
/// spell, rank R/4 spread 24% between windows where the floor spread
/// 4%). An operation cannot run faster than its undisturbed time, so
/// there is no lucky round to guard against. Rates and ratios are
/// computed from quiet times, never ranked themselves.
pub fn quiet_floor(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "quiet floor of no rounds");
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Inter-quartile range over the median, by the same rule the
/// acceptance check uses (`statistics.quantiles(values, n=4)`,
/// exclusive method): the spread of one metric over repeated runs.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let median = quantile(2);
    if median == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quiet_floor_is_the_fastest_round() {
        assert_eq!(quiet_floor(&[9.0, 1.5, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0]), 1.5);
        assert_eq!(quiet_floor(&[3.5]), 3.5);
    }

    #[test]
    fn disturbed_rounds_do_not_move_the_quiet_floor() {
        let calm = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7];
        let mut hit = calm;
        for slow in &mut hit[1..] {
            *slow *= 1.7;
        }
        assert_eq!(quiet_floor(&calm), quiet_floor(&hit));
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[0.25, 4.0, 0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[3.0]), 0.0);
    }
}
