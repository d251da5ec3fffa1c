//! Order statistics with their sample counts.

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples that lie beyond it.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples`, refused (`None`) when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Pct {
        value: sorted[rank - 1],
        count: n,
        beyond,
    })
}

/// The values of `(due_ns, value)` points that fall in the quietest
/// `window_ns` windows of due time: every window whose `noise(window
/// index)` is zero, and, while those hold less than `share` of all points,
/// the next windows in ascending order of noise (time order among
/// equals).
pub fn quietest(
    points: &[(u64, f64)],
    window_ns: u64,
    share: f64,
    noise: impl Fn(u64) -> u64,
) -> Vec<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(due, v) in points {
        windows.entry(due / window_ns).or_default().push(v);
    }
    let mut ranked: Vec<(u64, Vec<f64>)> = windows
        .into_iter()
        .map(|(k, values)| (noise(k), values))
        .collect();
    ranked.sort_by_key(|(n, _)| *n);
    let want = (share * points.len() as f64).ceil() as usize;
    let mut pooled = Vec::new();
    for (n, values) in ranked {
        if n > 0 && pooled.len() >= want {
            break;
        }
        pooled.extend(values);
    }
    pooled
}

/// The median of the non-empty `(value, noise)` samples taken with the
/// least host interference: every one with zero noise, or at least
/// `share` of them in ascending order of noise (see [`quietest`]).
pub fn quiet_median(samples: &[(f64, u64)], share: f64) -> f64 {
    let points: Vec<(u64, f64)> = samples
        .iter()
        .enumerate()
        .map(|(i, &(v, _))| (i as u64, v))
        .collect();
    median(&quietest(&points, 1, share, |i| samples[i as usize].1))
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&xs, 0.9).unwrap();
        assert_eq!(
            p,
            Pct {
                value: 90.0,
                count: 100,
                beyond: 10
            }
        );
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn percentile_is_refused_with_fewer_than_ten_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank 90 of 99 leaves 9 beyond
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99).unwrap().beyond, 10);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quietest_pools_every_quiet_window_then_the_least_noisy() {
        // eight windows of ten points; the value is the window index
        let points: Vec<(u64, f64)> = (0..80u64).map(|i| (i * 10, (i / 10) as f64)).collect();
        let pooled = |noise: [u64; 8], share: f64| {
            let mut v = quietest(&points, 100, share, |w| noise[w as usize]);
            v.sort_by(f64::total_cmp);
            v.dedup();
            v
        };
        // windows 1, 4 and 6 are quiet: all three, though over the share
        assert_eq!(pooled([3, 0, 2, 5, 0, 1, 0, 9], 0.25), vec![1.0, 4.0, 6.0]);
        // one quiet window is not a quarter: add the least noisy ones
        assert_eq!(pooled([3, 0, 2, 5, 4, 1, 7, 9], 0.25), vec![1.0, 5.0]);
        assert_eq!(
            pooled([3, 0, 2, 5, 4, 1, 7, 9], 0.5),
            vec![0.0, 1.0, 2.0, 5.0]
        );
        // ties go to the earlier window
        assert_eq!(pooled([1; 8], 0.25), vec![0.0, 1.0]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_median_prefers_undisturbed_samples() {
        // the two undisturbed samples decide
        assert_eq!(
            quiet_median(&[(9.0, 4), (2.0, 0), (4.0, 0), (1.0, 7)], 0.25),
            3.0
        );
        // none undisturbed: the least disturbed quarter
        assert_eq!(
            quiet_median(&[(9.0, 4), (2.0, 3), (4.0, 5), (1.0, 7)], 0.25),
            2.0
        );
    }
}
