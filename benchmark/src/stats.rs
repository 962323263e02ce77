//! Order statistics over small in-memory samples.

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice; 0 for an
/// empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle pair for an even count); 0 when
/// there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quartile of a run's windows on the fast side of their median: the
/// third for a rate, the first for a cost or a latency. What disturbs a
/// window on a shared host — a co-tenant on the sibling hyperthread, a
/// stolen time slice — only ever slows it down, so a run with most of its
/// windows disturbed still reports an undisturbed one, while a regression
/// slows every window and moves this quartile as far as it moves the median.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, if higher_is_better { 75.0 } else { 25.0 })
}

/// `(max - min) / median` of the throughput windows: how far apart a run's
/// own windows were.
pub fn window_spread(windows: &[f64]) -> f64 {
    let m = median(windows);
    if windows.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = windows.iter().copied().fold(f64::MIN, f64::max);
    let min = windows.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// `a / b`, or 0 when `b` is 0 (a metric a workload does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sorts nanosecond samples and returns `(p50, p99)` in microseconds.
pub fn p50_p99_us(ns: &mut [u64]) -> (f64, f64) {
    ns.sort_unstable();
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    (percentile(&us, 50.0), percentile(&us, 99.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_windows_ignores_one_outlier() {
        assert_eq!(median(&[700.0, 710.0, 90.0, 705.0, 720.0]), 705.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_quartile_picks_the_fast_side_and_ignores_slow_windows() {
        let quiet = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0];
        let mut disturbed = quiet;
        for w in &mut disturbed[..5] {
            *w *= 0.7; // five of eight windows lose 30 %
        }
        assert_eq!(quiet_quartile(&quiet, true), 101.0);
        assert_eq!(quiet_quartile(&disturbed, true), 98.0);
        assert!(median(&disturbed) < 75.0);
        assert_eq!(quiet_quartile(&[4.0, 1.0, 3.0, 2.0], false), 1.0);
        assert_eq!(quiet_quartile(&[], true), 0.0);
    }

    #[test]
    fn window_spread_is_range_over_median() {
        assert_eq!(window_spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(window_spread(&[]), 0.0);
    }

    #[test]
    fn p50_p99_sorts_and_converts() {
        let mut ns: Vec<u64> = (1..=1000).rev().map(|i| i * 1000).collect();
        assert_eq!(p50_p99_us(&mut ns), (500.0, 990.0));
    }
}
