//! Percentiles from raw samples.
//!
//! Every timing is kept as a raw nanosecond sample and ranked exactly
//! (nearest rank), never bucketed: power-of-two buckets cannot resolve a
//! 10 % change. A tail is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a "p99" of 50 samples is never printed.

/// Samples that must lie strictly beyond a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when looking for the resolvable tail.
pub const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of ascending `sorted`, if at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn resolved(sorted: &[u64], p: f64) -> Option<u64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Median and resolvable tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: u64,
    /// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
    /// samples beyond it.
    pub pct: f64,
    /// Its value.
    pub value: u64,
}

/// Sorts `samples` and summarises them; `None` when there are fewer than
/// [`MIN_BEYOND`] + 1 samples, so not even the minimum is resolvable.
pub fn summarize(samples: &mut [u64]) -> Option<Tail> {
    samples.sort_unstable();
    let n = samples.len();
    let pct = LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)?;
    Some(Tail {
        n,
        p50: samples[rank(n, 50.0) - 1],
        pct,
        value: samples[rank(n, pct) - 1],
    })
}

/// Median of a few floating-point measurements (mean of the middle two
/// for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank 75th percentile of `values`: the level three quarters of
/// them met, for measurements where lower is better.
///
/// The host this benchmark was tuned on runs a thread in a fast or a slow
/// state for seconds at a time, slow most of the time. Over per-segment
/// latency percentiles spread across a run, the median follows the share
/// of the run the host spent fast, which differed from run to run by far
/// more than any bound; the upper quartile stays in the slow state unless
/// the host was fast for three quarters of the run.
#[must_use]
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[rank(n, 75.0) - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(resolved(&sorted, 50.0), Some(50));
        assert_eq!(resolved(&sorted, 90.0), Some(90));
        // p99 of 100 samples has one sample beyond it: not resolvable.
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(resolved(&sorted, 99.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let mut samples: Vec<u64> = (0..1000).rev().collect();
        let t = summarize(&mut samples).expect("enough samples");
        assert_eq!(t.n, 1000);
        assert_eq!(t.p50, 499);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 989);

        let mut small: Vec<u64> = (0..40).collect();
        let t = summarize(&mut small).expect("enough samples");
        assert_eq!(t.pct, 75.0);
        assert_eq!(beyond(40, 75.0), 10);
    }

    #[test]
    fn exact_values_are_kept_not_bucketed() {
        // 1023 vs 1100 would share a power-of-two bucket; ranks keep them.
        let mut samples: Vec<u64> = std::iter::repeat_n(1023, 500)
            .chain(std::iter::repeat_n(1100, 501))
            .collect();
        let t = summarize(&mut samples).expect("enough samples");
        assert_eq!(t.p50, 1100);
        assert_eq!(t.value, 1100);
    }

    #[test]
    fn too_few_samples_resolve_nothing() {
        let mut samples = vec![5u64; 10];
        assert_eq!(summarize(&mut samples), None);
        let mut eleven = vec![5u64; 11];
        assert_eq!(summarize(&mut eleven).map(|t| t.pct), Some(0.0));
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn upper_quartile_is_met_by_three_quarters() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(upper_quartile(&v), 6.0);
        assert_eq!(upper_quartile(&[7.0]), 7.0);
        assert!(upper_quartile(&[]).is_nan());
        // A fast minority (values 1.0 of otherwise 2.0) moves the median
        // but not the upper quartile.
        let mixed: Vec<f64> = (0..20).map(|i| if i < 11 { 1.0 } else { 2.0 }).collect();
        assert_eq!(median(&mixed), 1.0);
        assert_eq!(upper_quartile(&mixed), 2.0);
    }
}
