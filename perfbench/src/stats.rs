//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency summary of one run, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples taken.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples strictly above the p99 rank (the tail p99 rests on).
    pub above_p99: usize,
}

impl Latency {
    /// Summarizes samples given in microseconds (sorts them in place).
    pub fn of(samples: &mut [f64]) -> Latency {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = ((0.99 * n as f64).ceil() as usize).min(n);
        Latency {
            n,
            p50: percentile(samples, 0.5),
            p99: percentile(samples, 0.99),
            above_p99: n - rank,
        }
    }
}

/// Upper end of the 95% Wilson score interval for a failure probability
/// after `failed` failures in `attempted` trials. It is above zero even
/// when nothing failed, where it reads about 3.84 / attempted.
pub fn wilson_upper(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    let z2 = 1.96f64 * 1.96;
    let n = attempted as f64;
    let p = failed as f64 / n;
    let centre = p + z2 / (2.0 * n);
    let spread = 1.96 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + spread) / (1.0 + z2 / n)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut s: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut s);
        assert_eq!((l.n, l.p50, l.p99, l.above_p99), (2000, 999.0, 1979.0, 20));
    }

    #[test]
    fn wilson_bound_is_positive_and_tracks_failures() {
        let none = wilson_upper(0, 10_000);
        assert!(none > 3.0e-4 && none < 4.0e-4, "{none}");
        assert!(wilson_upper(50, 10_000) > 0.005);
        assert!(wilson_upper(50, 10_000) < 0.0075);
        assert_eq!(wilson_upper(0, 0), 1.0);
    }
}
