//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median plus a high percentile, with its
//! sample count. The high percentile is only trustworthy when at least ten
//! samples lie beyond it; [`Summary::tail_ok`] says whether they do.

/// Median, 99th percentile and sample count of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub p50: f64,
    /// 99th percentile by nearest rank.
    pub p99: f64,
    /// Samples strictly beyond the p99 rank.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarise `values` (any order). An empty series summarises to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n: 0,
                p50: 0.0,
                p99: 0.0,
                beyond_p99: 0,
            };
        }
        let p50 = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let rank = nearest_rank(n, 0.99);
        Summary {
            n,
            p50,
            p99: v[rank - 1],
            beyond_p99: n - rank,
        }
    }

    /// True when at least ten samples lie beyond the reported p99.
    pub fn tail_ok(&self) -> bool {
        self.beyond_p99 >= 10
    }
}

/// 1-based nearest rank of quantile `q` in `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a small set of per-round figures (rounds repeat set-up and
/// drains inside one run).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Mean of the middle half of `values`: the lowest and highest quarter
/// are dropped. Unlike the median it averages over samples taken in
/// faster and slower windows of a shared machine, and unlike the mean one
/// stray sample does not move it.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_all_zero() {
        let s = Summary::of(&[]);
        assert_eq!((s.n, s.p50, s.p99, s.beyond_p99), (0, 0.0, 0.0, 0));
        assert!(!s.tail_ok());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).p50, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).p50, 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn p99_is_nearest_rank_and_counts_the_tail() {
        // 1..=1000: the 990th value is the p99; ten samples lie beyond it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.beyond_p99, 10);
        assert!(s.tail_ok());
        assert_eq!(s.p50, 500.5);
    }

    #[test]
    fn short_series_flags_an_untrustworthy_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.p99, 198.0);
        assert_eq!(s.beyond_p99, 2);
        assert!(!s.tail_ok());
        // A single sample is its own median and p99.
        let one = Summary::of(&[7.5]);
        assert_eq!((one.n, one.p50, one.p99, one.beyond_p99), (1, 7.5, 7.5, 0));
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0, 2.0]), 2.0);
        // Eight samples: the lowest and highest two go, 3..=6 remain.
        let v = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&v), 4.5);
        assert_eq!(interquartile_mean(&[10.0, 10.0, 10.0, 1e9, 10.0]), 10.0);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let s = Summary::of(&[f64::NAN, 1.0, 3.0]);
        assert_eq!(s.n, 2);
        assert_eq!(s.p50, 2.0);
    }
}
