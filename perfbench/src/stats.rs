//! Order statistics over raw samples. Percentiles are read from the
//! sorted samples themselves (nearest rank), never from histogram
//! buckets, and every summary carries its sample count.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle samples for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// How many samples lie strictly above the `p`th percentile — the
/// support a tail percentile has (at least ten makes it reportable).
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    match percentile(sorted, p) {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Latency summary of one phase: sample count, median and p99.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples strictly above p99.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        Some(Summary {
            count: samples.len(),
            p50: percentile(&samples, 50.0)?,
            p99: percentile(&samples, 99.0)?,
            beyond_p99: beyond(&samples, 99.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_fixed_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));

        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 50.0), Some(500.0));
        assert_eq!(beyond(&big, 99.0), 10);
    }

    #[test]
    fn medians_on_fixed_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_counts_samples_and_tail_support() {
        let mut v: Vec<f64> = (0..2000).map(|i| (i % 100) as f64).collect();
        v.push(1e9);
        let s = Summary::of(v).unwrap();
        assert_eq!(s.count, 2001);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        // 20 samples equal 99 sit at the percentile, not beyond it.
        assert_eq!(s.beyond_p99, 1);
        assert_eq!(Summary::of(Vec::new()), None);
        // Ties at the median do not shift a nearest-rank read.
        let ties = Summary::of(vec![5.0; 7]).unwrap();
        assert_eq!((ties.p50, ties.p99, ties.beyond_p99), (5.0, 5.0, 0));
    }
}
