//! Order statistics shared by every metric the benchmark reports.

/// Sorted copy of `samples` (total order, so NaN cannot reorder it).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it (`q` in `[0, 1]`). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.max(1) - 1])
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// How many samples lie strictly above the `q` percentile. A reported
/// tail percentile is only trusted with at least ten samples beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&x| x > p).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_order_statistics() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(beyond(&[], 0.99), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], q), Some(7.0));
        }
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(beyond(&v, 0.99), 1);
    }

    #[test]
    fn p99_has_ten_samples_beyond_it_from_a_thousand() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0));
        assert_eq!(beyond(&v, 0.99), 10);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(beyond(&short, 0.99) < 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -1.0), Some(1.0));
        assert_eq!(percentile(&v, 2.0), Some(3.0));
    }
}
