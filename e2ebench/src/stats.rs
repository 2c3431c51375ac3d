//! Order statistics with the benchmark's tail rule.
//!
//! A tail is reported as the p99 only when a phase has at least 1000
//! samples. Below that, the highest percentile with at least ten
//! samples beyond it is reported instead, and below 40 samples the
//! median alone: a "p99" of 200 samples is the second-largest sample,
//! which is no tail estimate at all.

/// Nearest-rank quantile of ascending `sorted` (`q` in `(0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, 0.5)
}

/// A tail estimate: its value, the quantile it actually is, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub quantile: f64,
    pub n: usize,
}

/// The tail of `samples` under the rule in the module docs.
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n >= 1000 {
        return Tail {
            value: quantile_sorted(&s, 0.99),
            quantile: 0.99,
            n,
        };
    }
    if n >= 40 {
        // The sample with exactly ten samples beyond it.
        return Tail {
            value: s[n - 11],
            quantile: (n - 10) as f64 / n as f64,
            n,
        };
    }
    Tail {
        value: quantile_sorted(&s, 0.5),
        quantile: 0.5,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the rule must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_from_1000_samples() {
        let t = tail(&ramp(1000));
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
        // Ten samples lie beyond it.
        assert_eq!((1..=1000).filter(|&v| v as f64 > t.value).count(), 10);
    }

    #[test]
    fn p99_of_many_samples_is_the_nearest_rank() {
        let t = tail(&ramp(5000));
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 4950.0);
    }

    #[test]
    fn below_1000_keeps_ten_samples_beyond() {
        for n in [40, 41, 200, 999] {
            let t = tail(&ramp(n));
            assert_eq!(t.value, (n - 10) as f64, "n = {n}");
            assert!((t.quantile - (n - 10) as f64 / n as f64).abs() < 1e-12);
            assert!(t.quantile < 0.99);
        }
    }

    #[test]
    fn under_40_samples_is_the_median_alone() {
        for n in [1, 2, 39] {
            let t = tail(&ramp(n));
            assert_eq!(t.quantile, 0.5);
            assert_eq!(t.value, n.div_ceil(2) as f64, "n = {n}");
        }
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
