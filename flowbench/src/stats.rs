//! Order statistics for reported timings.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile, at most the 99th, that still has at least ten samples
//! beyond it. With fewer samples the tail is not defined, and callers
//! report the maximum with the sample count instead.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `values`.
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (the 50th nearest-rank percentile); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A tail percentile and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when there are enough samples).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest percentile, at most the 99th, with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` with fewer than
/// `TAIL_MIN_BEYOND + 1` samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let highest = 100.0 * (n - TAIL_MIN_BEYOND) as f64 / n as f64;
    let mut p = highest.min(99.0);
    // Guard the floating-point edge: the rank must leave ten samples.
    while n - rank(n, p) < TAIL_MIN_BEYOND {
        p -= 0.01;
    }
    let r = rank(n, p);
    Some(Tail {
        percentile: p,
        value: sorted[r - 1],
        beyond: n - r,
    })
}

/// The tail value, or the maximum when there are too few samples for a
/// tail. Returns `(value, percentile reported)`; `None` when empty.
pub fn tail_or_max(values: &[f64]) -> Option<(f64, f64)> {
    match tail(values) {
        Some(t) => Some((t.value, t.percentile)),
        None => percentile(values, 100.0).map(|max| (max, 100.0)),
    }
}

/// The arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The smallest value; `None` when empty.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// The geometric mean of positive values; `None` when empty. Unlike the
/// median of a mix of query classes, it does not jump from one class's
/// cluster to the next when the mix shifts a little.
pub fn geomean(values: &[f64]) -> Option<f64> {
    mean(&values.iter().map(|v| v.ln()).collect::<Vec<f64>>()).map(f64::exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentiles_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&one_to(100), 99.0), Some(99.0));
        assert_eq!(percentile(&one_to(100), 100.0), Some(100.0));
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&one_to(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&one_to(5000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let t = tail(&one_to(500)).unwrap();
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.value, 490.0);
        assert_eq!(t.beyond, 10);
        for n in [11, 12, 37, 101, 999] {
            let t = tail(&one_to(n)).unwrap();
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            // One rank higher would leave fewer than ten beyond.
            assert!(
                t.beyond == TAIL_MIN_BEYOND || t.percentile == 99.0,
                "n={n}: {t:?}"
            );
        }
    }

    #[test]
    fn geomean_is_the_mean_in_log_space() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn too_few_samples_have_no_tail_and_report_the_maximum() {
        assert_eq!(tail(&one_to(10)), None);
        assert_eq!(tail_or_max(&one_to(10)), Some((10.0, 100.0)));
        assert_eq!(tail_or_max(&[]), None);
    }
}
