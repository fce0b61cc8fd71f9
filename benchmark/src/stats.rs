//! Order statistics for the report: nearest-rank quantiles inside a
//! slice, the median over slices, and the quartile distance the contract
//! uses to judge steadiness.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One value from repeated batches of a micro-timing: the one a tenth of
/// the way in from the best (the best of up to ten, the third best of
/// 21). Interference on a shared box is one-sided — a neighbour slows a
/// batch and nothing speeds one up — so for a tight loop on one thread
/// the batches near the best are the ones that ran undisturbed; the
/// single best is as steady but rewards a lucky one. The end-to-end
/// metrics do not use it: they are medians (see `workloads`).
pub fn calm(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no slices");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[(v.len() - 1) / 10]
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so a spread printed here is the one the acceptance check
/// sees. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median, in percent. Zero for
/// fewer than two values or a zero median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    100.0 * (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.99), 7);
        // 0.99 of 10 samples is the 10th: nothing lies beyond it.
        let ten: Vec<u32> = (1..=10).collect();
        assert_eq!(quantile_sorted(&ten, 0.99), 10);
    }

    #[test]
    fn slice_median_arithmetic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One wild slice does not move the median of seven.
        assert_eq!(median(&[10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 55.0]), 10.0);
    }

    #[test]
    fn calm_is_a_tenth_in_from_the_best() {
        let five = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(calm(&five, false), 10.0);
        assert_eq!(calm(&five, true), 50.0);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(calm(&v, false), 3.0);
        assert_eq!(calm(&v, true), 19.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(calm(&eleven, false), 2.0);
        assert_eq!(calm(&[7.0], true), 7.0);
        // Two slow slices do not move it; a single fast fluke does not
        // either once there are more than ten.
        let mut noisy = vec![100.0; 19];
        noisy.extend([300.0, 20.0]);
        assert_eq!(calm(&noisy, false), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[3.0]), 0.0);
        assert_eq!(iqr_pct(&[0.0, 0.0, 0.0]), 0.0);
    }
}
