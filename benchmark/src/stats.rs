//! Estimators: percentiles, the best-block reductions the end-to-end
//! metrics are built on, and the quartile spread the acceptance check
//! uses.
//!
//! Why best-block: on the sandbox this benchmark was written on,
//! noisy-neighbour episodes lasting tens of seconds slow memory-heavy
//! work by 30–50 %. No whole-run median survives one; the quietest of 40
//! half-second blocks does (see `README.md`, "Estimators").

/// Sort ascending with the IEEE total order (no NaN surprises).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an ascending slice (mean of the two middle values when the
/// length is even). `None` on an empty slice.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of an unsorted sample.
pub fn median_of(v: &[f64]) -> Option<f64> {
    median(&sorted(v.to_vec()))
}

/// Smallest value: the best block of a lower-is-better per-block series.
pub fn best_low(per_block: &[f64]) -> Option<f64> {
    per_block.iter().copied().min_by(f64::total_cmp)
}

/// Largest value: the best block of a higher-is-better per-block series.
pub fn best_high(per_block: &[f64]) -> Option<f64> {
    per_block.iter().copied().max_by(f64::total_cmp)
}

/// `(median − min) ÷ min` of a per-block series of a fixed amount of
/// work: 0 on a quiet machine, grows with interference.
pub fn noise_index(per_block: &[f64]) -> Option<f64> {
    let min = best_low(per_block)?;
    let med = median_of(per_block)?;
    (min > 0.0).then(|| (med - min) / min)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance check is stated in those terms.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median_of(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.99), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn best_block_ignores_the_noisy_blocks() {
        // Three quiet blocks and two slowed by a neighbour: the run
        // median moves with the episode, the best block does not.
        let quiet = [4.51, 4.60, 4.55];
        let noisy = [4.51, 4.60, 4.55, 7.2, 7.3, 7.1, 6.9];
        assert_eq!(best_low(&quiet), best_low(&noisy));
        assert!(median_of(&noisy).unwrap() > 6.0);
        assert_eq!(best_high(&[900.0, 1369.0, 1100.0]), Some(1369.0));
        assert_eq!(best_low(&[]), None);
        assert_eq!(best_high(&[]), None);
    }

    #[test]
    fn noise_index_is_relative_to_the_minimum() {
        let idx = noise_index(&[100.0, 110.0, 120.0]).unwrap();
        assert!((idx - 0.10).abs() < 1e-12);
        assert_eq!(noise_index(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(noise_index(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
    }
}
