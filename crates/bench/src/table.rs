//! Cell formatting and the two sample statistics the figures' tables
//! report (Table 6's avg and SD).

/// Format milliseconds with sensible precision, or "TO" for timeouts.
pub fn ms(v: Option<f64>) -> String {
    match v {
        None => "TO".to_string(),
        Some(x) if x >= 100.0 => format!("{x:.0}"),
        Some(x) if x >= 1.0 => format!("{x:.1}"),
        Some(x) => format!("{x:.3}"),
    }
}

/// Mean of a slice (None when empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    match mean(xs) {
        Some(m) if xs.len() > 1 => {
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats() {
        assert_eq!(ms(None), "TO");
        assert_eq!(ms(Some(1234.5)), "1234");
        assert_eq!(ms(Some(3.25)), "3.2");
        assert_eq!(ms(Some(0.0042)), "0.004");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-9);
    }
}
