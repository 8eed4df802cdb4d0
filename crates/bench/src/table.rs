//! Plain-text table formatting for experiment output (the binaries print
//! the same rows/series the paper's tables and figures report).

/// Render an aligned text table.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

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
    fn renders_aligned() {
        let t = render(
            &["name", "ms"],
            &[
                vec!["Q1".into(), "418".into()],
                vec!["Q2-long".into(), "9".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].trim_start().starts_with("Q2-long"));
    }

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
