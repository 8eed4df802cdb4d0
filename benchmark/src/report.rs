//! Hand-rolled JSON output (the container has no serde) and the two
//! line formats the benchmark prints.

use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A measured value with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// A finite number as JSON (non-finite values have no JSON form and
/// would mean a broken measurement: they are reported as 0 and flagged
/// by the caller's correctness check).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// The number that follows `prefix` in a result line.
fn number_after(line: &str, prefix: &str) -> Option<f64> {
    let rest = &line[line.find(prefix)? + prefix.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Read a metric's value back out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// Read a top-level `"key": <number>` member back out of a result line.
pub fn top_level_number(line: &str, key: &str) -> Option<f64> {
    number_after(line, &format!("\"{key}\": "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_reads_back() {
        let metrics =
            [Metric::new("latency_p50_ms", 0.6712345, "ms"), Metric::new("setup_s", 1.25, "s")];
        let line = result_line(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 0.6712345, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(metric_value(&line, "latency_p50_ms"), Some(0.6712345));
        assert_eq!(metric_value(&line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(&line, "missing"), None);
        assert_eq!(top_level_number(&line, "attempted"), Some(1000.0));
        assert_eq!(top_level_number(&line, "failed"), Some(0.0));
    }

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}

/// Helpers for the tests that keep `BENCHMARK.json` and the code in step.
#[cfg(test)]
pub mod manifest {
    /// `BENCHMARK.json`, which sits beside the benchmark's directory.
    pub fn read() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/")
    }

    /// The objects of the top-level array `key`, as raw text. None of
    /// the arrays of objects in the file nests another array.
    pub fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\": [")).expect("key present");
        let array = &json[start..start + json[start..].find(']').expect("array closes")];
        array.split('{').skip(1).collect()
    }

    /// The string member `field` of a raw object.
    pub fn string<'a>(object: &'a str, field: &str) -> &'a str {
        let key = format!("\"{field}\": \"");
        let rest = &object[object.find(&key).expect("field present") + key.len()..];
        &rest[..rest.find('"').expect("string closes")]
    }
}
