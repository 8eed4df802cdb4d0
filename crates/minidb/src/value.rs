//! Typed values and data types for the engine.
//!
//! The SIEVE workloads (Tables 2 and 3 of the paper) need integers, strings,
//! times (`ts-time`), and dates (`ts-date`); policies additionally compare
//! values with the full comparison-operator set of the policy model
//! (Section 3.1).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Time of day, stored as seconds since midnight (0..86400).
    Time,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
    /// 64-bit float.
    Double,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOLEAN",
            DataType::Time => "TIME",
            DataType::Date => "DATE",
            DataType::Double => "DOUBLE",
        };
        f.write_str(s)
    }
}

/// A runtime value. `Null` compares as the smallest value for index
/// ordering purposes, but all SQL comparisons against `Null` are false
/// (three-valued logic collapsed to false, which is what `WHERE` needs).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit integer value.
    Int(i64),
    /// Interned string value, cheap to clone. Behind a thin pointer, so a
    /// `Value` is 16 bytes — every row, index key and reply row pays for
    /// its widest variant; a string's extra hop is paid only by strings.
    Str(Arc<String>),
    /// Seconds since midnight.
    Time(u32),
    /// Days since the Unix epoch.
    Date(i32),
    /// 64-bit float value.
    Double(f64),
}

// Every stored row is a run of these: a wider variant must not slip in.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(s.as_ref().to_owned()))
    }

    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Str(_) => Some(DataType::Str),
            Value::Time(_) => Some(DataType::Time),
            Value::Date(_) => Some(DataType::Date),
            Value::Double(_) => Some(DataType::Double),
        }
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True iff the value has no place in the order: a NaN double compares
    /// equal to every number, so it can be neither sorted nor searched for.
    pub fn is_nan(&self) -> bool {
        matches!(self, Value::Double(d) if d.is_nan())
    }

    /// Extract an integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a time-of-day in seconds, if this value is one.
    pub fn as_time(&self) -> Option<u32> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Extract a date in days since epoch, if this value is one.
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Extract a double, if this value is one.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// A number usable for histogram bucketing: every non-null, non-string
    /// value maps onto the real line; strings hash onto it (stable within a
    /// process run, which is all selectivity estimation needs).
    pub fn numeric_key(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Int(i) => Some(*i as f64),
            Value::Time(t) => Some(*t as f64),
            Value::Date(d) => Some(*d as f64),
            Value::Double(d) => Some(*d),
            Value::Str(s) => {
                // Map the first 8 bytes to a float preserving lexicographic
                // order, so range estimates over strings stay monotone.
                let mut key: u64 = 0;
                for (i, b) in s.bytes().take(8).enumerate() {
                    key |= (b as u64) << (56 - 8 * i);
                }
                Some(key as f64)
            }
        }
    }

    /// Parse a time literal of the form `HH:MM` or `HH:MM:SS` into seconds
    /// since midnight.
    pub fn parse_time(s: &str) -> Option<u32> {
        let mut parts = s.split(':');
        let h: u32 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let sec: u32 = match parts.next() {
            Some(p) => p.parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() || h > 23 || m > 59 || sec > 59 {
            return None;
        }
        Some(h * 3600 + m * 60 + sec)
    }

    /// Parse a date literal of the form `YYYY-MM-DD` into days since epoch.
    /// Uses a civil-date conversion (no external time crate).
    pub fn parse_date(s: &str) -> Option<i32> {
        let mut parts = s.split('-');
        let y: i64 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let d: u32 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(days_from_civil(y, m, d))
    }

    /// Render a time value (seconds since midnight) as `HH:MM:SS`.
    pub fn format_time(t: u32) -> String {
        format!("{:02}:{:02}:{:02}", t / 3600, (t / 60) % 60, t % 60)
    }

    /// Render a date value (days since epoch) as `YYYY-MM-DD`.
    pub fn format_date(days: i32) -> String {
        let (y, m, d) = civil_from_days(days);
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era * 146097 + doe - 719468) as i32
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across all values: NULL first, then by type rank, then by
    /// value. Within numerics, `Int` and `Double` compare numerically so a
    /// mixed-type index key still behaves.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Double(b)) => cmp_f64(*a as f64, *b),
            (Double(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Double(a), Double(b)) => cmp_f64(*a, *b),
            (Str(a), Str(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    /// Agrees with `Eq`: `Int` and `Double` compare numerically (an `Int`
    /// through its `f64` image), so both hash that image's bits under one
    /// numeric tag — `Int(1)` and `Double(1.0)` land in the same hash-join
    /// bucket, `DISTINCT` set entry and `GROUP BY` group. (NaN is outside
    /// the contract: `cmp_f64` calls it equal to every number.)
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => hash_f64(*i as f64, state),
            Value::Str(s) => s.hash(state),
            Value::Time(t) => t.hash(state),
            Value::Date(d) => d.hash(state),
            Value::Double(d) => hash_f64(*d, state),
        }
    }
}

fn hash_f64<H: std::hash::Hasher>(d: f64, state: &mut H) {
    use std::hash::Hash;
    // `-0.0 == 0.0`, so both hash as `0.0`.
    (if d == 0.0 { 0.0f64 } else { d }).to_bits().hash(state);
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2,
            Value::Time(_) => 3,
            Value::Date(_) => 4,
            Value::Str(_) => 5,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Time(t) => write!(f, "TIME '{}'", Value::format_time(*t)),
            Value::Date(d) => write!(f, "DATE '{}'", Value::format_date(*d)),
            Value::Double(d) => {
                if d.is_finite() {
                    // `{:?}` always emits a decimal point or exponent
                    // ("1.0", "1e300"), so the literal re-lexes as a
                    // Double — `{}` renders 1.0 as "1", which crosses the
                    // wire as an Int and silently changes the type.
                    write!(f, "{d:?}")
                } else {
                    // Non-finite doubles have no bare-literal SQL form;
                    // the DOUBLE '…' spelling is rejected by the parser
                    // with a defined error instead of misparsing.
                    write!(f, "DOUBLE '{d}'")
                }
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_parse_roundtrip() {
        assert_eq!(Value::parse_time("09:00"), Some(9 * 3600));
        assert_eq!(Value::parse_time("23:59:59"), Some(86399));
        assert_eq!(Value::parse_time("24:00"), None);
        assert_eq!(Value::parse_time("9"), None);
        assert_eq!(Value::format_time(9 * 3600 + 30 * 60), "09:30:00");
    }

    #[test]
    fn date_parse_roundtrip() {
        assert_eq!(Value::parse_date("1970-01-01"), Some(0));
        assert_eq!(Value::parse_date("1970-01-02"), Some(1));
        // 2019-09-25 is a date used in the paper's running example.
        let d = Value::parse_date("2019-09-25").unwrap();
        assert_eq!(Value::format_date(d), "2019-09-25");
        assert_eq!(Value::parse_date("2019-13-01"), None);
    }

    #[test]
    fn date_known_value() {
        // 2000-03-01 is 11017 days after the epoch (known constant).
        assert_eq!(Value::parse_date("2000-03-01"), Some(11017));
    }

    #[test]
    fn ordering_null_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn ordering_numeric_mixed() {
        assert!(Value::Int(1) < Value::Double(1.5));
        assert!(Value::Double(0.5) < Value::Int(1));
        assert_eq!(Value::Int(2), Value::Double(2.0));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert!(Value::Time(100) < Value::Time(101));
        assert!(Value::Date(-1) < Value::Date(0));
    }

    #[test]
    fn numeric_key_monotone_for_strings() {
        let a = Value::str("alpha").numeric_key().unwrap();
        let b = Value::str("beta").numeric_key().unwrap();
        assert!(a < b);
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::str("O'Brien").to_string(), "'O''Brien'");
    }

    #[test]
    fn hash_eq_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(42)), h(&Value::Int(42)));
        assert_eq!(h(&Value::str("x")), h(&Value::str("x")));
        // Whatever `==` calls equal must hash equal, across numeric types.
        for (a, b) in [
            (Value::Int(1), Value::Double(1.0)),
            (Value::Int(0), Value::Double(-0.0)),
            (Value::Int(-7), Value::Double(-7.0)),
            (Value::Int(i64::MAX), Value::Double(i64::MAX as f64)),
        ] {
            assert_eq!(a, b);
            assert_eq!(h(&a), h(&b), "{a} vs {b}");
        }
        let set: std::collections::HashSet<Value> =
            [Value::Int(1), Value::Double(1.0), Value::Double(1.5)].into();
        assert_eq!(set.len(), 2);
    }
}
