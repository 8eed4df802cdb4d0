//! Equi-depth histograms for selectivity estimation.
//!
//! The paper estimates guard cardinality ρ(oc) "using histograms maintained
//! by the database" (Section 4, footnote 5). We maintain an equi-depth
//! histogram per indexed column plus a most-common-values list, the same
//! combination PostgreSQL uses, and expose estimators for the predicate
//! shapes that appear in policies: equality, ranges, and IN lists.

use crate::index::RangeBound;
use crate::value::Value;
use std::collections::HashMap;

/// Default number of equi-depth buckets.
pub const DEFAULT_BUCKETS: usize = 64;

/// Number of most-common values tracked exactly.
pub const MCV_LIMIT: usize = 32;

/// An equi-depth histogram over the `numeric_key` projection of a column's
/// values, with an exact most-common-values sidecar.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket upper bounds (numeric keys), ascending; each bucket holds
    /// roughly `total / buckets.len()` values.
    bounds: Vec<f64>,
    /// Rows per bucket.
    depth: f64,
    /// Total number of (non-null) values.
    total: u64,
    /// Number of distinct values.
    distinct: u64,
    /// Exact frequencies of the most common values.
    mcv: HashMap<Value, u64>,
    /// Minimum and maximum numeric keys.
    min: f64,
    max: f64,
}

impl Histogram {
    /// Build a histogram from the column's values.
    pub fn build(values: impl IntoIterator<Item = Value>, buckets: usize) -> Self {
        let mut freq: HashMap<Value, u64> = HashMap::new();
        for v in values {
            if !v.is_null() {
                *freq.entry(v).or_insert(0) += 1;
            }
        }
        let total: u64 = freq.values().sum();
        let distinct = freq.len() as u64;

        // Most-common values, exact.
        let mut by_freq: Vec<(&Value, &u64)> = freq.iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let mcv: HashMap<Value, u64> = by_freq
            .iter()
            .take(MCV_LIMIT)
            .map(|(v, c)| ((*v).clone(), **c))
            .collect();

        // Equi-depth bounds over the numeric keys of all values.
        let mut keys: Vec<f64> = Vec::with_capacity(total as usize);
        for (v, c) in &freq {
            if let Some(k) = v.numeric_key() {
                // Every NaN as the positive one, which `total_cmp` sorts
                // above every number, where `Value`'s order puts it.
                let k = if k.is_nan() { f64::NAN } else { k };
                for _ in 0..*c {
                    keys.push(k);
                }
            }
        }
        keys.sort_by(f64::total_cmp);
        let (min, max) = match (keys.first(), keys.last()) {
            (Some(a), Some(b)) => (*a, *b),
            _ => (0.0, 0.0),
        };
        let nb = buckets.max(1).min(keys.len().max(1));
        let mut bounds = Vec::with_capacity(nb);
        if !keys.is_empty() {
            for i in 1..=nb {
                let pos = (i * keys.len()) / nb;
                bounds.push(keys[pos.saturating_sub(1).min(keys.len() - 1)]);
            }
        }
        let depth = if nb > 0 { total as f64 / nb as f64 } else { 0.0 };

        Histogram {
            bounds,
            depth,
            total,
            distinct,
            mcv,
            min,
            max,
        }
    }

    /// Total non-null row count seen at build time.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct value count seen at build time.
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// Heap bytes of the bucket bounds and the most-common values, by size
    /// arithmetic (the hash table's control bytes not counted).
    pub fn heap_bytes(&self) -> usize {
        let mcv = self.mcv.capacity() * std::mem::size_of::<(Value, u64)>();
        self.bounds.capacity() * std::mem::size_of::<f64>() + mcv
    }

    /// Estimated number of rows with column = `v`.
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if let Some(c) = self.mcv.get(v) {
            return *c as f64;
        }
        // Uniformity over the non-MCV remainder.
        let mcv_rows: u64 = self.mcv.values().sum();
        let rest_rows = self.total.saturating_sub(mcv_rows) as f64;
        let rest_distinct = self.distinct.saturating_sub(self.mcv.len() as u64).max(1) as f64;
        (rest_rows / rest_distinct).max(0.0)
    }

    /// Estimated number of rows in an IN list.
    pub fn estimate_in(&self, values: &[Value]) -> f64 {
        values.iter().map(|v| self.estimate_eq(v)).sum::<f64>().min(self.total as f64)
    }

    /// Estimated number of rows within a range.
    pub fn estimate_range(&self, low: &RangeBound, high: &RangeBound) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let lo = match low {
            RangeBound::Unbounded => self.min,
            RangeBound::Inclusive(v) | RangeBound::Exclusive(v) => {
                v.numeric_key().unwrap_or(self.min)
            }
        };
        let hi = match high {
            RangeBound::Unbounded => self.max,
            RangeBound::Inclusive(v) | RangeBound::Exclusive(v) => {
                v.numeric_key().unwrap_or(self.max)
            }
        };
        if hi < lo {
            return 0.0;
        }
        // Fraction of buckets overlapped, with linear interpolation inside
        // partially-overlapped buckets.
        let mut est = 0.0;
        let mut prev = self.min;
        for &b in &self.bounds {
            let bucket_lo = prev;
            let bucket_hi = b;
            let width = (bucket_hi - bucket_lo).max(f64::EPSILON);
            let overlap_lo = lo.max(bucket_lo);
            let overlap_hi = hi.min(bucket_hi);
            if overlap_hi > overlap_lo {
                est += self.depth * ((overlap_hi - overlap_lo) / width).min(1.0);
            } else if (bucket_lo..=bucket_hi).contains(&lo) && lo == hi {
                // Degenerate point range inside this bucket.
                est += self.depth / width.max(1.0);
            }
            prev = b;
        }
        // A range that covers everything should estimate ~total.
        est.min(self.total as f64)
    }

    /// Selectivity (fraction of rows) of a range predicate.
    pub fn selectivity_range(&self, low: &RangeBound, high: &RangeBound) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.estimate_range(low, high) / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ints(n: i64) -> Histogram {
        Histogram::build((0..n).map(Value::Int), DEFAULT_BUCKETS)
    }

    #[test]
    fn totals_and_distinct() {
        let h = uniform_ints(1000);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.distinct(), 1000);
    }

    #[test]
    fn equality_estimate_uniform() {
        let h = uniform_ints(1000);
        let est = h.estimate_eq(&Value::Int(500));
        assert!((0.5..=2.0).contains(&est), "estimate {est} should be ~1");
    }

    #[test]
    fn mcv_is_exact_for_skew() {
        // 900 copies of 7, plus 100 distinct values.
        let vals = std::iter::repeat_n(Value::Int(7), 900)
            .chain((100..200).map(Value::Int));
        let h = Histogram::build(vals, DEFAULT_BUCKETS);
        assert_eq!(h.estimate_eq(&Value::Int(7)), 900.0);
        let small = h.estimate_eq(&Value::Int(150));
        assert!(small <= 5.0, "non-MCV estimate {small} should be small");
    }

    #[test]
    fn range_estimate_half() {
        let h = uniform_ints(10_000);
        let est = h.estimate_range(
            &RangeBound::Inclusive(Value::Int(0)),
            &RangeBound::Exclusive(Value::Int(5000)),
        );
        let frac = est / 10_000.0;
        assert!(
            (0.4..=0.6).contains(&frac),
            "half-range selectivity {frac} should be ~0.5"
        );
    }

    #[test]
    fn full_range_is_total() {
        let h = uniform_ints(5000);
        let est = h.estimate_range(&RangeBound::Unbounded, &RangeBound::Unbounded);
        assert!((est - 5000.0).abs() < 500.0);
    }

    #[test]
    fn inverted_range_is_zero() {
        let h = uniform_ints(100);
        assert_eq!(
            h.estimate_range(
                &RangeBound::Inclusive(Value::Int(80)),
                &RangeBound::Inclusive(Value::Int(20))
            ),
            0.0
        );
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::build(std::iter::empty(), DEFAULT_BUCKETS);
        assert_eq!(h.total(), 0);
        assert_eq!(h.estimate_eq(&Value::Int(1)), 0.0);
        assert_eq!(h.selectivity_range(&RangeBound::Unbounded, &RangeBound::Unbounded), 0.0);
    }

    #[test]
    fn in_list_estimate_sums() {
        let h = uniform_ints(100);
        let est = h.estimate_in(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!((1.0..=10.0).contains(&est));
    }

    #[test]
    fn time_values_estimable() {
        // Diurnal-ish times spread between 8am and 6pm.
        let vals = (0..1000u32).map(|i| Value::Time(8 * 3600 + (i * 36) % 36000));
        let h = Histogram::build(vals, DEFAULT_BUCKETS);
        let morning = h.estimate_range(
            &RangeBound::Inclusive(Value::Time(9 * 3600)),
            &RangeBound::Inclusive(Value::Time(10 * 3600)),
        );
        assert!(morning > 0.0);
        assert!(morning < 1000.0);
    }
}
