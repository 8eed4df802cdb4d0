//! Secondary indexes.
//!
//! A B-tree-ordered map from column value to the posting list of row ids.
//! Supports the probe shapes SIEVE's rewrites generate: point lookups
//! (`owner = 120`), ranges (`ts_time BETWEEN 09:00 AND 10:00`), and IN
//! lists. Each probe charges one index descent; fetching the rows
//! themselves is charged by [`crate::table::Table::fetch`].

use crate::stats::Tally;
use crate::table::{Row, RowId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Which side of a range bound is included; mirrors the policy model's
/// comparison-operator set for ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeBound {
    /// No bound on this side.
    Unbounded,
    /// Bound including the endpoint (`>=` / `<=`).
    Inclusive(Value),
    /// Bound excluding the endpoint (`>` / `<`).
    Exclusive(Value),
}

impl RangeBound {
    fn as_std(&self) -> Bound<&Value> {
        match self {
            RangeBound::Unbounded => Bound::Unbounded,
            RangeBound::Inclusive(v) => Bound::Included(v),
            RangeBound::Exclusive(v) => Bound::Excluded(v),
        }
    }
}

/// A secondary index over one column of a table.
#[derive(Debug, Clone)]
pub struct Index {
    /// Name of the index (e.g. `idx_wifi_dataset_owner`).
    pub name: String,
    /// Indexed column position in the base table.
    pub column: usize,
    /// Indexed column name (for planner/EXPLAIN display).
    pub column_name: String,
    /// Posting lists, each ascending: rows are indexed in id order, when
    /// the index is built and as they are inserted.
    entries: BTreeMap<Value, Vec<RowId>>,
    len: u64,
}

impl Index {
    /// Build an index over `column` from the given rows.
    pub fn build<'a>(
        name: impl Into<String>,
        column: usize,
        column_name: impl Into<String>,
        rows: impl IntoIterator<Item = (RowId, &'a Row)>,
    ) -> Self {
        let mut entries: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
        let mut len = 0u64;
        for (id, row) in rows {
            entries.entry(row[column].clone()).or_default().push(id);
            len += 1;
        }
        // Posting lists grew by doubling; an index over a loaded table is
        // read far more than it grows, so it keeps no spare capacity.
        for postings in entries.values_mut() {
            postings.shrink_to_fit();
        }
        Index {
            name: name.into(),
            column,
            column_name: column_name.into(),
            entries,
            len,
        }
    }

    /// Register one newly inserted row.
    pub fn insert(&mut self, id: RowId, row: &Row) {
        self.entries
            .entry(row[self.column].clone())
            .or_default()
            .push(id);
        self.len += 1;
    }

    /// Number of indexed entries (rows).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Heap bytes of the keys and posting lists, by size arithmetic (the
    /// B-tree nodes' spare slots not counted).
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Value, Vec<RowId>)>();
        let ids = |list: &Vec<RowId>| list.capacity() * std::mem::size_of::<RowId>();
        self.entries.values().map(|list| entry + ids(list)).sum()
    }

    /// Posting list of `key` (empty when absent), borrowed. One probe
    /// charged.
    pub fn postings(&self, key: &Value, tally: &Tally) -> &[RowId] {
        tally.index_probes(1);
        self.entries.get(key).map_or(&[], Vec::as_slice)
    }

    /// Posting lists of the keys between two bounds, in key order,
    /// borrowed. One probe charged (a single B-tree descent followed by a
    /// leaf walk).
    pub fn range_postings<'a>(
        &'a self,
        low: &'a RangeBound,
        high: &'a RangeBound,
        tally: &Tally,
    ) -> impl Iterator<Item = &'a [RowId]> + 'a {
        tally.index_probes(1);
        self.entries_between(low, high)
    }

    fn entries_between<'a>(
        &'a self,
        low: &'a RangeBound,
        high: &'a RangeBound,
    ) -> impl Iterator<Item = &'a [RowId]> + 'a {
        // An (Excluded(x), Excluded(x)) std range panics; an empty interval
        // is a legal (if silly) policy predicate, so detect inverted /
        // empty intervals up front.
        let empty = match (low, high) {
            (
                RangeBound::Inclusive(a) | RangeBound::Exclusive(a),
                RangeBound::Inclusive(b) | RangeBound::Exclusive(b),
            ) => {
                a > b
                    || (a == b
                        && (matches!(low, RangeBound::Exclusive(_))
                            || matches!(high, RangeBound::Exclusive(_))))
            }
            _ => false,
        };
        (!empty)
            .then(|| self.entries.range::<Value, _>((low.as_std(), high.as_std())))
            .into_iter()
            .flatten()
            .map(|(_, ids)| ids.as_slice())
    }

    /// Point lookup: rows with `col = key`. One probe charged.
    pub fn lookup(&self, key: &Value, tally: &Tally) -> Vec<RowId> {
        self.postings(key, tally).to_vec()
    }

    /// Range scan between two bounds. One probe charged.
    pub fn range(&self, low: &RangeBound, high: &RangeBound, tally: &Tally) -> Vec<RowId> {
        self.range_postings(low, high, tally).flatten().copied().collect()
    }

    /// IN-list lookup: one probe per list element, the ids ascending and
    /// each once. The posting lists are ascending runs and, a row having
    /// one value, disjoint unless a key is listed twice: put in order of
    /// their first ids they are concatenated where they do not interleave
    /// and merged where they do, never sorted.
    pub fn lookup_in(&self, keys: &[Value], tally: &Tally) -> Vec<RowId> {
        let mut runs: Vec<&[RowId]> =
            keys.iter().map(|k| self.postings(k, tally)).filter(|run| !run.is_empty()).collect();
        runs.sort_unstable_by_key(|run| run[0]);
        // Runs that start alike are one key's list, met twice.
        runs.dedup_by_key(|run| run[0]);
        if runs.windows(2).all(|w| w[0].last() < w[1].first()) {
            return runs.concat();
        }
        merge_runs(&runs)
    }

    /// Exact number of rows matching a point key (an index dive: the
    /// planner's estimate for equality and IN-list probes).
    pub fn count_eq(&self, key: &Value) -> u64 {
        self.entries.get(key).map_or(0, |v| v.len() as u64)
    }

    /// Exact number of rows in a range.
    pub fn count_range(&self, low: &RangeBound, high: &RangeBound) -> u64 {
        self.entries_between(low, high).map(|ids| ids.len() as u64).sum()
    }
}

/// Merge ascending, pairwise disjoint runs into one: two-way merges up a
/// balanced tree, `n log k` moves for `k` runs.
fn merge_runs(runs: &[&[RowId]]) -> Vec<RowId> {
    match runs {
        [] => Vec::new(),
        [only] => only.to_vec(),
        _ => {
            let (left, right) = runs.split_at(runs.len() / 2);
            let (left, right) = (merge_runs(left), merge_runs(right));
            let mut out = Vec::with_capacity(left.len() + right.len());
            let (mut a, mut b) = (left.iter().peekable(), right.iter().peekable());
            while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
                out.push(if x < y { a.next(); x } else { b.next(); y });
            }
            out.extend(a);
            out.extend(b);
            out
        }
    }
}

/// A set of row ids of one table, as a bitmap with one bit per row: what
/// index probes are ORed (`BitmapOr`) and ANDed (index intersection) in
/// before the single heap fetch. Ids come back out ascending, i.e. in page
/// order.
#[derive(Debug, Clone)]
pub struct RowIdSet {
    words: Vec<u64>,
}

impl RowIdSet {
    /// The empty set over a table of `table_rows` rows.
    pub fn new(table_rows: usize) -> Self {
        RowIdSet {
            words: vec![0; table_rows.div_ceil(64)],
        }
    }

    /// Add a posting list. Ids must be below the `table_rows` the set was
    /// made for (an index never holds any other).
    pub fn insert_all(&mut self, ids: &[RowId]) {
        for &id in ids {
            self.words[(id / 64) as usize] |= 1 << (id % 64);
        }
    }

    /// Keep only the ids also in `other` (a set over the same table).
    pub fn intersect(&mut self, other: &RowIdSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// The ids, ascending.
    pub fn ids(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.words.iter().map(|w| w.count_ones() as usize).sum());
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(i as RowId * 64 + RowId::from(w.trailing_zeros()));
                w &= w - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::table::Table;
    use crate::value::DataType;

    fn indexed_table() -> (Table, Index) {
        let mut t = Table::new(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ));
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let tally = Tally::default();
        let idx = Index::build("idx_owner", 1, "owner", t.scan(&tally));
        (t, idx)
    }

    #[test]
    fn point_lookup_finds_all_matches() {
        let (_, idx) = indexed_table();
        let tally = Tally::default();
        let hits = idx.lookup(&Value::Int(3), &tally);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&id| id % 10 == 3));
        assert_eq!(tally.counters().index_probes, 1);
    }

    #[test]
    fn missing_key_is_empty() {
        let (_, idx) = indexed_table();
        let tally = Tally::default();
        assert!(idx.lookup(&Value::Int(42), &tally).is_empty());
    }

    #[test]
    fn range_scan_inclusive_exclusive() {
        let (_, idx) = indexed_table();
        let tally = Tally::default();
        let hits = idx.range(
            &RangeBound::Inclusive(Value::Int(2)),
            &RangeBound::Exclusive(Value::Int(4)),
            &tally,
        );
        assert_eq!(hits.len(), 20); // owners 2 and 3
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let (_, idx) = indexed_table();
        let tally = Tally::default();
        assert!(idx
            .range(
                &RangeBound::Exclusive(Value::Int(5)),
                &RangeBound::Exclusive(Value::Int(5)),
                &tally
            )
            .is_empty());
        assert!(idx
            .range(
                &RangeBound::Inclusive(Value::Int(9)),
                &RangeBound::Inclusive(Value::Int(1)),
                &tally
            )
            .is_empty());
    }

    #[test]
    fn in_list_dedups_and_counts_probes() {
        let (_, idx) = indexed_table();
        let tally = Tally::default();
        let hits = idx.lookup_in(&[Value::Int(1), Value::Int(1), Value::Int(2)], &tally);
        assert_eq!(hits.len(), 20);
        assert_eq!(tally.counters().index_probes, 3);

        // Whatever the runs do — interleave (the fixture's owners alternate
        // row by row), repeat, stay apart, come up empty — the ids are what
        // sorting all of them and dropping repeats gives, a probe a key.
        let mut t = Table::new(TableSchema::of("t", &[("k", DataType::Int)]));
        for k in [0, 0, 0, 1, 1, 2, 1, 2, 0, 3, 3, 2] {
            t.insert(vec![Value::Int(k)]);
        }
        let idx = Index::build("idx_k", 0, "k", t.scan(&Tally::default()));
        for keys in [
            vec![],
            vec![7],
            vec![3, 0],
            vec![0, 3, 7],
            vec![2, 1],
            vec![1, 7, 2, 1, 0, 2],
            vec![3, 2, 1, 0, 0, 7, 7],
        ] {
            let keys: Vec<Value> = keys.into_iter().map(Value::Int).collect();
            let tally = Tally::default();
            let mut expected: Vec<RowId> =
                keys.iter().flat_map(|k| idx.lookup(k, &tally)).collect();
            expected.sort_unstable();
            expected.dedup();
            let tally = Tally::default();
            assert_eq!(idx.lookup_in(&keys, &tally), expected, "{keys:?}");
            assert_eq!(tally.counters().index_probes, keys.len() as u64, "{keys:?}");
        }
    }

    #[test]
    fn counts_are_exact() {
        let (_, idx) = indexed_table();
        assert_eq!(idx.count_eq(&Value::Int(0)), 10);
        assert_eq!(
            idx.count_range(
                &RangeBound::Unbounded,
                &RangeBound::Exclusive(Value::Int(5))
            ),
            50
        );
        assert_eq!(idx.distinct_keys(), 10);
    }

    #[test]
    fn row_id_set_unions_intersects_and_sorts() {
        let mut a = RowIdSet::new(200);
        a.insert_all(&[199, 3, 64, 3, 128]);
        a.insert_all(&[0, 65]);
        assert_eq!(a.ids(), vec![0, 3, 64, 65, 128, 199]);
        let mut b = RowIdSet::new(200);
        b.insert_all(&[65, 199, 7]);
        a.intersect(&b);
        assert_eq!(a.ids(), vec![65, 199]);
        assert!(RowIdSet::new(0).ids().is_empty());
    }

    #[test]
    fn incremental_insert_visible() {
        let (mut t, mut idx) = indexed_table();
        let id = t.insert(vec![Value::Int(100), Value::Int(55)]);
        idx.insert(id, t.row(id));
        let tally = Tally::default();
        assert_eq!(idx.lookup(&Value::Int(55), &tally), vec![id]);
        assert_eq!(idx.len(), 101);
    }
}
