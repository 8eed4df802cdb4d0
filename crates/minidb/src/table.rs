//! Heap-table storage with a page model.
//!
//! Rows live in insertion order in fixed-capacity pages. The page model is
//! what gives the simulated cost clock its I/O component: a sequential scan
//! touches every page once; fetching rows through an index touches the set
//! of distinct pages containing the matching rows (random reads), which is
//! exactly the trade-off SIEVE's strategy selection reasons about
//! (Section 5.5: "choosing \[LinearScan\] if the random access due to index
//! scan is expected to be more costly than the sequential access").

use crate::schema::TableSchema;
use crate::stats::Tally;
use crate::value::Value;

/// Number of rows per simulated page. A WiFi-connectivity row is ~40 bytes
/// of payload, so 256 rows/page approximates a 16 KiB InnoDB page.
pub const ROWS_PER_PAGE: usize = 256;

/// Identifier of a row within a table: its position in insertion order.
pub type RowId = u64;

/// A stored row.
pub type Row = Vec<Value>;

/// A heap table: schema plus rows in insertion order.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of pages occupied.
    pub fn page_count(&self) -> u64 {
        (self.rows.len().div_ceil(ROWS_PER_PAGE)) as u64
    }

    /// Page number containing a row.
    pub fn page_of(row_id: RowId) -> u64 {
        row_id / ROWS_PER_PAGE as u64
    }

    /// Append a row; panics if the arity does not match the schema
    /// (generator bugs should fail loudly).
    pub fn insert(&mut self, row: Row) -> RowId {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} != schema arity {} for table {}",
            row.len(),
            self.schema.arity(),
            self.schema.name
        );
        let id = self.rows.len() as RowId;
        self.rows.push(row);
        id
    }

    /// Make room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Bulk-append rows.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) {
        for r in rows {
            self.insert(r);
        }
    }

    /// Direct row access without cost accounting (used by index builds and
    /// the reference oracle, which model no I/O).
    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id as usize]
    }

    /// All rows, no cost accounting.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Sequential scan: charges every page once (sequential) plus one tuple
    /// read per row, then yields all rows.
    pub fn scan<'a>(&'a self, tally: &Tally) -> impl Iterator<Item = (RowId, &'a Row)> + 'a {
        tally.seq_pages(self.page_count());
        tally.tuples(self.rows.len() as u64);
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as RowId, r))
    }

    /// Fetch a set of rows by id (as an index would): charges one random
    /// page read per *distinct* page touched — a sorted, deduplicated page
    /// walk, the same effect PostgreSQL gets from a bitmap heap scan — plus
    /// one tuple read per row.
    pub fn fetch<'a>(&'a self, row_ids: &[RowId], tally: &Tally) -> Vec<(RowId, &'a Row)> {
        let mut pages: Vec<u64> = row_ids.iter().map(|&r| Self::page_of(r)).collect();
        pages.sort_unstable();
        pages.dedup();
        tally.rand_pages(pages.len() as u64);
        tally.tuples(row_ids.len() as u64);
        row_ids
            .iter()
            .map(|&id| (id, &self.rows[id as usize]))
            .collect()
    }

    /// Value of `col` in row `id` (no accounting; callers charge reads).
    pub fn value(&self, id: RowId, col: usize) -> &Value {
        &self.rows[id as usize][col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn table_with_rows(n: usize) -> Table {
        let mut t = Table::new(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("v", DataType::Int)],
        ));
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Int((i * 7) as i64)]);
        }
        t
    }

    #[test]
    fn page_count_rounds_up() {
        assert_eq!(table_with_rows(0).page_count(), 0);
        assert_eq!(table_with_rows(1).page_count(), 1);
        assert_eq!(table_with_rows(ROWS_PER_PAGE).page_count(), 1);
        assert_eq!(table_with_rows(ROWS_PER_PAGE + 1).page_count(), 2);
    }

    #[test]
    fn scan_charges_sequential_pages() {
        let t = table_with_rows(ROWS_PER_PAGE * 3 + 10);
        let tally = Tally::default();
        let n = t.scan(&tally).count();
        assert_eq!(n, ROWS_PER_PAGE * 3 + 10);
        let c = tally.counters();
        assert_eq!(c.seq_pages_read, 4);
        assert_eq!(c.tuples_read, (ROWS_PER_PAGE * 3 + 10) as u64);
        assert_eq!(c.rand_pages_read, 0);
    }

    #[test]
    fn fetch_charges_distinct_pages_only() {
        let t = table_with_rows(ROWS_PER_PAGE * 4);
        let tally = Tally::default();
        // Three rows on page 0, one on page 2: two distinct pages.
        let ids = vec![0, 1, 2, (ROWS_PER_PAGE * 2) as RowId];
        let rows = t.fetch(&ids, &tally);
        assert_eq!(rows.len(), 4);
        let c = tally.counters();
        assert_eq!(c.rand_pages_read, 2);
        assert_eq!(c.tuples_read, 4);
        assert_eq!(c.seq_pages_read, 0);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = table_with_rows(0);
        t.insert(vec![Value::Int(1)]);
    }

    #[test]
    fn fetch_preserves_requested_order() {
        let t = table_with_rows(10);
        let tally = Tally::default();
        let rows = t.fetch(&[5, 2, 7], &tally);
        let ids: Vec<RowId> = rows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![5, 2, 7]);
    }
}
