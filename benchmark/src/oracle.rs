//! The reference answers every reply is checked against: the user's
//! query evaluated over `sieve_core::semantics::visible_rows`, with no
//! guard, index hint, rewrite or cache involved.
//!
//! Which policies apply to a querier is decided here from the `Policy`
//! fields and the dataset's group directory, not by asking the
//! middleware's own filter — a bug there must not cancel out.

use minidb::{Database, DbProfile, Row};
use sieve_core::semantics::visible_rows;
use sieve_core::{Policy, QuerierSpec, UserId};
use sieve_workload::{TippersDataset, WIFI_TABLE};

use crate::Res;

/// The purpose every benchmark query is posed under.
pub const PURPOSE: &str = "Analytics";

/// True iff `p` grants `querier` access to the protected relation for
/// [`PURPOSE`] (Section 3.2 of the paper: purpose matches, and the
/// policy names the querier or one of the querier's groups).
pub fn applies(p: &Policy, ds: &TippersDataset, querier: UserId) -> bool {
    p.relation == WIFI_TABLE
        && p.purpose_matches(PURPOSE)
        && p.querier_context.is_empty()
        && match &p.querier {
            QuerierSpec::User(u) => *u == querier,
            QuerierSpec::Group(g) => ds.groups.is_member(querier, *g),
        }
}

/// The policies of `all` that apply to `querier`.
pub fn relevant<'a>(all: &'a [Policy], ds: &TippersDataset, querier: UserId) -> Vec<&'a Policy> {
    all.iter().filter(|p| applies(p, ds, querier)).collect()
}

/// Rows ordered for an order-insensitive comparison.
pub fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// A copy of `db` (same tables, same indexed columns) whose protected
/// relation holds exactly `protected_rows`. With the querier's visible
/// rows there, running the *original* query on the copy yields the
/// expected reply for any query shape.
pub fn database_with(db: &Database, protected_rows: Vec<Row>) -> Res<Database> {
    let mut out = Database::new(DbProfile::MySqlLike);
    let mut names = db.table_names();
    names.sort_unstable();
    for name in names {
        let entry = db.table(name)?;
        out.create_table((**entry.schema()).clone())?;
        if name != WIFI_TABLE {
            out.insert_all(name, entry.table.rows().iter().cloned())?;
        }
        for index in &entry.indexes {
            out.create_index(name, &index.column_name)?;
        }
    }
    out.insert_all(WIFI_TABLE, protected_rows)?;
    out.analyze(WIFI_TABLE)?;
    Ok(out)
}

/// `db` with its protected relation cut down to what `policies` allow.
pub fn visible_database(db: &Database, policies: &[&Policy]) -> Res<Database> {
    database_with(db, visible_rows(db, WIFI_TABLE, policies)?)
}

/// The expected reply to `sql`: its rows over `visible_db`, sorted.
pub fn expected_rows(visible_db: &Database, sql: &str) -> Res<Vec<Row>> {
    let query = minidb::sql::parse(sql)?;
    Ok(sorted_rows(visible_db.run_query(&query)?.rows))
}
