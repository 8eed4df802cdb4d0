//! The four workloads: which queriers connect, which statements they
//! send, and the operation list one block replays.
//!
//! Everything is derived from `--seed`; the program under test only ever
//! sees the generated data, policies and SQL. Statements are chosen by
//! what they *mean* — shape, and the number of rows the oracle says the
//! querier may see — never by how fast the program runs them or which
//! plan it picks: a selection that looked at timings would quietly drop
//! exactly the statements a later change made slow.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use minidb::sql::{parse, render_query};
use minidb::{Database, Expr, Row, SelectItem, SelectQuery, TableRef, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sieve_core::semantics::visible_rows;
use sieve_core::{Policy, QuerierSpec, UserId};
use sieve_workload::{
    generate_query, QueryClass, Selectivity, TippersDataset, UserProfile, WIFI_TABLE,
};

use crate::fixture::Base;
use crate::oracle::{self, expected_rows, sorted_rows, PURPOSE};
use crate::Res;

/// The workloads, in reporting order. Names are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm prepared point queries: the fixed per-request cost.
    PointWarm,
    /// Prepared scans and a join: the engine's cost.
    ScanHeavy,
    /// A policy insert before every read: guard regeneration's cost.
    PolicyChurn,
    /// One-shot SQL texts, more of them than the AST cache holds.
    OneshotText,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::PointWarm, Workload::ScanHeavy, Workload::PolicyChurn, Workload::OneshotText];

    /// The name `--workload` takes and every record carries.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWarm => "point_warm",
            Workload::ScanHeavy => "scan_heavy",
            Workload::PolicyChurn => "policy_churn",
            Workload::OneshotText => "oneshot_text",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload that sends SQL text with every request.
    pub fn sends_text(self) -> bool {
        self == Workload::OneshotText
    }
}

/// TIPPERS scale factor of every workload (1.0 ≈ 36 K devices, 3.9 M
/// events): 1 821 devices, 200 123 events, 6 962 policies. The
/// statement bands below belong to this campus.
pub const SCALE: f64 = 0.05;

/// Policies a read-only workload's querier should hold, as near as the
/// campus offers: a staff-sized grant list (60–200 among non-visitors).
const TARGET_POLICIES: usize = 150;

/// Days of the window `policy_churn`'s statement asks about.
const CHURN_DAYS: i32 = 3;
/// Grant/read pairs per `policy_churn` block, alternating two queriers.
const CHURN_PAIRS: usize = 64;

/// Twice `sieve_core`'s parsed-AST LRU capacity (256): replayed in
/// cyclic order, every request finds its text already evicted.
pub const ONESHOT_TEXTS: usize = 512;

/// One SQL statement of a plan.
pub struct Statement {
    /// Index into [`Plan::queriers`]: who sends it.
    pub client: usize,
    /// The user's query, as text.
    pub sql: String,
    /// The oracle's reply before any grant, sorted.
    pub expected: Vec<Row>,
}

/// One operation of a block: an optional policy insert, then a read.
pub struct Op {
    /// Statement to read.
    pub stmt: usize,
    /// Policy inserted (in-process) just before the read.
    pub grant: Option<Policy>,
    /// Rows the read must return.
    pub expect_rows: usize,
}

/// A workload made concrete for one seed.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// One connection per entry.
    pub queriers: Vec<UserId>,
    /// Distinct (querier, statement) pairs.
    pub statements: Vec<Statement>,
    /// The operation list every block replays.
    pub ops: Vec<Op>,
    /// The oracle's reply to each statement after a whole block's
    /// grants (equal to `expected` when the block inserts nothing).
    pub expected_after_block: Vec<Vec<Row>>,
    /// Policies that apply to the first querier before any grant.
    pub policies_per_querier: usize,
}

/// Derive the plan of `workload` for `seed` over `base`, and check every
/// expected reply against the oracle.
pub fn make_plan(workload: Workload, seed: u64, base: &Base) -> Res<Plan> {
    let (shapes, statements, rounds): (&[Shape], usize, usize) = match workload {
        Workload::PointWarm => (&[Shape::Q2_LOW_POINT], 8, 100),
        // Three scans to one join: the block median then sits inside
        // the scans' cost whatever the join costs (a median perched
        // between two cost modes flips with the noise), while
        // throughput still pays for all four.
        Workload::ScanHeavy => (
            &[Shape::Q1_MID_SCAN, Shape::Q1_MID_SCAN, Shape::Q1_MID_SCAN, Shape::Q3_LOW_JOIN],
            4,
            6,
        ),
        Workload::OneshotText => (&[Shape::Q2_LOW_TEXT], ONESHOT_TEXTS, 1),
        Workload::PolicyChurn => return churn(seed, base),
    };
    read_only(workload, seed, base, shapes, statements, rounds)
}

/// A statement template and what qualifies a generated statement: how
/// many rows the querier may see of it, and how many rows of the
/// unprotected relation its cost-driving conjuncts select. Both are
/// properties of the data, not of any plan; holding them in a narrow
/// band is what makes two seeds ask for the same amount of work. The
/// bands belong to the campus `build_base` generates at scale 0.05.
struct Shape {
    class: QueryClass,
    selectivity: Selectivity,
    /// Rows of the reply.
    visible: std::ops::RangeInclusive<usize>,
    /// Which of the statement's conjuncts drive its cost.
    driver: fn(&[Expr]) -> &[Expr],
    /// Rows of the unprotected relation the driving conjuncts select.
    volume: std::ops::RangeInclusive<usize>,
}

impl Shape {
    /// Eight named devices, two hours, one week: the owner index fetches
    /// every row of the eight, so the device list drives the cost.
    const Q2_LOW_POINT: Shape = Shape {
        class: QueryClass::Q2,
        selectivity: Selectivity::Low,
        visible: 8..=12,
        driver: |c| &c[..1],
        volume: 1000..=1150,
    };
    /// The same shape, 512 times over: the median of that many
    /// statements is steady without the narrow band.
    const Q2_LOW_TEXT: Shape = Shape { visible: 6..=14, volume: 700..=2100, ..Shape::Q2_LOW_POINT };
    /// Eight access points, five hours, a month: a scan whose policy
    /// filters run on every row the whole predicate selects.
    const Q1_MID_SCAN: Shape = Shape {
        class: QueryClass::Q1,
        selectivity: Selectivity::Mid,
        visible: 900..=1100,
        driver: |c| c,
        volume: 4400..=4700,
    };
    /// Devices of one group seen in two hours of one week: the time and
    /// date windows (the last two conjuncts) select what is joined.
    const Q3_LOW_JOIN: Shape = Shape {
        class: QueryClass::Q3,
        selectivity: Selectivity::Low,
        visible: 1..=1,
        driver: |c| &c[2..],
        volume: 1700..=1850,
    };

    /// True iff `query`, whose oracle reply is `reply`, qualifies.
    fn admits(&self, db: &Database, query: &SelectQuery, reply: &[Row]) -> Res<bool> {
        if !self.visible.contains(&reply.len())
            || (self.class == QueryClass::Q3 && reply[0][0] == Value::Int(0))
        {
            return Ok(false);
        }
        let Some(Expr::And(conjuncts)) = &query.predicate else {
            return Err("generated statement is not a conjunction".into());
        };
        let drivers = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![TableRef::aliased(WIFI_TABLE, "w")],
            predicate: Some(Expr::all((self.driver)(conjuncts).to_vec())),
            group_by: vec![],
            limit: None,
        };
        Ok(self.volume.contains(&db.run_query(&drivers)?.rows.len()))
    }
}

/// Relevant-policy count of every non-visitor device, in O(policies +
/// devices): tally grants by user and by group, then sum over each
/// device's groups.
fn policy_counts(ds: &TippersDataset, policies: &[Policy]) -> Vec<(usize, UserId)> {
    let mut by_user: BTreeMap<UserId, usize> = BTreeMap::new();
    let mut by_group: BTreeMap<i64, usize> = BTreeMap::new();
    for p in policies.iter().filter(|p| p.relation == WIFI_TABLE && p.purpose_matches(PURPOSE)) {
        match &p.querier {
            QuerierSpec::User(u) => *by_user.entry(*u).or_default() += 1,
            QuerierSpec::Group(g) => *by_group.entry(*g).or_default() += 1,
        }
    }
    ds.devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .map(|d| {
            let groups: usize =
                ds.groups.groups_of(d.id).iter().filter_map(|g| by_group.get(g)).sum();
            (by_user.get(&d.id).copied().unwrap_or(0) + groups, d.id)
        })
        .collect()
}

/// The `n` non-visitors whose relevant-policy count is nearest `target`
/// (ties to the lower id), so that seeds differ in *who* asks, not in
/// how much policy the querier carries.
fn pick_queriers(
    ds: &TippersDataset,
    policies: &[Policy],
    target: usize,
    n: usize,
) -> Res<Vec<UserId>> {
    let mut counts = policy_counts(ds, policies);
    counts.sort_by_key(|&(count, id)| (count.abs_diff(target), id));
    if counts.len() < n {
        return Err("campus too small to pick queriers from".into());
    }
    Ok(counts[..n].iter().map(|&(_, id)| id).collect())
}

/// A read-only workload: `statements` statements of the given shapes,
/// alternating, replayed round-robin `rounds` times per block.
fn read_only(
    workload: Workload,
    seed: u64,
    base: &Base,
    shapes: &[Shape],
    statements: usize,
    rounds: usize,
) -> Res<Plan> {
    let ds = &base.dataset;
    let db = &*base.service.db();
    let policies = &base.service.policies();
    let querier = pick_queriers(ds, policies, TARGET_POLICIES, 1)?[0];
    let relevant = oracle::relevant(policies, ds, querier);
    let visible_db = oracle::visible_database(db, &relevant)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut chosen: Vec<Statement> = Vec::new();
    let mut tried = 0usize;
    while chosen.len() < statements {
        tried += 1;
        if tried > 400 * statements + 20_000 {
            return Err(format!(
                "{}: only {} of {statements} statements qualify after {tried} candidates",
                workload.name(),
                chosen.len()
            )
            .into());
        }
        // Alternate the shapes so each contributes the same share.
        let shape = &shapes[chosen.len() % shapes.len()];
        let query = generate_query(ds, shape.class, shape.selectivity, rng.next_u64());
        let sql = render_query(&query);
        let expected = expected_rows(&visible_db, &sql)?;
        if shape.admits(db, &query, &expected)? && seen.insert(sql.clone()) {
            chosen.push(Statement { client: 0, sql, expected });
        }
    }
    let ops = (0..rounds)
        .flat_map(|_| 0..statements)
        .map(|stmt| Op { stmt, grant: None, expect_rows: chosen[stmt].expected.len() })
        .collect();
    Ok(Plan {
        workload,
        queriers: vec![querier],
        expected_after_block: chosen.iter().map(|s| s.expected.clone()).collect(),
        statements: chosen,
        ops,
        policies_per_querier: relevant.len(),
    })
}

/// `policy_churn`: two queriers take turns; before each read a device
/// owner who so far shares nothing with that querier grants it access,
/// and the read is a statement every such grant adds rows to — a stale
/// guard cannot pass unnoticed.
fn churn(seed: u64, base: &Base) -> Res<Plan> {
    let ds = &base.dataset;
    let db = &*base.service.db();
    let policies = &base.service.policies();
    // The most policy-laden non-visitors: regeneration is what this
    // workload prices, and a block's grants should add to a long list,
    // not double a short one.
    let queriers = pick_queriers(ds, policies, usize::MAX, 2)?;
    let mut rng = StdRng::seed_from_u64(seed);

    // Visitors seen on campus in a three-day window, with their rows:
    // the owners who will grant access. Visitors because there are many
    // of them and each has only a handful of rows anywhere, so a read
    // costs what the guard costs, not what fetching a regular's whole
    // history costs.
    let (first, last) = ds.date_range();
    let from = rng.gen_range(first..=last - CHURN_DAYS + 1);
    let window = format!(
        "SELECT * FROM {WIFI_TABLE} AS w WHERE w.ts_date BETWEEN {} AND {}",
        Value::Date(from),
        Value::Date(from + CHURN_DAYS - 1)
    );
    let visitors: BTreeSet<UserId> = ds.devices_of(UserProfile::Visitor).map(|d| d.id).collect();
    let wifi = db.table(WIFI_TABLE)?;
    let owner_col =
        wifi.schema().column_index("owner").ok_or("wifi_dataset has no owner column")?;
    let mut rows_by_owner: BTreeMap<UserId, Vec<Row>> = BTreeMap::new();
    for row in db.run_query(&parse(&window)?)?.rows {
        match row[owner_col] {
            Value::Int(owner) if visitors.contains(&owner) => {
                rows_by_owner.entry(owner).or_default().push(row)
            }
            _ => {}
        }
    }

    let per_querier = CHURN_PAIRS / queriers.len();
    let mut statements = Vec::new();
    let mut grants: Vec<Vec<Policy>> = Vec::new();
    let mut step_rows: Vec<Vec<usize>> = Vec::new();
    let mut after_block = Vec::new();
    let mut policies_per_querier = 0;
    for (client, &querier) in queriers.iter().enumerate() {
        let mut held: Vec<Policy> =
            oracle::relevant(policies, ds, querier).into_iter().cloned().collect();
        if client == 0 {
            policies_per_querier = held.len();
        }
        // Of those, who grants this querier nothing yet: each such grant
        // makes exactly that owner's rows visible.
        let sharing: BTreeSet<UserId> = held.iter().map(|p| p.owner).collect();
        let mut fresh: Vec<UserId> = rows_by_owner
            .keys()
            .copied()
            .filter(|o| !sharing.contains(o) && *o != querier)
            .collect();
        if fresh.len() < per_querier {
            return Err("too few owners left to grant access".into());
        }
        // Seeded choice of who grants, in which order.
        for i in 0..per_querier {
            let j = rng.gen_range(i..fresh.len());
            fresh.swap(i, j);
        }
        fresh.truncate(per_querier);

        // The statement asks for those devices by name, in that window:
        // the Q2 shape, served by the owner index, so that regenerating
        // the guard, not scanning, is the work. Its first reply is
        // empty; every grant adds rows to it.
        let mut devices: Vec<UserId> = fresh.clone();
        devices.sort_unstable();
        let list: Vec<String> = devices.iter().map(|d| d.to_string()).collect();
        let sql = format!("{window} AND w.owner IN ({})", list.join(", "));

        // Filtering by the statement's own predicate commutes with row
        // visibility (one relation, `SELECT *`), so the per-step oracle
        // evaluates policies over the statement's candidate rows only;
        // over the full relation every step would cost a table scan
        // times the policy list. The base state is checked both ways.
        let candidates: Vec<Row> =
            devices.iter().flat_map(|d| rows_by_owner[d].iter().cloned()).collect();
        let candidate_db = oracle::database_with(db, candidates)?;
        let full = {
            let refs: Vec<&Policy> = held.iter().collect();
            expected_rows(&oracle::visible_database(db, &refs)?, &sql)?
        };
        let expected = step_oracle(&candidate_db, &held)?;
        if full != expected {
            return Err("oracle shortcut disagrees with the full oracle".into());
        }

        let mut counts = Vec::new();
        let mut rows = expected.clone();
        let mut mine = Vec::new();
        for &owner in &fresh {
            let grant = Policy::new(owner, WIFI_TABLE, QuerierSpec::User(querier), PURPOSE, vec![]);
            held.push(grant.clone());
            mine.push(grant);
            // The oracle, re-evaluated with the enlarged policy set.
            let now = step_oracle(&candidate_db, &held)?;
            if now.len() != rows.len() + rows_by_owner[&owner].len() {
                return Err("a grant did not add exactly its owner's rows".into());
            }
            counts.push(now.len());
            rows = now;
        }
        statements.push(Statement { client, sql, expected });
        grants.push(mine);
        step_rows.push(counts);
        after_block.push(rows);
    }
    let ops = (0..per_querier)
        .flat_map(|i| (0..queriers.len()).map(move |c| (i, c)))
        .map(|(i, c)| Op {
            stmt: c,
            grant: Some(grants[c][i].clone()),
            expect_rows: step_rows[c][i],
        })
        .collect();
    Ok(Plan {
        workload: Workload::PolicyChurn,
        queriers,
        statements,
        ops,
        expected_after_block: after_block,
        policies_per_querier,
    })
}

/// What `held` lets its querier see of the candidate rows, sorted.
fn step_oracle(candidate_db: &Database, held: &[Policy]) -> Res<Vec<Row>> {
    let refs: Vec<&Policy> = held.iter().collect();
    Ok(sorted_rows(visible_rows(candidate_db, WIFI_TABLE, &refs)?))
}
