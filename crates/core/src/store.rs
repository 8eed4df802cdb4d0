//! Policy and guard persistence (paper Section 5.1).
//!
//! SIEVE stores policies and guarded expressions in ordinary relations so
//! the DBMS itself hosts them: `rP` (policies), `rOC` (object conditions),
//! `rGE` (guarded expressions per querier/purpose/relation), `rGG`
//! (guards), and `rGP` (guard → policy partition membership).
//!
//! `minidb` tables are append-only, so updates (e.g. flipping a guarded
//! expression's `outdated` flag) are written as new versions with higher
//! ids; readers take the latest version per key. The in-memory
//! [`PolicyStore`] is the authoritative working set; the tables are its
//! queryable, durable mirror.

use crate::backend::SqlBackend;
use crate::filter::{policy_applies, GroupDirectory};
use crate::policy::{
    CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata, UserId,
};
use minidb::error::{DbError, DbResult};
use crate::error::SieveResult;
use minidb::value::{DataType, Value};
use minidb::{RangeBound, TableSchema};
use std::collections::{BTreeMap, HashMap};

/// Table name for `rP`.
pub const RP_TABLE: &str = "sieve_policies";
/// Table name for `rOC`.
pub const ROC_TABLE: &str = "sieve_object_conditions";
/// Table name for `rGE`.
pub const RGE_TABLE: &str = "sieve_guard_expressions";
/// Table name for `rGG`.
pub const RGG_TABLE: &str = "sieve_guards";
/// Table name for `rGP`.
pub const RGP_TABLE: &str = "sieve_guard_policies";

/// Attribute prefix marking querier-context conditions inside `rOC`.
pub const QM_ATTR_PREFIX: &str = "__qm_";

/// In-memory policy registry: id assignment, logical clock, lookups.
#[derive(Debug, Default)]
pub struct PolicyStore {
    policies: BTreeMap<PolicyId, Policy>,
    /// Who each policy is granted to → its id, ascending. Kept by `add`
    /// alone, and policies are never removed, so it is always the whole
    /// store: the prefilter of [`PolicyStore::relevant`].
    by_querier: HashMap<QuerierSpec, Vec<PolicyId>>,
    next_id: PolicyId,
    clock: u64,
}

impl PolicyStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a policy: assigns its id and insertion timestamp.
    pub fn add(&mut self, mut p: Policy) -> PolicyId {
        self.next_id += 1;
        self.clock += 1;
        p.id = self.next_id;
        p.inserted_at = self.clock;
        self.by_querier.entry(p.querier.clone()).or_default().push(p.id);
        self.policies.insert(p.id, p);
        self.next_id
    }

    /// Look up by id.
    pub fn get(&self, id: PolicyId) -> Option<&Policy> {
        self.policies.get(&id)
    }

    /// All policies in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Policy> {
        self.policies.values()
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// `P_QM` for a relation, in id order — what
    /// [`crate::filter::relevant_policies`] returns over [`Self::iter`],
    /// without the scan: the index narrows to the policies granted to the
    /// querier or to one of its (transitive) groups, and the canonical
    /// [`policy_applies`] makes the final call, so the lookup cannot
    /// diverge from the scan on any applicability rule (purpose wildcards,
    /// querier context, whatever comes next).
    pub fn relevant(
        &self,
        relation: &str,
        qm: &QueryMetadata,
        groups: &GroupDirectory,
    ) -> Vec<&Policy> {
        let specs = std::iter::once(QuerierSpec::User(qm.querier))
            .chain(groups.groups_of(qm.querier).into_iter().map(QuerierSpec::Group));
        let mut ids: Vec<PolicyId> = specs
            .filter_map(|spec| self.by_querier.get(&spec))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.iter()
            .filter_map(|id| self.policies.get(id))
            .filter(|p| p.relation == relation && policy_applies(p, qm, groups))
            .collect()
    }
}

/// Create the five persistence relations on a backend (idempotent).
pub fn create_policy_tables(db: &mut dyn SqlBackend) -> SieveResult<()> {
    let mk = |db: &mut dyn SqlBackend, schema: TableSchema| -> SieveResult<()> {
        if db.has_relation(&schema.name) {
            Ok(())
        } else {
            Ok(db.create_relation(schema)?)
        }
    };
    mk(
        db,
        TableSchema::of(
            RP_TABLE,
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("querier_type", DataType::Str),
                ("querier", DataType::Int),
                ("associated_table", DataType::Str),
                ("purpose", DataType::Str),
                ("action", DataType::Str),
                ("ts_inserted_at", DataType::Int),
            ],
        ),
    )?;
    mk(
        db,
        TableSchema::of(
            ROC_TABLE,
            &[
                ("id", DataType::Int),
                ("policy_id", DataType::Int),
                ("attr", DataType::Str),
                ("op", DataType::Str),
                ("val", DataType::Str),
            ],
        ),
    )?;
    mk(
        db,
        TableSchema::of(
            RGE_TABLE,
            &[
                ("id", DataType::Int),
                ("querier", DataType::Int),
                ("associated_table", DataType::Str),
                ("purpose", DataType::Str),
                ("outdated", DataType::Bool),
                ("ts_inserted_at", DataType::Int),
            ],
        ),
    )?;
    mk(
        db,
        TableSchema::of(
            RGG_TABLE,
            &[
                ("id", DataType::Int),
                ("guard_expression_id", DataType::Int),
                ("attr", DataType::Str),
                ("op", DataType::Str),
                ("val", DataType::Str),
            ],
        ),
    )?;
    mk(
        db,
        TableSchema::of(
            RGP_TABLE,
            &[("guard_id", DataType::Int), ("policy_id", DataType::Int)],
        ),
    )?;
    // Fast policy lookup by querier, as the ∆ implementation requires.
    db.create_relation_index(RP_TABLE, "querier")?;
    db.create_relation_index(ROC_TABLE, "policy_id")?;
    Ok(())
}

/// Render a value to the `val` text column.
pub fn value_to_text(v: &Value) -> String {
    v.to_string()
}

/// Parse a `val` text column back into a value.
pub fn text_to_value(s: &str) -> DbResult<Value> {
    let t = s.trim();
    if t.eq_ignore_ascii_case("NULL") {
        return Ok(Value::Null);
    }
    if t.eq_ignore_ascii_case("TRUE") {
        return Ok(Value::Bool(true));
    }
    if t.eq_ignore_ascii_case("FALSE") {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = t.strip_prefix("TIME ").or_else(|| t.strip_prefix("time ")) {
        let inner = rest.trim().trim_matches('\'');
        return Value::parse_time(inner)
            .map(Value::Time)
            .ok_or_else(|| DbError::Parse(format!("bad TIME value {s}")));
    }
    if let Some(rest) = t.strip_prefix("DATE ").or_else(|| t.strip_prefix("date ")) {
        let inner = rest.trim().trim_matches('\'');
        return Value::parse_date(inner)
            .map(Value::Date)
            .ok_or_else(|| DbError::Parse(format!("bad DATE value {s}")));
    }
    if t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2 {
        return Ok(Value::str(t[1..t.len() - 1].replace("''", "'")));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = t.parse::<f64>() {
        return Ok(Value::Double(f));
    }
    Err(DbError::Parse(format!("unparseable value text: {s}")))
}

/// Encode one object condition as `(op, val)` rows. Ranges become up to
/// two rows (`>=`/`>` and `<=`/`<`), as in the paper's Table 5.
fn encode_condition(oc: &ObjectCondition) -> Vec<(String, String)> {
    match &oc.pred {
        CondPredicate::Eq(v) => vec![("=".into(), value_to_text(v))],
        CondPredicate::Ne(v) => vec![("!=".into(), value_to_text(v))],
        CondPredicate::In(vs) => vec![(
            "IN".into(),
            vs.iter().map(value_to_text).collect::<Vec<_>>().join(", "),
        )],
        CondPredicate::NotIn(vs) => vec![(
            "NOT IN".into(),
            vs.iter().map(value_to_text).collect::<Vec<_>>().join(", "),
        )],
        CondPredicate::Range { low, high } => {
            let mut rows = Vec::new();
            match low {
                RangeBound::Inclusive(v) => rows.push((">=".into(), value_to_text(v))),
                RangeBound::Exclusive(v) => rows.push((">".into(), value_to_text(v))),
                RangeBound::Unbounded => {}
            }
            match high {
                RangeBound::Inclusive(v) => rows.push(("<=".into(), value_to_text(v))),
                RangeBound::Exclusive(v) => rows.push(("<".into(), value_to_text(v))),
                RangeBound::Unbounded => {}
            }
            rows
        }
        CondPredicate::Derived(q) => {
            vec![("=".into(), format!("({})", minidb::sql::render_query(q)))]
        }
    }
}

/// Persist a policy into `rP`/`rOC`. The policy must already carry its id
/// (i.e. go through [`PolicyStore::add`] first).
pub fn persist_policy(
    db: &mut dyn SqlBackend,
    p: &Policy,
    next_oc_id: &mut i64,
) -> SieveResult<()> {
    let (qt, q) = match &p.querier {
        QuerierSpec::User(u) => ("user", *u),
        QuerierSpec::Group(g) => ("group", *g),
    };
    db.insert_row(
        RP_TABLE,
        vec![
            Value::Int(p.id as i64),
            Value::Int(p.owner),
            Value::str(qt),
            Value::Int(q),
            Value::str(&p.relation),
            Value::str(&p.purpose),
            Value::str("allow"),
            Value::Int(p.inserted_at as i64),
        ],
    )?;
    // Querier-context conditions ride in rOC under a reserved attribute
    // prefix (the paper models them as querier conditions; the relation
    // layout of Section 5.1 has no dedicated table for them).
    for (attr, value) in &p.querier_context {
        *next_oc_id += 1;
        db.insert_row(
            ROC_TABLE,
            vec![
                Value::Int(*next_oc_id),
                Value::Int(p.id as i64),
                Value::str(format!("{QM_ATTR_PREFIX}{attr}")),
                Value::str("="),
                Value::str(value_to_text(value)),
            ],
        )?;
    }
    // Owner condition first, as the paper's examples list it.
    for oc in p.object_conditions() {
        for (op, val) in encode_condition(&oc) {
            *next_oc_id += 1;
            db.insert_row(
                ROC_TABLE,
                vec![
                    Value::Int(*next_oc_id),
                    Value::Int(p.id as i64),
                    Value::str(&oc.attr),
                    Value::str(op),
                    Value::str(val),
                ],
            )?;
        }
    }
    Ok(())
}

/// Decode the `(attr, op, val)` condition rows of one policy back into
/// object conditions, merging range halves on the same attribute.
pub fn decode_conditions(rows: &[(String, String, String)]) -> DbResult<Vec<ObjectCondition>> {
    let mut out: Vec<ObjectCondition> = Vec::new();
    // (attr → index of a pending half-range in `out`).
    let mut pending_range: HashMap<String, usize> = HashMap::new();
    for (attr, op, val) in rows {
        let pred = match op.as_str() {
            "=" if val.trim_start().starts_with('(') => {
                let sql = val.trim();
                let q = minidb::sql::parse(&sql[1..sql.len() - 1])?;
                CondPredicate::Derived(Box::new(q))
            }
            "=" => CondPredicate::Eq(text_to_value(val)?),
            "!=" => CondPredicate::Ne(text_to_value(val)?),
            "IN" | "NOT IN" => {
                let vals: DbResult<Vec<Value>> =
                    val.split(", ").map(text_to_value).collect();
                if op == "IN" {
                    CondPredicate::In(vals?)
                } else {
                    CondPredicate::NotIn(vals?)
                }
            }
            ">=" | ">" => {
                let bound = if op == ">=" {
                    RangeBound::Inclusive(text_to_value(val)?)
                } else {
                    RangeBound::Exclusive(text_to_value(val)?)
                };
                if let Some(&i) = pending_range.get(attr) {
                    if let CondPredicate::Range { low, .. } = &mut out[i].pred {
                        *low = bound;
                        continue;
                    }
                }
                pending_range.insert(attr.clone(), out.len());
                CondPredicate::Range {
                    low: bound,
                    high: RangeBound::Unbounded,
                }
            }
            "<=" | "<" => {
                let bound = if op == "<=" {
                    RangeBound::Inclusive(text_to_value(val)?)
                } else {
                    RangeBound::Exclusive(text_to_value(val)?)
                };
                if let Some(&i) = pending_range.get(attr) {
                    if let CondPredicate::Range { high, .. } = &mut out[i].pred {
                        *high = bound;
                        continue;
                    }
                }
                pending_range.insert(attr.clone(), out.len());
                CondPredicate::Range {
                    low: RangeBound::Unbounded,
                    high: bound,
                }
            }
            other => {
                return Err(DbError::Parse(format!("unknown condition op {other}")))
            }
        };
        out.push(ObjectCondition::new(attr.clone(), pred));
    }
    Ok(out)
}

/// Load all policies back from `rP`/`rOC` (round-trip of
/// [`persist_policy`]). The owner condition row is recognized and folded
/// back into the policy's `owner` field.
pub fn load_policies(db: &dyn SqlBackend) -> SieveResult<Vec<Policy>> {
    let rp = db.table_entry(RP_TABLE)?;
    let roc = db.table_entry(ROC_TABLE)?;
    // Group condition rows by policy id.
    let mut conds: HashMap<i64, Vec<(String, String, String)>> = HashMap::new();
    for row in roc.table.rows() {
        let pid = row[1].as_int().unwrap_or(0);
        conds.entry(pid).or_default().push((
            row[2].as_str().unwrap_or("").to_string(),
            row[3].as_str().unwrap_or("").to_string(),
            row[4].as_str().unwrap_or("").to_string(),
        ));
    }
    let mut out = Vec::new();
    for row in rp.table.rows() {
        let id = row[0].as_int().unwrap_or(0);
        let owner: UserId = row[1].as_int().unwrap_or(0);
        let querier = match row[2].as_str().unwrap_or("user") {
            "group" => QuerierSpec::Group(row[3].as_int().unwrap_or(0)),
            _ => QuerierSpec::User(row[3].as_int().unwrap_or(0)),
        };
        let relation = row[4].as_str().unwrap_or("").to_string();
        let purpose = row[5].as_str().unwrap_or("").to_string();
        let raw = conds.get(&id).cloned().unwrap_or_default();
        // Split out querier-context rows before decoding object conditions.
        let (ctx_rows, oc_rows): (Vec<_>, Vec<_>) = raw
            .into_iter()
            .partition(|(attr, _, _)| attr.starts_with(QM_ATTR_PREFIX));
        let decoded = decode_conditions(&oc_rows)?;
        // Strip the implied owner condition.
        let conditions: Vec<ObjectCondition> = decoded
            .into_iter()
            .filter(|oc| {
                !(oc.attr == crate::policy::OWNER_ATTR
                    && oc.pred == CondPredicate::Eq(Value::Int(owner)))
            })
            .collect();
        let mut p = Policy::new(owner, relation, querier, purpose, conditions);
        for (attr, _, val) in ctx_rows {
            p.querier_context.push((
                attr[QM_ATTR_PREFIX.len()..].to_string(),
                text_to_value(&val)?,
            ));
        }
        p.id = id as PolicyId;
        p.inserted_at = row[7].as_int().unwrap_or(0) as u64;
        out.push(p);
    }
    out.sort_by_key(|p| p.id);
    Ok(out)
}

/// Persist a guarded expression (new version) into `rGE`/`rGG`/`rGP`.
/// Returns the new guarded-expression version id.
pub fn persist_guarded_expression(
    db: &mut dyn SqlBackend,
    ge: &crate::guard::GuardedExpression,
    outdated: bool,
    ids: &mut GuardTableIds,
) -> SieveResult<i64> {
    ids.next_ge += 1;
    let ge_id = ids.next_ge;
    ids.clock += 1;
    db.insert_row(
        RGE_TABLE,
        vec![
            Value::Int(ge_id),
            Value::Int(ge.querier),
            Value::str(&ge.relation),
            Value::str(&ge.purpose),
            Value::Bool(outdated),
            Value::Int(ids.clock),
        ],
    )?;
    for g in &ge.guards {
        ids.next_guard += 1;
        let gid = ids.next_guard;
        for (op, val) in encode_condition(&g.condition) {
            db.insert_row(
                RGG_TABLE,
                vec![
                    Value::Int(gid),
                    Value::Int(ge_id),
                    Value::str(&g.condition.attr),
                    Value::str(op),
                    Value::str(val),
                ],
            )?;
        }
        for pid in &g.policies {
            db.insert_row(
                RGP_TABLE,
                vec![Value::Int(gid), Value::Int(*pid as i64)],
            )?;
        }
    }
    Ok(ge_id)
}

/// Monotonic id counters for the guard tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct GuardTableIds {
    /// Last `rGE` id issued.
    pub next_ge: i64,
    /// Last `rGG` guard id issued.
    pub next_guard: i64,
    /// Logical clock for `ts_inserted_at`.
    pub clock: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Database, DbProfile};

    fn sample_policies() -> Vec<Policy> {
        vec![
            Policy::new(
                120,
                "wifi_dataset",
                QuerierSpec::User(500),
                "Attendance",
                vec![
                    ObjectCondition::new(
                        "ts_time",
                        CondPredicate::between(Value::Time(9 * 3600), Value::Time(10 * 3600)),
                    ),
                    ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1200))),
                ],
            ),
            Policy::new(
                145,
                "wifi_dataset",
                QuerierSpec::Group(7),
                "Any",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::In(vec![Value::Int(2300), Value::Int(2301)]),
                )],
            ),
            Policy::new(
                146,
                "wifi_dataset",
                QuerierSpec::User(501),
                "Analytics",
                vec![ObjectCondition::new(
                    "ts_time",
                    CondPredicate::ge(Value::Time(8 * 3600)),
                )],
            ),
        ]
    }

    #[test]
    fn store_assigns_ids_and_clock() {
        let mut store = PolicyStore::new();
        let ids: Vec<PolicyId> = sample_policies().into_iter().map(|p| store.add(p)).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(store.len(), 3);
        assert!(store.get(2).unwrap().inserted_at < store.get(3).unwrap().inserted_at);
    }

    #[test]
    fn value_text_roundtrip() {
        for v in [
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("O'Brien"),
            Value::Time(9 * 3600),
            Value::Date(18_000),
            Value::Bool(true),
            Value::Null,
        ] {
            let text = value_to_text(&v);
            let back = text_to_value(&text).unwrap();
            assert_eq!(v, back, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn policy_persistence_roundtrip() {
        let mut db = Database::new(DbProfile::MySqlLike);
        create_policy_tables(&mut db).unwrap();
        let mut store = PolicyStore::new();
        let mut oc_id = 0i64;
        let originals: Vec<Policy> = sample_policies()
            .into_iter()
            .map(|p| {
                let id = store.add(p);
                let stored = store.get(id).unwrap().clone();
                persist_policy(&mut db, &stored, &mut oc_id).unwrap();
                stored
            })
            .collect();
        let loaded = load_policies(&db).unwrap();
        assert_eq!(loaded.len(), originals.len());
        for (a, b) in loaded.iter().zip(originals.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn derived_condition_roundtrip() {
        let mut db = Database::new(DbProfile::MySqlLike);
        create_policy_tables(&mut db).unwrap();
        // The Section 3.1 nested policy: AP derived from Prof. Smith's.
        let sub = minidb::sql::parse(
            "SELECT w2.wifi_ap FROM wifi_dataset AS w2 WHERE w2.owner = 500 LIMIT 1",
        )
        .unwrap();
        let p = Policy::new(
            120,
            "wifi_dataset",
            QuerierSpec::User(500),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Derived(Box::new(sub)),
            )],
        );
        let mut store = PolicyStore::new();
        let id = store.add(p);
        let stored = store.get(id).unwrap().clone();
        let mut oc_id = 0;
        persist_policy(&mut db, &stored, &mut oc_id).unwrap();
        let loaded = load_policies(&db).unwrap();
        assert_eq!(loaded[0], stored);
    }

    #[test]
    fn guarded_expression_persists() {
        use crate::guard::{Guard, GuardedExpression};
        let mut db = Database::new(DbProfile::MySqlLike);
        create_policy_tables(&mut db).unwrap();
        let ge = GuardedExpression {
            relation: "wifi_dataset".into(),
            querier: 500,
            purpose: "Any".into(),
            guards: vec![Guard {
                condition: ObjectCondition::new("owner", CondPredicate::Eq(Value::Int(1))),
                policies: vec![1, 2],
                est_rows: 10.0,
            }],
        };
        let mut ids = GuardTableIds::default();
        let v1 = persist_guarded_expression(&mut db, &ge, false, &mut ids).unwrap();
        let v2 = persist_guarded_expression(&mut db, &ge, true, &mut ids).unwrap();
        assert!(v2 > v1);
        assert_eq!(db.table(RGE_TABLE).unwrap().table.len(), 2);
        assert_eq!(db.table(RGP_TABLE).unwrap().table.len(), 4);
    }

    #[test]
    fn querier_context_roundtrip() {
        let mut db = Database::new(DbProfile::MySqlLike);
        create_policy_tables(&mut db).unwrap();
        let p = Policy::new(
            9,
            "wifi_dataset",
            QuerierSpec::User(500),
            "Safety",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1200)),
            )],
        )
        .with_context("network", Value::str("campus"))
        .with_context("mfa", Value::Bool(true));
        let mut store = PolicyStore::new();
        let id = store.add(p);
        let stored = store.get(id).unwrap().clone();
        let mut oc_id = 0;
        persist_policy(&mut db, &stored, &mut oc_id).unwrap();
        let loaded = load_policies(&db).unwrap();
        assert_eq!(loaded[0], stored);
        assert_eq!(loaded[0].querier_context.len(), 2);
    }

    #[test]
    fn half_open_ranges_decode() {
        let rows = vec![(
            "ts_time".to_string(),
            ">=".to_string(),
            "TIME '08:00:00'".to_string(),
        )];
        let conds = decode_conditions(&rows).unwrap();
        assert_eq!(conds.len(), 1);
        assert_eq!(
            conds[0].pred,
            CondPredicate::ge(Value::Time(8 * 3600))
        );
    }
}
