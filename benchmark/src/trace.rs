//! The outside-in layer trace (`--trace 1`): the same operations as the
//! end-to-end run, each sent again through every layer's public entry
//! point, deepest layer last, so that a layer's self time is its span
//! minus the deeper layer's span for the same operation.
//!
//! Nothing inside the program is instrumented: every span is a clock
//! read in this file around one call into `sieve_client`,
//! `sieve_protocol`, `sieve_core` or `minidb`. Spans stay in memory and
//! are written to `out/trace_<workload>.jsonl` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use minidb::sql::{parse, render_query};
use minidb::{Counters, ExecOptions, QueryResult, SelectQuery};
use sieve_core::{GuardCacheStats, Policy, Prepared, QuerierSpec, Session, SqlBackend};
use sieve_protocol::frame::{read_frame, write_frame};
use sieve_protocol::message::{ClientMessage, ServerMessage};
use sieve_workload::WIFI_TABLE;

use crate::fixture::{metadata, Stack};
use crate::oracle::PURPOSE;
use crate::plan::{Plan, Workload, SCALE};
use crate::report::Metric;
use crate::run::{plan_for, run_block, spin_us, timed_build, Tally};
use crate::stats::{best_low, median_of, noise_index};
use crate::sys::{self, Provenance};
use crate::Res;

/// Operations sampled per workload.
pub const TRACE_OPS: usize = 200;
/// Untraced blocks measured first: the yardstick for tracing overhead.
const UNTRACED_BLOCKS: usize = 5;
/// Insert probes run after a read-only workload's sampled operations, so
/// the write-path layers report a number on every workload.
const WRITE_PROBES: usize = 20;

/// Every per-layer metric, with its unit, in reporting order.
/// `BENCHMARK.json` repeats this table; a test keeps the two in step.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("transport.rtt_us", "us"),
    ("transport.writes_per_op", "count"),
    ("transport.reads_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("server.dispatch_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("protocol.request_codec_us", "us"),
    ("protocol.response_codec_us", "us"),
    ("protocol.response_bytes_per_row", "B"),
    ("session.execute_us", "us"),
    ("session.execute_sql_us", "us"),
    ("session.prepare_us", "us"),
    ("session.reprepares_per_op", "count"),
    ("service.add_policy_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.generations_per_op", "count"),
    ("cache.fragment_builds_per_op", "count"),
    ("cache.invalidations_per_write", "count"),
    ("cache.evictions", "count"),
    ("cache.coalesced", "count"),
    ("guard.generate_us", "us"),
    ("guard.guards_per_expression", "count"),
    ("guard.policies_per_querier", "count"),
    ("rewrite.warm_us", "us"),
    ("rewrite.cold_us", "us"),
    ("rewrite.sql_bytes", "B"),
    ("backend.exec_us", "us"),
    ("minidb.parse_us", "us"),
    ("minidb.tuples_read_per_op", "count"),
    ("minidb.predicate_evals_per_op", "count"),
    ("minidb.policy_evals_per_op", "count"),
    ("minidb.udf_invocations_per_op", "count"),
    ("minidb.index_probes_per_op", "count"),
    ("minidb.tuples_output_per_op", "count"),
    ("minidb.rows_examined_per_row_returned", "ratio"),
    ("setup.generate_data_s", "s"),
    ("setup.load_policies_s", "s"),
    ("setup.connect_us", "us"),
    ("setup.prepare_warm_s", "s"),
    ("harness.spin_us", "us"),
    ("harness.noise_index", "ratio"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One timed call into a layer.
struct Span {
    op_id: usize,
    name: &'static str,
    /// The layer that, in a real request, calls this one.
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans and per-operation counts, kept in memory until the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }

    /// Run `f` as span `name` of operation `op_id`.
    fn time<T>(
        &mut self,
        op_id: usize,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Median duration of the spans called `name`, in µs (0 when the
    /// workload never enters that layer).
    fn median_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median_of(&us).unwrap_or(0.0)
    }

    /// Median over operations of `span − Σ inner`, in µs, taken per
    /// operation so that statements of different cost cancel out. Where
    /// no operation has all the spans (`policy_churn` reads through one
    /// layer per operation) it is the difference of the medians.
    fn median_self_us(&self, span: &str, inner: &[&str]) -> f64 {
        let mut by_op: BTreeMap<usize, BTreeMap<&str, f64>> = BTreeMap::new();
        for s in &self.spans {
            by_op.entry(s.op_id).or_default().insert(s.name, (s.end_ns - s.start_ns) as f64 / 1e3);
        }
        let diffs: Vec<f64> = by_op
            .values()
            .filter_map(|spans| {
                let inner_sum: Option<f64> = inner.iter().map(|n| spans.get(n)).sum();
                Some(spans.get(span)? - inner_sum?)
            })
            .collect();
        median_of(&diffs).unwrap_or_else(|| {
            self.median_us(span) - inner.iter().map(|n| self.median_us(n)).sum::<f64>()
        })
    }

    fn median_count(&self, name: &str) -> f64 {
        self.counts.get(name).and_then(|v| median_of(v)).unwrap_or(0.0)
    }

    fn sum_count(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op_id\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op_id, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The in-process handles the server would hold for the plan: one
/// session per querier, one pinned statement per plan statement.
struct InProcess {
    sessions: Vec<Session>,
    queries: Vec<SelectQuery>,
    prepared: Vec<Prepared>,
}

impl InProcess {
    fn open(plan: &Plan, stack: &Stack) -> Res<Self> {
        let sessions: Vec<Session> =
            plan.queriers.iter().map(|&q| stack.base.service.session(metadata(q))).collect();
        let mut queries = Vec::new();
        let mut prepared = Vec::new();
        for stmt in &plan.statements {
            queries.push(parse(&stmt.sql)?);
            prepared.push(sessions[stmt.client].prepare_sql(&stmt.sql)?);
        }
        Ok(InProcess { sessions, queries, prepared })
    }
}

/// The cache and server counters the trace reports, summed over the
/// stacks a traced run uses (`policy_churn` builds several).
#[derive(Default)]
struct Totals {
    hits: u64,
    generations: u64,
    fragment_builds: u64,
    evictions: u64,
    coalesced: u64,
    served: u64,
    refused: u64,
}

/// Counter readings of one stack at one moment.
struct Mark {
    cache: GuardCacheStats,
    server: (u64, u64),
}

impl Mark {
    fn of(stack: &Stack) -> Self {
        Mark { cache: stack.base.service.cache_stats(), server: stack.server_counts() }
    }
}

impl Totals {
    /// Add what `stack` counted since `mark`.
    fn add_since(&mut self, mark: &Mark, stack: &Stack) {
        let now = Mark::of(stack);
        self.hits += now.cache.hits - mark.cache.hits;
        self.generations += now.cache.generations() - mark.cache.generations();
        self.fragment_builds += now.cache.fragment_builds - mark.cache.fragment_builds;
        self.evictions += now.cache.evictions - mark.cache.evictions;
        self.coalesced += now.cache.coalesced - mark.cache.coalesced;
        self.served += now.server.0 - mark.server.0;
        self.refused += now.server.1 - mark.server.1;
    }
}

/// Everything one traced run produced.
pub struct Traced {
    /// Every per-layer metric of `BENCHMARK.json`, in its order.
    pub metrics: Vec<Metric>,
    /// Reads attempted and failed while tracing.
    pub tally: Tally,
    /// The full record.
    pub record: String,
}

struct Tracer<'a> {
    plan: &'a Plan,
    rec: Recorder,
    tally: Tally,
    /// Name of the span that is this workload's in-process session call.
    session_span: &'static str,
}

impl Tracer<'_> {
    /// Encode, frame, unframe and decode this operation's real request
    /// and reply, as the client and server each do once per request.
    fn codecs(&mut self, op: usize, stmt: usize, reply: QueryResult) -> Res<()> {
        let s = &self.plan.statements[stmt];
        let request = match self.plan.workload.sends_text() {
            true => ClientMessage::Execute {
                metadata: metadata(self.plan.queriers[s.client]),
                sql: s.sql.clone(),
            },
            false => ClientMessage::ExecutePrepared { statement: stmt as u64 + 1 },
        };
        self.rec.time(op, "protocol.request_codec", "loopback.round_trip", || -> Res<()> {
            let mut wire = Vec::new();
            write_frame(&mut wire, &request.encode())?;
            ClientMessage::decode(&read_frame(&mut wire.as_slice())?)?;
            Ok(())
        })?;
        let rows = reply.rows.len();
        let response = ServerMessage::Rows(reply);
        let bytes = self.rec.time(
            op,
            "protocol.response_codec",
            "loopback.round_trip",
            || -> Res<usize> {
                let mut wire = Vec::new();
                write_frame(&mut wire, &response.encode())?;
                ServerMessage::decode(&read_frame(&mut wire.as_slice())?)?;
                Ok(wire.len())
            },
        )?;
        self.rec.count("response_bytes", bytes as f64);
        self.rec.count("response_rows", rows as f64);
        Ok(())
    }

    /// Run `query` as rewritten for the session straight on the backend.
    fn backend_exec(
        &mut self,
        op: usize,
        stack: &Stack,
        rewritten: &SelectQuery,
        expect_rows: usize,
    ) {
        let (reply, stats) = self.rec.time(op, "backend.exec", self.session_span, || {
            stack.base.service.backend().exec_timed(rewritten, &ExecOptions::default())
        });
        self.tally.record(&reply, expect_rows);
        self.counters(&stats.counters);
    }

    fn counters(&mut self, c: &Counters) {
        self.rec.count("tuples_read", c.tuples_read as f64);
        self.rec.count("predicate_evals", c.predicate_evals as f64);
        self.rec.count("policy_evals", c.policy_evals as f64);
        self.rec.count("udf_invocations", c.udf_invocations as f64);
        self.rec.count("index_probes", c.index_probes as f64);
        self.rec.count("tuples_output", c.tuples_output as f64);
    }

    /// One request over TCP, with what it moved across the socket.
    fn tcp_round_trip(&mut self, op: usize, stack: &Stack, stmt: usize, expect_rows: usize) {
        let io0 = stack.io.snapshot();
        let reply =
            self.rec.time(op, "client.round_trip", "", || stack.tcp().read(self.plan, stmt));
        let io = stack.io.snapshot().since(&io0);
        self.tally.record(&reply, expect_rows);
        self.rec.count("writes", io.writes as f64);
        self.rec.count("reads", io.reads as f64);
        self.rec.count("bytes", io.bytes as f64);
    }

    /// The pinned-plan call the server makes for `ExecutePrepared`.
    fn session_execute(&mut self, op: usize, prepared: &Prepared, expect_rows: usize) {
        let before = prepared.reprepares();
        let reply =
            self.rec.time(op, "session.execute", "loopback.round_trip", || prepared.execute());
        self.tally.record(&reply, expect_rows);
        self.rec.count("reprepares", (prepared.reprepares() - before) as f64);
    }

    /// The layers below the wire, on a warm guard: parse, rewrite,
    /// prepare, one-shot execute, backend, codecs.
    fn warm_layers(
        &mut self,
        op: usize,
        stmt: usize,
        expect_rows: usize,
        stack: &Stack,
        inproc: &InProcess,
    ) -> Res<()> {
        let s = &self.plan.statements[stmt];
        let session = &inproc.sessions[s.client];
        self.rec.time(op, "minidb.parse", "session.execute_sql", || parse(&s.sql))?;
        let reply = self
            .rec
            .time(op, "session.execute_sql", "loopback.round_trip", || session.execute_sql(&s.sql));
        self.tally.record(&reply, expect_rows);
        let fresh = self
            .rec
            .time(op, "session.prepare", "loopback.round_trip", || session.prepare_sql(&s.sql))?;
        drop(fresh);
        let rewritten = self.rec.time(op, "rewrite.warm", self.session_span, || {
            session.rewrite(&inproc.queries[stmt])
        })?;
        self.rec.count("sql_bytes", render_query(&rewritten.query).len() as f64);
        self.backend_exec(op, stack, &rewritten.query, expect_rows);
        self.codecs(op, stmt, reply?)
    }

    /// One sampled operation of a read-only workload: over TCP, over the
    /// loopback, in process, then layer by layer.
    fn read_only_op(&mut self, op: usize, stack: &Stack, inproc: &InProcess) -> Res<()> {
        let plan_op = &self.plan.ops[op % self.plan.ops.len()];
        let (stmt, expect) = (plan_op.stmt, plan_op.expect_rows);
        let looped = stack.looped().ok_or("trace stack has no loopback endpoint")?;

        // Each timed call follows an untimed one of its own kind, as it
        // would in the closed loop: timed cold after the other layers'
        // probes, a round trip reads a fifth slower than it is.
        self.tally.record(&stack.tcp().read(self.plan, stmt), expect);
        self.tcp_round_trip(op, stack, stmt, expect);

        self.tally.record(&looped.read(self.plan, stmt), expect);
        let reply = self
            .rec
            .time(op, "loopback.round_trip", "client.round_trip", || looped.read(self.plan, stmt));
        self.tally.record(&reply, expect);

        self.tally.record(&inproc.prepared[stmt].execute(), expect);
        self.session_execute(op, &inproc.prepared[stmt], expect);

        self.warm_layers(op, stmt, expect, stack, inproc)
    }

    /// One sampled operation of `policy_churn`: the insert, then the read
    /// through one layer — which layer rotates, because an insert can be
    /// paid for only once — then the warm layers.
    fn churn_op(&mut self, op: usize, stack: &Stack, inproc: &InProcess) -> Res<()> {
        let plan_op = &self.plan.ops[op % self.plan.ops.len()];
        let (stmt, expect) = (plan_op.stmt, plan_op.expect_rows);
        let grant = plan_op.grant.clone().ok_or("policy_churn operation without a grant")?;
        let session = &inproc.sessions[self.plan.statements[stmt].client];
        let service = &stack.base.service;
        let looped = stack.looped().ok_or("trace stack has no loopback endpoint")?;

        let invalidations = service.cache_stats().invalidations;
        self.rec.time(op, "service.add_policy", "", || service.add_policy(grant))?;
        self.rec
            .count("invalidations", (service.cache_stats().invalidations - invalidations) as f64);

        let step = op / self.plan.queriers.len();
        match step % 5 {
            0 => self.tcp_round_trip(op, stack, stmt, expect),
            1 => {
                let reply = self.rec.time(op, "loopback.round_trip", "client.round_trip", || {
                    looped.read(self.plan, stmt)
                });
                self.tally.record(&reply, expect);
            }
            2 => self.session_execute(op, &inproc.prepared[stmt], expect),
            3 => {
                let guards = self.rec.time(op, "guard.generate", "rewrite.cold", || {
                    session.guarded_expression(WIFI_TABLE)
                })?;
                self.rec.count("guards", guards.guards.len() as f64);
            }
            _ => {
                let rewritten = self.rec.time(op, "rewrite.cold", "session.execute", || {
                    session.rewrite(&inproc.queries[stmt])
                })?;
                drop(rewritten);
            }
        }
        self.warm_layers(op, stmt, expect, stack, inproc)
    }

    /// Write-path probes for a read-only workload, after its sampled
    /// operations: an owner grants the querier access, then either the
    /// guard is regenerated directly or a rewrite pays for it.
    fn write_probes(&mut self, stack: &Stack, inproc: &InProcess) -> Res<()> {
        let service = &stack.base.service;
        let querier = self.plan.queriers[0];
        for probe in 0..WRITE_PROBES {
            let op = TRACE_OPS + probe;
            let owner = stack.base.dataset.devices[probe].id;
            let grant = Policy::new(owner, WIFI_TABLE, QuerierSpec::User(querier), PURPOSE, vec![]);
            let invalidations = service.cache_stats().invalidations;
            self.rec.time(op, "service.add_policy", "", || service.add_policy(grant))?;
            self.rec.count(
                "invalidations",
                (service.cache_stats().invalidations - invalidations) as f64,
            );
            if probe % 2 == 0 {
                let guards = self.rec.time(op, "guard.generate", "rewrite.cold", || {
                    inproc.sessions[0].guarded_expression(WIFI_TABLE)
                })?;
                self.rec.count("guards", guards.guards.len() as f64);
            } else {
                self.rec.time(op, "rewrite.cold", "session.execute", || {
                    inproc.sessions[0].rewrite(&inproc.queries[0])
                })?;
            }
        }
        Ok(())
    }
}

/// Trace `workload` for `seed`.
pub fn run_trace(workload: Workload, seed: u64, prov: &Provenance) -> Res<Traced> {
    let plan = plan_for(workload, seed)?;
    let churn = workload == Workload::PolicyChurn;
    let (mut stack, _) = timed_build(&plan, true)?;
    let setup = [
        ("setup.generate_data_s", stack.base.generate_data_s),
        ("setup.load_policies_s", stack.base.load_policies_s),
        ("setup.connect_us", median_of(&stack.tcp().connect_us).unwrap_or(0.0)),
        ("setup.prepare_warm_s", stack.prepare_warm_s),
    ];

    // Untraced yardstick: the end-to-end loop, warm-up block first.
    let mut tracer = Tracer {
        plan: &plan,
        rec: Recorder::new(),
        tally: Tally::default(),
        session_span: if workload.sends_text() { "session.execute_sql" } else { "session.execute" },
    };
    let mut untraced_ms = Vec::new();
    for block in 0..=UNTRACED_BLOCKS {
        let samples = run_block(&plan, &stack, &mut tracer.tally)?;
        if block > 0 {
            untraced_ms.extend(samples.read_ms);
        }
        if churn {
            drop(stack);
            stack = timed_build(&plan, true)?.0;
        }
    }

    // The sampled operations.
    let mut inproc = InProcess::open(&plan, &stack)?;
    let mut spins = Vec::new();
    let mut totals = Totals::default();
    let mut mark = Mark::of(&stack);
    for op in 0..TRACE_OPS {
        if churn && op > 0 && op % plan.ops.len() == 0 {
            // A block's worth of grants has been spent: fresh stack.
            totals.add_since(&mark, &stack);
            drop(inproc);
            drop(stack);
            stack = timed_build(&plan, true)?.0;
            inproc = InProcess::open(&plan, &stack)?;
            mark = Mark::of(&stack);
        }
        if op % 10 == 0 {
            spins.push(spin_us());
        }
        match churn {
            true => tracer.churn_op(op, &stack, &inproc)?,
            false => tracer.read_only_op(op, &stack, &inproc)?,
        }
    }
    totals.add_since(&mark, &stack);
    if !churn {
        stack.verify(&plan, plan.expected_after_block.iter())?;
        tracer.write_probes(&stack, &inproc)?;
    }
    drop(inproc);
    drop(stack);

    let Tracer { rec, tally, session_span, .. } = tracer;
    let us = |name: &str| rec.median_us(name);
    let ops = TRACE_OPS as f64;
    let session_call = us(session_span);
    // What the session call is made of, as far as the layers below it
    // were timed: warm text = parse + rewrite + execute; warm pinned
    // plan = execute; after an insert = cold rewrite + execute.
    let attributed = match (churn, workload.sends_text()) {
        (true, _) => us("rewrite.cold") + us("backend.exec"),
        (false, true) => us("minidb.parse") + us("rewrite.warm") + us("backend.exec"),
        (false, false) => us("backend.exec"),
    };
    let untraced_p50 = median_of(&untraced_ms).ok_or("no untraced sample")?;
    let lookups = (totals.hits + totals.generations) as f64;
    let writes = rec.counts.get("invalidations").map_or(0, Vec::len) as f64;
    let per_op = |name: &str| rec.median_count(name);

    let mut measured: Vec<(&str, f64)> = vec![
        ("transport.rtt_us", rec.median_self_us("client.round_trip", &["loopback.round_trip"])),
        ("transport.writes_per_op", per_op("writes")),
        ("transport.reads_per_op", per_op("reads")),
        ("transport.bytes_per_op", per_op("bytes")),
        (
            "server.dispatch_us",
            rec.median_self_us(
                "loopback.round_trip",
                &[session_span, "protocol.request_codec", "protocol.response_codec"],
            ),
        ),
        ("server.requests", totals.served as f64),
        ("server.errors", totals.refused as f64),
        ("protocol.request_codec_us", us("protocol.request_codec")),
        ("protocol.response_codec_us", us("protocol.response_codec")),
        (
            "protocol.response_bytes_per_row",
            rec.sum_count("response_bytes") / rec.sum_count("response_rows").max(1.0),
        ),
        ("session.execute_us", us("session.execute")),
        ("session.execute_sql_us", us("session.execute_sql")),
        ("session.prepare_us", us("session.prepare")),
        ("session.reprepares_per_op", per_op("reprepares")),
        ("service.add_policy_us", us("service.add_policy")),
        ("cache.hit_ratio", if lookups > 0.0 { totals.hits as f64 / lookups } else { 1.0 }),
        ("cache.generations_per_op", totals.generations as f64 / ops),
        ("cache.fragment_builds_per_op", totals.fragment_builds as f64 / ops),
        ("cache.invalidations_per_write", rec.sum_count("invalidations") / writes.max(1.0)),
        ("cache.evictions", totals.evictions as f64),
        ("cache.coalesced", totals.coalesced as f64),
        ("guard.generate_us", us("guard.generate")),
        ("guard.guards_per_expression", per_op("guards")),
        ("guard.policies_per_querier", plan.policies_per_querier as f64),
        ("rewrite.warm_us", us("rewrite.warm")),
        ("rewrite.cold_us", us("rewrite.cold")),
        ("rewrite.sql_bytes", per_op("sql_bytes")),
        ("backend.exec_us", us("backend.exec")),
        ("minidb.parse_us", us("minidb.parse")),
        ("minidb.tuples_read_per_op", per_op("tuples_read")),
        ("minidb.predicate_evals_per_op", per_op("predicate_evals")),
        ("minidb.policy_evals_per_op", per_op("policy_evals")),
        ("minidb.udf_invocations_per_op", per_op("udf_invocations")),
        ("minidb.index_probes_per_op", per_op("index_probes")),
        ("minidb.tuples_output_per_op", per_op("tuples_output")),
        (
            "minidb.rows_examined_per_row_returned",
            rec.sum_count("tuples_read") / rec.sum_count("tuples_output").max(1.0),
        ),
    ];
    measured.extend(setup);
    measured.extend([
        ("harness.spin_us", best_low(&spins).ok_or("no spin")?),
        ("harness.noise_index", noise_index(&spins).ok_or("no spin")?),
        ("trace.unattributed_pct", 100.0 * (session_call - attributed) / session_call),
        (
            "trace.overhead_pct",
            100.0 * (us("client.round_trip") - untraced_p50 * 1e3) / (untraced_p50 * 1e3),
        ),
    ]);

    // Names, units and order come from the table `BENCHMARK.json`
    // repeats; the code above only supplies the values.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = measured
                .iter()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok(Metric::new(name, *value, unit))
        })
        .collect::<Res<Vec<Metric>>>()?;

    let path = sys::out_dir()?.join(format!("trace_{}.jsonl", workload.name()));
    std::fs::write(&path, rec.jsonl())?;
    let record = format!(
        "{{\"kind\": \"trace\", \"workload\": \"{}\", \"seed\": {seed}, \"scale\": {}, {}, \
         \"blocks\": {UNTRACED_BLOCKS}, \"ops_per_block\": {}, \"sampled_ops\": {TRACE_OPS}, \
         \"ops_attempted\": {}, \"ops_failed\": {}, \"spans\": {}, \"spans_file\": \"{}\", \
         \"untraced_p50_ms\": {untraced_p50:.6}, \"metrics\": {}}}",
        workload.name(),
        SCALE,
        prov.json_members(),
        plan.ops.len(),
        tally.attempted,
        tally.failed,
        rec.spans.len(),
        crate::report::escape(&path.display().to_string()),
        crate::report::metrics_object(&metrics),
    );
    Ok(Traced { metrics, tally, record })
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;
    use crate::report::manifest::{objects, read, string};

    #[test]
    fn benchmark_json_repeats_the_per_layer_table() {
        let json = read();
        let declared: Vec<(&str, &str)> = objects(&json, "per_layer")
            .iter()
            .map(|o| (string(o, "name"), string(o, "unit")))
            .collect();
        assert_eq!(declared, PER_LAYER);
    }
}
