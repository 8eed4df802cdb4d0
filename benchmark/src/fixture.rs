//! Building the system under test: data and policies ([`Base`]), then
//! the server, its connections and prepared statements ([`Stack`]).
//!
//! A complete stack build is what `setup_s` times, so every step here is
//! a call into the program, never benchmark bookkeeping: the expected
//! rows the first replies are checked against were computed beforehand
//! by [`crate::plan`].

use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use minidb::{Database, DbProfile, QueryResult, Row};
use sieve_client::{ClientResult, RemoteConnection, RemotePrepared, RemoteSession};
use sieve_core::{QueryMetadata, SieveOptions, SieveService, UserId};
use sieve_server::{
    loopback, LoopbackConnector, ServerHandle, ServerStats, SieveServer, TokenAuthenticator,
};
use sieve_workload::{
    generate_policies, generate_tippers, PolicyGenConfig, TippersConfig, TippersDataset, WIFI_TABLE,
};

use crate::oracle::{sorted_rows, PURPOSE};
use crate::plan::{Plan, SCALE};
use crate::tcp::{self, CountingStream, IoCounters, Shutdown};
use crate::Res;

/// Data, policies and the enforcement service over them: everything
/// below the server.
pub struct Base {
    /// Device directory and groups of the generated campus.
    pub dataset: TippersDataset,
    /// The middleware, owning the loaded database.
    pub service: SieveService,
    /// Generating the campus and loading minidb with its indexes.
    pub generate_data_s: f64,
    /// Generating the policy corpus and registering it.
    pub load_policies_s: f64,
}

/// Generate the TIPPERS campus at [`SCALE`], load it, and put the default
/// middleware over it with the Section 7.1 policy corpus. Generators
/// and middleware run with their defaults: no knob is set, so every
/// run of a workload sees the same campus and `--seed` varies only what
/// is asked of it. (A campus per seed was tried first: latency then
/// differed by up to 25 % between seeds, three times the bound a later
/// change is judged by.)
pub fn build_base() -> Res<Base> {
    let t0 = Instant::now();
    let mut db = Database::new(DbProfile::MySqlLike);
    let config = TippersConfig { scale: SCALE, ..TippersConfig::default() };
    let dataset = generate_tippers(&mut db, &config)?;
    let generate_data_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let policies = generate_policies(&dataset, &PolicyGenConfig::default());
    let service = SieveService::new(db, SieveOptions::default())?;
    service.with_groups_mut(|g| *g = dataset.groups.clone());
    service.add_policies(policies)?;
    service.protect(WIFI_TABLE);
    let load_policies_s = t1.elapsed().as_secs_f64();
    Ok(Base { dataset, service, generate_data_s, load_policies_s })
}

/// The metadata every request of `querier` carries.
pub fn metadata(querier: UserId) -> QueryMetadata {
    QueryMetadata::new(querier, PURPOSE)
}

/// One transport's client side: a connection and session per querier of
/// the plan, and the plan's statements prepared on them (`None` for a
/// statement the workload sends as text).
pub struct Endpoint {
    sessions: Vec<RemoteSession>,
    prepared: Vec<Option<RemotePrepared>>,
    /// Connect + handshake + authentication, per connection, in µs.
    pub connect_us: Vec<f64>,
}

impl Endpoint {
    fn open<C>(plan: &Plan, connect: impl Fn() -> std::io::Result<C>) -> Res<Self>
    where
        C: Read + Write + Send + 'static,
    {
        let mut sessions = Vec::new();
        let mut connect_us = Vec::new();
        for &querier in &plan.queriers {
            let t0 = Instant::now();
            let conn = RemoteConnection::establish(connect()?, &token(querier))?;
            connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
            sessions.push(conn.session(metadata(querier)));
        }
        let mut prepared = Vec::new();
        for stmt in &plan.statements {
            prepared.push(match plan.workload.sends_text() {
                true => None,
                false => Some(sessions[stmt.client].prepare_sql(&stmt.sql)?),
            });
        }
        Ok(Endpoint { sessions, prepared, connect_us })
    }

    /// Send statement `stmt` of `plan` the way its workload does: by
    /// prepared handle, or as SQL text.
    pub fn read(&self, plan: &Plan, stmt: usize) -> ClientResult<QueryResult> {
        match &self.prepared[stmt] {
            Some(prepared) => prepared.execute(),
            None => {
                let s = &plan.statements[stmt];
                self.sessions[s.client].execute_sql(&s.sql)
            }
        }
    }
}

fn token(querier: UserId) -> String {
    format!("token-{querier}")
}

/// The whole system, serving: [`Base`] plus the server on a TCP socket
/// (and, for the layer trace, on the in-process loopback as well).
pub struct Stack {
    /// Data, policies, service.
    pub base: Base,
    /// Server counters.
    pub server_stats: Arc<ServerStats>,
    /// Calls and bytes on the TCP socket, both ends.
    pub io: Arc<IoCounters>,
    tcp: Option<Endpoint>,
    looped: Option<(Endpoint, LoopbackConnector)>,
    shutdown: Shutdown,
    handles: Vec<ServerHandle>,
    /// Starting the server, connecting, preparing and the first,
    /// verified execution of every statement.
    pub prepare_warm_s: f64,
}

impl Stack {
    /// Start the server over `base`, connect the plan's queriers, prepare
    /// its statements and execute each once, checking the rows. That
    /// first execution generates the guards and fills every cache.
    pub fn start(base: Base, plan: &Plan, with_loopback: bool) -> Res<Stack> {
        let t0 = Instant::now();
        let mut auth = TokenAuthenticator::new();
        for &querier in &plan.queriers {
            auth.insert(token(querier), querier);
        }
        let server = SieveServer::new(base.service.clone(), auth);
        let io = Arc::new(IoCounters::default());
        let (acceptor, addr, shutdown) = tcp::listen(Arc::clone(&io))?;
        let mut stack = Stack {
            base,
            server_stats: server.stats(),
            io: Arc::clone(&io),
            tcp: None,
            looped: None,
            shutdown,
            handles: vec![server.serve(acceptor)],
            prepare_warm_s: 0.0,
        };
        // From here on `stack` owns the accept loop: an early return
        // drops it, which stops and joins the server.
        let endpoint = Endpoint::open(plan, || CountingStream::connect(addr, Arc::clone(&io)))?;
        stack.tcp = Some(endpoint);
        stack.verify(plan, plan.statements.iter().map(|s| &s.expected))?;
        stack.prepare_warm_s = t0.elapsed().as_secs_f64();
        if with_loopback {
            let (listener, connector) = loopback();
            stack.handles.push(server.serve(listener));
            let endpoint = Endpoint::open(plan, || connector.connect())?;
            stack.looped = Some((endpoint, connector));
        }
        Ok(stack)
    }

    /// The client side of the TCP transport.
    pub fn tcp(&self) -> &Endpoint {
        self.tcp.as_ref().expect("the TCP endpoint lives as long as the stack")
    }

    /// The client side of the loopback transport (trace runs only).
    pub fn looped(&self) -> Option<&Endpoint> {
        self.looped.as_ref().map(|(endpoint, _)| endpoint)
    }

    /// Requests the server has served, and requests it refused before
    /// they reached the service.
    pub fn server_counts(&self) -> (u64, u64) {
        let s = &self.server_stats;
        (
            s.requests.load(Ordering::Relaxed),
            s.identity_rejections.load(Ordering::Relaxed) + s.auth_failures.load(Ordering::Relaxed),
        )
    }

    /// Every statement, over TCP, must return exactly `expected` rows
    /// (order-insensitive). Untimed by the caller's block clock.
    pub fn verify<'a>(&self, plan: &Plan, expected: impl Iterator<Item = &'a Vec<Row>>) -> Res<()> {
        for (stmt, want) in expected.enumerate() {
            let got = sorted_rows(self.tcp().read(plan, stmt)?.rows);
            if &got != want {
                return Err(format!(
                    "statement {stmt} of {}: reply has {} rows, the oracle {}, or they differ: {}",
                    plan.workload.name(),
                    got.len(),
                    want.len(),
                    plan.statements[stmt].sql
                )
                .into());
            }
        }
        Ok(())
    }
}

impl Drop for Stack {
    /// Ordered teardown: close the client connections (their handler
    /// threads see EOF), end both accept loops, then join everything.
    fn drop(&mut self) {
        self.tcp = None;
        self.looped = None;
        self.shutdown.stop();
        for handle in self.handles.drain(..) {
            handle.join();
        }
    }
}
