//! The wire server: accept loop, per-connection protocol state machine,
//! and the registry mapping connections onto in-process session handles.
//!
//! One OS thread per connection, blocking I/O. A connection's lifecycle:
//!
//! 1. **Handshake** — `Hello` must be first; version mismatch closes.
//! 2. **Auth** — `Auth { token }` resolves to a [`UserId`] through the
//!    server's [`Authenticator`]; failure closes. The resolved identity
//!    is pinned for the life of the connection.
//! 3. **Requests** — `Execute`/`Prepare` carry `QueryMetadata`; the
//!    server *rejects* any whose embedded querier disagrees with the
//!    pinned identity ([`ErrorCode::IdentityMismatch`], fail closed —
//!    the connection stays up, the request never reaches the service).
//!    A matching request runs on a [`Session`] built for it from the
//!    decoded metadata (a service handle plus that metadata — nothing
//!    worth keeping); prepared statements are [`Prepared`] handles kept by
//!    server-issued handle — at most
//!    [`MAX_STATEMENTS_PER_CONNECTION`] of them at a time, each pinning a
//!    physical plan in the engine.
//! 4. **Errors** — service failures map onto the wire taxonomy via
//!    [`WireError::from_sieve`]; protocol violations (bad frame, bad
//!    state) send [`ErrorCode::Protocol`] best-effort and close.
//!
//! The statement registry is per-connection, so a dropped connection
//! releases its prepared plans (and through them any pinned ∆
//! partitions) without global bookkeeping.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use minidb::Database;
use sieve_core::backend::SqlBackend;
use sieve_core::policy::{QueryMetadata, UserId};
use sieve_core::service::SieveService;
use sieve_core::session::{Prepared, Session};
use sieve_protocol::error::{ErrorCode, WireError};
use sieve_protocol::frame::{read_frame, write_frame};
use sieve_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use sieve_protocol::ProtocolError;

use crate::auth::Authenticator;
use crate::transport::Listener;

/// Prepared statements one connection may hold open. Each pins a rewritten
/// query's physical plan in the engine (≈ 100 kB for a 100-guard querier),
/// so what a client can make the server keep is bounded per connection; a
/// `Prepare` beyond the bound is refused with
/// [`ErrorCode::TooManyStatements`] until the client closes one.
pub const MAX_STATEMENTS_PER_CONNECTION: usize = 256;

/// Monotonic counters the server exposes for tests and benches.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub connections: AtomicU64,
    /// Connections that authenticated successfully.
    pub authenticated: AtomicU64,
    /// Requests refused because the embedded querier disagreed with the
    /// connection's authenticated identity.
    pub identity_rejections: AtomicU64,
    /// `Auth` frames whose token did not resolve.
    pub auth_failures: AtomicU64,
    /// Requests (execute/prepare/execute-prepared/close) served to
    /// completion, success or typed error.
    pub requests: AtomicU64,
}

impl ServerStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A wire server fronting one [`SieveService`]. Transport-generic: hand
/// [`SieveServer::serve`] any [`Listener`] implementation.
pub struct SieveServer<B: SqlBackend = Database> {
    service: SieveService<B>,
    auth: Arc<dyn Authenticator>,
    stats: Arc<ServerStats>,
}

impl<B: SqlBackend + 'static> SieveServer<B> {
    /// Front `service`, authenticating connections through `auth`.
    pub fn new(service: SieveService<B>, auth: impl Authenticator) -> Self {
        SieveServer {
            service,
            auth: Arc::new(auth),
            stats: Arc::new(ServerStats::default()),
        }
    }

    /// The service this server fronts.
    pub fn service(&self) -> &SieveService<B> {
        &self.service
    }

    /// Shared server counters (live while the server runs).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Run the accept loop on a background thread, one handler thread per
    /// connection. Returns a handle that joins everything once the
    /// listener shuts down (all connectors dropped) and every connection
    /// has closed.
    pub fn serve<L: Listener>(&self, listener: L) -> ServerHandle {
        let service = self.service.clone();
        let auth = Arc::clone(&self.auth);
        let stats = Arc::clone(&self.stats);
        let accept = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while let Some(conn) = listener.accept() {
                ServerStats::bump(&stats.connections);
                let service = service.clone();
                let auth = Arc::clone(&auth);
                let stats = Arc::clone(&stats);
                handlers.push(std::thread::spawn(move || {
                    let mut conn = conn;
                    Connection::new(service, auth, stats).run(&mut conn);
                }));
                // Reap finished handlers so a long-lived server does not
                // accumulate join handles for thousands of dead threads.
                handlers.retain(|h| !h.is_finished());
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        ServerHandle { accept: Some(accept) }
    }
}

/// Handle over a running server's accept loop. Join it (explicitly or by
/// drop) after dropping every connector and client connection.
pub struct ServerHandle {
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Wait for the accept loop and every connection handler to finish.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Per-connection protocol state machine.
struct Connection<B: SqlBackend> {
    service: SieveService<B>,
    auth: Arc<dyn Authenticator>,
    stats: Arc<ServerStats>,
    hello_done: bool,
    /// The authenticated querier, once `Auth` succeeds.
    querier: Option<UserId>,
    /// Prepared statements by server-issued handle.
    prepared: HashMap<u64, Prepared<B>>,
    next_statement: u64,
}

/// What a message handler tells the connection loop to do next.
enum Flow {
    /// Keep serving requests.
    Continue,
    /// Close the connection (after any reply already sent).
    Close,
}

impl<B: SqlBackend> Connection<B> {
    fn new(service: SieveService<B>, auth: Arc<dyn Authenticator>, stats: Arc<ServerStats>) -> Self {
        Connection {
            service,
            auth,
            stats,
            hello_done: false,
            querier: None,
            prepared: HashMap::new(),
            next_statement: 1,
        }
    }

    fn run<C: Read + Write>(&mut self, conn: &mut C) {
        loop {
            let payload = match read_frame(conn) {
                Ok(p) => p,
                Err(ProtocolError::ConnectionClosed) => return,
                Err(e) => {
                    // The stream is unusable; tell the peer why if the
                    // write half still works, then fail closed.
                    let _ = send(
                        conn,
                        &ServerMessage::Error(WireError::new(ErrorCode::Protocol, e.to_string())),
                    );
                    return;
                }
            };
            let msg = match ClientMessage::decode(&payload) {
                Ok(m) => m,
                Err(e) => {
                    let _ = send(
                        conn,
                        &ServerMessage::Error(WireError::new(ErrorCode::Protocol, e.to_string())),
                    );
                    return;
                }
            };
            match self.handle(conn, msg) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Close) => return,
                // Reply failed to send: the connection is gone.
                Err(_) => return,
            }
        }
    }

    fn handle<C: Read + Write>(
        &mut self,
        conn: &mut C,
        msg: ClientMessage,
    ) -> Result<Flow, ProtocolError> {
        match msg {
            ClientMessage::Hello { version } => {
                if self.hello_done {
                    return self.protocol_violation(conn, "duplicate Hello");
                }
                if version != PROTOCOL_VERSION {
                    send(
                        conn,
                        &ServerMessage::Error(WireError::new(
                            ErrorCode::Protocol,
                            format!(
                                "version mismatch: server speaks {PROTOCOL_VERSION}, client {version}"
                            ),
                        )),
                    )?;
                    return Ok(Flow::Close);
                }
                self.hello_done = true;
                send(conn, &ServerMessage::HelloAck { version: PROTOCOL_VERSION })?;
                Ok(Flow::Continue)
            }
            ClientMessage::Auth { token } => {
                if !self.hello_done || self.querier.is_some() {
                    return self.protocol_violation(conn, "Auth out of order");
                }
                match self.auth.authenticate(&token) {
                    Some(querier) => {
                        self.querier = Some(querier);
                        ServerStats::bump(&self.stats.authenticated);
                        send(conn, &ServerMessage::AuthAck { querier })?;
                        Ok(Flow::Continue)
                    }
                    None => {
                        ServerStats::bump(&self.stats.auth_failures);
                        send(
                            conn,
                            &ServerMessage::Error(WireError::new(
                                ErrorCode::AuthFailed,
                                "unknown token",
                            )),
                        )?;
                        Ok(Flow::Close)
                    }
                }
            }
            ClientMessage::Execute { metadata, sql } => {
                ServerStats::bump(&self.stats.requests);
                if self.querier.is_none() {
                    return self.not_authenticated(conn);
                }
                let Some(session) = self.session_for(conn, metadata)? else {
                    return Ok(Flow::Continue);
                };
                let reply = match session.execute_sql(&sql) {
                    Ok(rows) => ServerMessage::Rows(rows),
                    Err(e) => ServerMessage::Error(WireError::from_sieve(&e)),
                };
                send(conn, &reply)?;
                Ok(Flow::Continue)
            }
            ClientMessage::Prepare { metadata, sql } => {
                ServerStats::bump(&self.stats.requests);
                if self.querier.is_none() {
                    return self.not_authenticated(conn);
                }
                // Identity first: a foreign querier is refused as such even
                // on a full connection.
                let Some(session) = self.session_for(conn, metadata)? else {
                    return Ok(Flow::Continue);
                };
                if self.prepared.len() >= MAX_STATEMENTS_PER_CONNECTION {
                    let full = format!(
                        "{MAX_STATEMENTS_PER_CONNECTION} statements open on this connection"
                    );
                    send(
                        conn,
                        &ServerMessage::Error(WireError::new(ErrorCode::TooManyStatements, full)),
                    )?;
                    return Ok(Flow::Continue);
                }
                match session.prepare_sql(&sql) {
                    Ok(prepared) => {
                        let statement = self.next_statement;
                        self.next_statement += 1;
                        self.prepared.insert(statement, prepared);
                        send(conn, &ServerMessage::Prepared { statement })?;
                    }
                    Err(e) => {
                        send(conn, &ServerMessage::Error(WireError::from_sieve(&e)))?;
                    }
                }
                Ok(Flow::Continue)
            }
            ClientMessage::ExecutePrepared { statement } => {
                ServerStats::bump(&self.stats.requests);
                if self.querier.is_none() {
                    return self.not_authenticated(conn);
                }
                let reply = match self.prepared.get(&statement) {
                    Some(prepared) => match prepared.execute() {
                        Ok(rows) => ServerMessage::Rows(rows),
                        Err(e) => ServerMessage::Error(WireError::from_sieve(&e)),
                    },
                    None => ServerMessage::Error(WireError::new(
                        ErrorCode::UnknownStatementHandle,
                        format!("statement {statement} not prepared on this connection"),
                    )),
                };
                send(conn, &reply)?;
                Ok(Flow::Continue)
            }
            ClientMessage::ClosePrepared { statement } => {
                ServerStats::bump(&self.stats.requests);
                if self.querier.is_none() {
                    return self.not_authenticated(conn);
                }
                let reply = if self.prepared.remove(&statement).is_some() {
                    ServerMessage::Closed { statement }
                } else {
                    ServerMessage::Error(WireError::new(
                        ErrorCode::UnknownStatementHandle,
                        format!("statement {statement} not prepared on this connection"),
                    ))
                };
                send(conn, &reply)?;
                Ok(Flow::Continue)
            }
            ClientMessage::Goodbye => {
                send(conn, &ServerMessage::Goodbye)?;
                Ok(Flow::Close)
            }
        }
    }

    /// The session a request runs on, built from its metadata once the
    /// embedded querier matches the connection's. Callers have already
    /// verified the connection is authenticated. `Ok(None)` means the
    /// request was refused (identity mismatch) and a typed error frame
    /// was already sent; the connection stays up.
    fn session_for<C: Read + Write>(
        &self,
        conn: &mut C,
        metadata: QueryMetadata,
    ) -> Result<Option<Session<B>>, ProtocolError> {
        let querier = match self.querier {
            Some(q) => q,
            None => {
                // Unreachable by construction; refuse defensively rather
                // than trust the state machine blindly.
                self.not_authenticated(conn)?;
                return Ok(None);
            }
        };
        if metadata.querier != querier {
            // Fail closed: the embedded identity disagrees with the one
            // this connection authenticated as. Never execute under
            // either identity; refuse with a typed error.
            ServerStats::bump(&self.stats.identity_rejections);
            send(
                conn,
                &ServerMessage::Error(WireError::new(
                    ErrorCode::IdentityMismatch,
                    format!(
                        "request querier {} does not match authenticated querier {querier}",
                        metadata.querier
                    ),
                )),
            )?;
            return Ok(None);
        }
        Ok(Some(self.service.session(metadata)))
    }

    fn not_authenticated<C: Read + Write>(&self, conn: &mut C) -> Result<Flow, ProtocolError> {
        send(
            conn,
            &ServerMessage::Error(WireError::new(
                ErrorCode::NotAuthenticated,
                "request before successful Auth",
            )),
        )?;
        Ok(Flow::Close)
    }

    fn protocol_violation<C: Read + Write>(
        &self,
        conn: &mut C,
        what: &str,
    ) -> Result<Flow, ProtocolError> {
        send(
            conn,
            &ServerMessage::Error(WireError::new(ErrorCode::Protocol, what)),
        )?;
        Ok(Flow::Close)
    }
}

fn send<C: Read + Write>(conn: &mut C, msg: &ServerMessage) -> Result<(), ProtocolError> {
    write_frame(conn, &msg.encode())
}
