//! End-to-end client → protocol → server → service enforcement.
//!
//! The contract under test: a remote session speaking frames over the
//! loopback transport must be **indistinguishable** from an in-process
//! [`sieve::core::Session`] — row-identical results on every backend,
//! the same typed error taxonomy, and the same fail-closed posture. On
//! top of that, the server's own perimeter must hold: requests whose
//! embedded querier disagrees with the connection's authenticated
//! identity are refused, unauthenticated requests never reach the
//! service, and malformed frames kill the connection instead of being
//! half-parsed.

mod support;

use sieve::client::{ClientError, RemoteConnection};
use sieve::core::backend::{for_each_backend, FaultConfig, FaultInjectingBackend};
use sieve::core::policy::QueryMetadata;
use sieve::core::rewrite::{DeltaMode, RewriteOptions};
use sieve::core::{SieveError, SieveOptions, SieveService, SqlBackend};
use sieve::minidb::{Database, Row};
use sieve::protocol::frame::{read_frame, write_frame};
use sieve::protocol::{
    ClientMessage, ErrorCode, ProtocolError, ServerMessage, WireError, PROTOCOL_VERSION,
};
use sieve::server::{loopback, LoopbackConnector, ServerHandle, SieveServer, TokenAuthenticator};
use std::io::Write;
use std::sync::Arc;
use support::{policy, register_corpus, sorted_rows, QUERIERS};

const QUERY: &str = "SELECT * FROM wifi_dataset";

fn loaded_db() -> Database {
    support::wifi_db(2000, 80, true)
}

/// Token table covering the corpus queriers: "token-<id>" → id.
fn authenticator() -> TokenAuthenticator {
    let mut auth = TokenAuthenticator::new();
    for &q in &QUERIERS {
        auth.insert(format!("token-{q}"), q);
    }
    auth
}

fn qm(querier: i64) -> QueryMetadata {
    QueryMetadata::new(querier, "Analytics")
}

/// Serve `server` over a fresh loopback transport. Bound as `let (handle,
/// connector) = serve(&server);`, the connector is the later local and
/// drops first when a failed assertion unwinds the test: the accept loop
/// ends, and the handle's join on drop returns instead of hanging.
fn serve<B: SqlBackend + 'static>(server: &SieveServer<B>) -> (ServerHandle, LoopbackConnector) {
    let (listener, connector) = loopback();
    (server.serve(listener), connector)
}

// ---------------------------------------------------------------------
// Row identity against the in-process oracle
// ---------------------------------------------------------------------

/// Remote sessions over loopback return exactly the rows the in-process
/// session API returns, on every backend, from many concurrent
/// connections, for both the one-shot and the prepared path.
#[test]
fn remote_sessions_row_identical_to_in_process_oracle() {
    for_each_backend(&loaded_db(), &SieveOptions::default(), |name, service| {
        register_corpus(&service);

        // In-process oracle rows, per querier, before the storm.
        let oracles: Vec<(i64, Vec<Row>)> = QUERIERS
            .iter()
            .map(|&u| {
                let rows =
                    sorted_rows(service.session(qm(u)).execute_sql(QUERY).unwrap());
                assert!(!rows.is_empty(), "{name}: oracle empty for querier {u}");
                (u, rows)
            })
            .collect();

        let server = SieveServer::new(service, authenticator());
        let (handle, connector) = serve(&server);

        std::thread::scope(|scope| {
            for round in 0..2 {
                for (u, expect) in &oracles {
                    let (u, expect) = (*u, expect.clone());
                    let connector = connector.clone();
                    scope.spawn(move || {
                        let conn = RemoteConnection::establish(
                            connector.connect().unwrap(),
                            &format!("token-{u}"),
                        )
                        .unwrap();
                        assert_eq!(conn.querier(), u);
                        let session = conn.session(qm(u));
                        // One-shot path.
                        for _ in 0..3 {
                            let rows =
                                sorted_rows(session.execute_sql(QUERY).unwrap());
                            assert_eq!(rows, expect, "round {round} querier {u}");
                        }
                        // Prepared path: pin once, execute repeatedly.
                        let prepared = session.prepare_sql(QUERY).unwrap();
                        for _ in 0..3 {
                            let rows = sorted_rows(prepared.execute().unwrap());
                            assert_eq!(rows, expect, "prepared querier {u}");
                        }
                        prepared.close().unwrap();
                        conn.close().unwrap();
                    });
                }
            }
        });

        drop(connector);
        handle.join();
        let stats = server.stats();
        assert_eq!(
            stats.identity_rejections.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    });
}

/// Under a seeded fault schedule (drops, evictions, transients) the
/// remote path keeps the in-process contract: every `Ok` is
/// row-identical to the no-fault oracle, every `Err` is a typed wire
/// error — never a protocol error, never raw rows.
#[test]
fn remote_results_row_identical_under_fault_injection() {
    let service = SieveService::with_backend(
        FaultInjectingBackend::new(
            loaded_db(),
            FaultConfig::seeded(42, 0.3),
        ),
        SieveOptions::default(),
    )
    .unwrap();
    register_corpus(&service);

    // Oracle with injection off.
    service.backend().set_enabled(false);
    let oracles: Vec<(i64, Vec<Row>)> = QUERIERS
        .iter()
        .map(|&u| (u, sorted_rows(service.session(qm(u)).execute_sql(QUERY).unwrap())))
        .collect();
    service.backend().set_enabled(true);

    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);

    let oks = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for (u, expect) in &oracles {
            let (u, expect) = (*u, expect.clone());
            let connector = connector.clone();
            let oks = Arc::clone(&oks);
            scope.spawn(move || {
                let conn = RemoteConnection::establish(
                    connector.connect().unwrap(),
                    &format!("token-{u}"),
                )
                .unwrap();
                let session = conn.session(qm(u));
                for _ in 0..12 {
                    match session.execute_sql(QUERY) {
                        Ok(res) => {
                            assert_eq!(sorted_rows(res), expect, "querier {u}");
                            oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        // Fail closed is allowed; it must arrive as a
                        // *typed* remote error, not a protocol break.
                        Err(ClientError::Remote(e)) => {
                            assert!(
                                matches!(
                                    e.code,
                                    ErrorCode::BackendConnectionLost
                                        | ErrorCode::BackendTimeout
                                        | ErrorCode::BackendUnknownStatement
                                        | ErrorCode::BackendTransient
                                        | ErrorCode::BackendFatal
                                        | ErrorCode::RetriesExhausted
                                ),
                                "unexpected wire error {e}"
                            );
                        }
                        Err(ClientError::Protocol(e)) => {
                            panic!("protocol error under faults: {e}")
                        }
                    }
                }
                conn.close().unwrap();
            });
        }
    });
    assert!(
        oks.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "retry loop absorbed nothing — no query ever succeeded"
    );
    drop(connector);
    handle.join();
}

/// A prepared remote statement stays correct across a policy change: the
/// server-side plan re-prepares transparently and the next execute
/// returns the post-change oracle rows.
#[test]
fn remote_prepared_follows_policy_changes() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let server = SieveServer::new(service.clone(), authenticator());
    let (handle, connector) = serve(&server);

    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();
    let session = conn.session(qm(500));
    let prepared = session.prepare_sql(QUERY).unwrap();
    let before = sorted_rows(prepared.execute().unwrap());

    // Widen querier 500's visibility: owner 5's rows all sit at AP 1005
    // (i ≡ 5 mod 80 ⇒ ap = 1005), invisible under the corpus's AP-1001
    // grant, so this policy strictly grows the row set.
    service.add_policy(policy(5, 500, "Analytics", 1005)).unwrap();
    let expect = sorted_rows(service.session(qm(500)).execute_sql(QUERY).unwrap());
    assert_ne!(before, expect, "policy change must alter visibility");

    let after = sorted_rows(prepared.execute().unwrap());
    assert_eq!(after, expect, "stale remote plan must re-prepare");

    prepared.close().unwrap();
    conn.close().unwrap();
    drop(connector);
    handle.join();
}

// ---------------------------------------------------------------------
// Perimeter: identity, auth, protocol violations
// ---------------------------------------------------------------------

/// The bypass attempt this server exists to stop: authenticate as one
/// querier, embed another querier's identity in the request metadata.
/// The server must refuse with `IdentityMismatch` — the request never
/// reaches the service — and the connection stays usable for honest
/// requests.
#[test]
fn embedded_querier_mismatch_is_rejected_fail_closed() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let expect_own =
        sorted_rows(service.session(qm(500)).execute_sql(QUERY).unwrap());
    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);

    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();

    // Execute under a foreign identity: refused, typed.
    let foreign = conn.session(qm(501));
    match foreign.execute_sql(QUERY) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::IdentityMismatch),
        other => panic!("expected IdentityMismatch, got {other:?}"),
    }
    // Prepare under a foreign identity: same refusal.
    match foreign.prepare_sql(QUERY) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::IdentityMismatch),
        Err(other) => panic!("expected IdentityMismatch, got {other}"),
        Ok(_) => panic!("foreign prepare must be refused"),
    }

    // The connection survives and honest requests still work.
    let own = conn.session(qm(500));
    assert_eq!(sorted_rows(own.execute_sql(QUERY).unwrap()), expect_own);

    conn.close().unwrap();
    drop(connector);
    let stats = server.stats();
    handle.join();
    assert_eq!(
        stats.identity_rejections.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
}

/// A `?` is not SQL this system speaks: the lexer refuses it as a
/// `Rewrite` error before any guard work (no generation for a querier
/// whose guard is cold), and the connection serves the next request.
#[test]
fn placeholder_in_client_sql_is_refused_before_guard_work() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let server = SieveServer::new(service.clone(), authenticator());
    let (handle, connector) = serve(&server);

    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();
    let session = conn.session(qm(500));
    let generations = service.cache_stats().generations();
    let refused = session.execute_sql("SELECT * FROM wifi_dataset WHERE owner = ?");
    let generations_after = service.cache_stats().generations();
    let next = session.execute_sql(QUERY);
    conn.close().unwrap();
    drop(connector);
    handle.join();

    match refused {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Rewrite),
        other => panic!("expected Rewrite, got {other:?}"),
    }
    assert_eq!(generations_after, generations, "no guard was built");
    let expect = sorted_rows(service.session(qm(500)).execute_sql(QUERY).unwrap());
    assert_eq!(sorted_rows(next.unwrap()), expect);
}

/// A client may not call ∆. Querier 501's guard registers ∆ partition 1
/// over its own policies (owners 0–19 at AP 1002); querier 500 asking
/// that partition about a synthetic owner-3 tuple at AP 1002 would learn
/// 501's policies one tuple at a time. The call is refused as a `Rewrite`
/// error before any guard work — in process, by a prepared statement and
/// over the wire alike — with a message that names no partition.
#[test]
fn client_delta_call_is_refused_before_guard_work() {
    const PROBE: &str = "SELECT id FROM wifi_dataset WHERE delta(1, id, 3, 1002, ts_time)";
    let options = SieveOptions {
        rewrite: RewriteOptions { delta_mode: DeltaMode::Always, ..RewriteOptions::default() },
        ..SieveOptions::default()
    };
    let service = SieveService::new(support::wifi_db(4000, 80, true), options).unwrap();
    register_corpus(&service);
    service.session(qm(501)).execute_sql(QUERY).unwrap();
    assert!(service.delta_len() > 0, "fixture: 501's guard registers ∆ partitions");
    let generations = service.generations();

    let refused = service.execute_sql(PROBE, &qm(500)).unwrap_err();
    let SieveError::Rewrite(_) = &refused else { panic!("expected Rewrite, got {refused:?}") };
    let message = refused.to_string();
    assert!(!message.contains("partition"), "the refusal names a partition: {message}");
    assert!(service.session(qm(500)).prepare_sql(PROBE).is_err());
    assert_eq!(service.generations(), generations, "no guard was built in process");

    let server = SieveServer::new(service.clone(), authenticator());
    let (handle, connector) = serve(&server);
    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();
    let remote = conn.session(qm(500)).execute_sql(PROBE);
    conn.close().unwrap();
    drop(connector);
    handle.join();

    match remote {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Rewrite);
            assert_eq!(e.message, WireError::from_sieve(&refused).message);
        }
        other => panic!("expected Rewrite, got {other:?}"),
    }
    assert_eq!(service.generations(), generations, "no guard was built over the wire");
}

/// A client predicate that is not boolean fails on the first row it meets,
/// which may be a row the querier may not see (querier 500 sees AP 1001
/// only; the scan meets AP 1000 first): the error names the value's type,
/// never the value — in process and, code and text alike, over the wire.
#[test]
fn non_boolean_predicate_error_shows_no_row_value() {
    const PROBE: &str = "SELECT * FROM wifi_dataset WHERE wifi_ap";
    let service = SieveService::new(support::wifi_db(4000, 80, true), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let shows_a_value = |message: &str| (1000..1010).any(|ap| message.contains(&ap.to_string()));

    let refused = service.execute_sql(PROBE, &qm(500)).unwrap_err();
    let message = refused.to_string();
    assert!(message.contains("expected boolean predicate"), "{message}");
    assert!(!shows_a_value(&message), "the error shows a row value: {message}");

    let server = SieveServer::new(service.clone(), authenticator());
    let (handle, connector) = serve(&server);
    let conn =
        RemoteConnection::establish(connector.connect().unwrap(), "token-500").unwrap();
    let remote = conn.session(qm(500)).execute_sql(PROBE);
    conn.close().unwrap();
    drop(connector);
    handle.join();

    match remote {
        Err(ClientError::Remote(e)) => {
            let local = WireError::from_sieve(&refused);
            assert_eq!((e.code, &e.message), (local.code, &local.message));
            assert!(!shows_a_value(&e.message), "the error shows a row value: {}", e.message);
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
}

/// A bad token is refused with `AuthFailed` and the connection closes.
#[test]
fn unknown_token_rejected() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);

    match RemoteConnection::establish(connector.connect().unwrap(), "not-a-token") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::AuthFailed),
        other => panic!("expected AuthFailed, got {:?}", other.is_ok()),
    }
    drop(connector);
    handle.join();
}

/// Raw-frame checks: requests before auth are refused and close the
/// connection; a version mismatch is refused at Hello; garbage frames
/// produce a Protocol error then EOF. (Driven below the client library,
/// which cannot be coaxed into sending these.)
#[test]
fn protocol_perimeter_holds_on_raw_frames() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);

    // Execute before Auth → NotAuthenticated, then the server hangs up.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &ClientMessage::Hello { version: PROTOCOL_VERSION }.encode())
            .unwrap();
        let ack = ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap();
        assert!(matches!(ack, ServerMessage::HelloAck { .. }));
        write_frame(
            &mut conn,
            &ClientMessage::Execute { metadata: qm(500), sql: QUERY.to_string() }.encode(),
        )
        .unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::NotAuthenticated),
            other => panic!("expected NotAuthenticated, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // Version mismatch → Protocol error, close.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &ClientMessage::Hello { version: 99 }.encode()).unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // Garbage payload → Protocol error, close.
    {
        let mut conn = connector.connect().unwrap();
        write_frame(&mut conn, &[0xFF, 0xFE, 0xFD]).unwrap();
        match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
            ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected Protocol error, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut conn),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    // A frame that is not even a frame: raw bytes shorter than a length
    // prefix, then hang up. The server must just drop the connection.
    {
        let mut conn = connector.connect().unwrap();
        conn.write_all(&[1, 2]).unwrap();
    }

    drop(connector);
    handle.join();
}

/// Executing or closing a statement handle the server never issued is a
/// typed refusal, not a panic or a silent no-op.
#[test]
fn unknown_statement_handle_rejected() {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);

    let mut conn = connector.connect().unwrap();
    write_frame(&mut conn, &ClientMessage::Hello { version: PROTOCOL_VERSION }.encode())
        .unwrap();
    read_frame(&mut conn).unwrap();
    write_frame(&mut conn, &ClientMessage::Auth { token: "token-500".into() }.encode())
        .unwrap();
    read_frame(&mut conn).unwrap();
    write_frame(&mut conn, &ClientMessage::ExecutePrepared { statement: 9999 }.encode())
        .unwrap();
    match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::UnknownStatementHandle),
        other => panic!("expected UnknownStatementHandle, got {other:?}"),
    }
    write_frame(&mut conn, &ClientMessage::ClosePrepared { statement: 9999 }.encode())
        .unwrap();
    match ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap() {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::UnknownStatementHandle),
        other => panic!("expected UnknownStatementHandle, got {other:?}"),
    }
    drop(conn);
    drop(connector);
    handle.join();
}

/// A connection can pin only so many plans: the `Prepare` past the cap is
/// a typed refusal that pins nothing and leaves the connection usable,
/// closing a statement frees its slot, and a connection that just drops
/// leaves nothing behind in the engine's statement table.
#[test]
fn statements_per_connection_are_bounded_and_released() {
    use sieve::server::MAX_STATEMENTS_PER_CONNECTION as CAP;
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&service);
    let server = SieveServer::new(service, authenticator());
    let (handle, connector) = serve(&server);
    let open = || server.service().backend().open_statements();

    let mut conn = connector.connect().unwrap();
    let mut request = |msg: ClientMessage| {
        write_frame(&mut conn, &msg.encode()).unwrap();
        ServerMessage::decode(&read_frame(&mut conn).unwrap()).unwrap()
    };
    request(ClientMessage::Hello { version: PROTOCOL_VERSION });
    request(ClientMessage::Auth { token: "token-500".into() });
    let prepare = || ClientMessage::Prepare { metadata: qm(500), sql: QUERY.into() };
    let mut statements = Vec::new();
    for _ in 0..CAP {
        match request(prepare()) {
            ServerMessage::Prepared { statement } => statements.push(statement),
            other => panic!("expected Prepared, got {other:?}"),
        }
    }
    assert_eq!(open(), CAP);
    match request(prepare()) {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::TooManyStatements),
        other => panic!("expected TooManyStatements, got {other:?}"),
    }
    assert_eq!(open(), CAP, "a refused Prepare pins nothing");
    // Identity is checked before the bound: a foreign querier on the full
    // connection is refused as a mismatch, and counted as one.
    let rejections = || server.stats().identity_rejections.load(std::sync::atomic::Ordering::Relaxed);
    let before = rejections();
    match request(ClientMessage::Prepare { metadata: qm(501), sql: QUERY.into() }) {
        ServerMessage::Error(e) => assert_eq!(e.code, ErrorCode::IdentityMismatch),
        other => panic!("expected IdentityMismatch, got {other:?}"),
    }
    assert_eq!(rejections(), before + 1);
    assert_eq!(open(), CAP);
    // Still usable: a held statement runs, a closed one frees its slot.
    let expect = server.service().session(qm(500)).execute_sql(QUERY).unwrap();
    match request(ClientMessage::ExecutePrepared { statement: statements[0] }) {
        ServerMessage::Rows(rows) => assert_eq!(rows, expect),
        other => panic!("expected Rows, got {other:?}"),
    }
    let closed = statements[1];
    assert!(matches!(
        request(ClientMessage::ClosePrepared { statement: closed }),
        ServerMessage::Closed { statement } if statement == closed
    ));
    assert_eq!(open(), CAP - 1);
    assert!(matches!(request(prepare()), ServerMessage::Prepared { .. }));
    assert_eq!(open(), CAP);

    // No Goodbye, no ClosePrepared: the connection just goes away.
    drop(conn);
    drop(connector);
    handle.join();
    assert_eq!(open(), 0, "a dropped connection released every pinned plan");
}
