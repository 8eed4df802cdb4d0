//! Wire server fronting the SIEVE enforcement service.
//!
//! Layering: [`crate::transport`] produces byte streams, the protocol
//! crate frames and types the messages, and [`crate::server`] runs the
//! per-connection state machine that maps authenticated requests onto
//! `sieve-core`'s `Session`/`Prepared` handles. The server never trusts a
//! request's embedded identity: each connection authenticates once
//! (token → querier) and every metadata-carrying frame is checked against
//! that pinned identity, failing closed on disagreement.
//!
//! The shipped transport is an in-process loopback (byte pipes behind the
//! same `Listener` trait a TCP implementation would use), which lets the
//! full client → frames → server → service path run in tests and benches
//! without sockets.

#![warn(missing_docs)]
// Fail-closed connection handling: a bad request or broken stream
// surfaces as an error frame or a closed connection, never a panicked
// worker (see this crate's `clippy.toml`). Tests opt back in.
#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod auth;
pub mod server;
pub mod transport;

pub use auth::{Authenticator, TokenAuthenticator};
pub use server::{ServerHandle, ServerStats, SieveServer, MAX_STATEMENTS_PER_CONNECTION};
pub use transport::{loopback, loopback_pair, Listener, LoopbackConn, LoopbackConnector, LoopbackListener};
