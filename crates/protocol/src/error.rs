//! Protocol-layer errors and the wire error taxonomy.
//!
//! Two distinct error families live here:
//!
//! - [`ProtocolError`] — *this peer* failed to frame, encode, or decode a
//!   message. Decode is fail-closed: any malformed, truncated, oversized,
//!   or trailing-garbage input is an error, never a best-effort partial
//!   value. A `ProtocolError` on a connection means the byte stream can no
//!   longer be trusted and the connection must be torn down.
//! - [`WireError`] — a *remote* failure carried inside an `Error` frame: a
//!   typed code from [`ErrorCode`] plus a human-readable message. The
//!   server maps `SieveError`/`BackendError` onto these so clients can
//!   classify failures (retryable? must re-prepare? identity rejected?)
//!   without parsing strings.

use std::fmt;

use sieve_core::backend::BackendError;
use sieve_core::SieveError;

/// Failure to encode, decode, or frame a protocol message.
///
/// Every variant is terminal for the connection that produced it: after a
/// framing or decode error the stream position is unknown and the only
/// safe move is to close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An underlying I/O operation failed (kind + rendered message).
    Io(std::io::ErrorKind, String),
    /// The peer closed the stream cleanly between frames.
    ConnectionClosed,
    /// Input ended before the value under `context` was fully read.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A frame declared a length above [`crate::frame::MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The maximum this implementation accepts.
        max: u32,
    },
    /// A message or value tag byte is not one this version understands.
    UnknownTag {
        /// What kind of tag was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// What string field was being decoded.
        context: &'static str,
    },
    /// A message decoded fine but left unconsumed bytes in the frame.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
    /// The peers disagree on the protocol version at handshake.
    VersionMismatch {
        /// Version this side speaks.
        ours: u32,
        /// Version the peer announced.
        theirs: u32,
    },
    /// The peer sent a well-formed message that is illegal in the current
    /// connection state (e.g. `Execute` before `Auth`).
    UnexpectedMessage {
        /// What the state machine was prepared to accept.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
            ProtocolError::ConnectionClosed => write!(f, "connection closed by peer"),
            ProtocolError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            ProtocolError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            ProtocolError::BadUtf8 { context } => write!(f, "invalid utf-8 in {context}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, theirs {theirs}")
            }
            ProtocolError::UnexpectedMessage { expected, got } => {
                write!(f, "unexpected message: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::ConnectionClosed
        } else {
            ProtocolError::Io(e.kind(), e.to_string())
        }
    }
}

/// Result alias for protocol operations.
pub type ProtocolResult<T> = Result<T, ProtocolError>;

/// Typed failure classification carried in wire `Error` frames.
///
/// The numeric values are part of the wire format — do not renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The presented auth token is not recognised.
    AuthFailed = 1,
    /// A request's embedded `QueryMetadata.querier` disagrees with the
    /// session's authenticated identity. Always fail-closed.
    IdentityMismatch = 2,
    /// A request arrived before the connection authenticated.
    NotAuthenticated = 3,
    /// The middleware could not produce a guarded query (parse/rewrite
    /// failure, unknown relation, policy-store problem).
    Rewrite = 4,
    /// Backend connection dropped (`BackendError::ConnectionLost`).
    BackendConnectionLost = 5,
    /// Backend call exceeded its deadline (`BackendError::Timeout`).
    BackendTimeout = 6,
    /// Backend lost the prepared statement (`BackendError::UnknownStatement`).
    BackendUnknownStatement = 7,
    /// Transient backend fault (`BackendError::Transient`).
    BackendTransient = 8,
    /// Backend rejected the query semantically (`BackendError::Rejected`).
    BackendRejected = 9,
    /// Permanent backend failure (`BackendError::Fatal`).
    BackendFatal = 10,
    /// The retry budget ran out (`SieveError::RetriesExhausted`).
    RetriesExhausted = 11,
    /// A worker panicked or a lock poisoned inside the service.
    Poisoned = 12,
    /// Internal middleware invariant violation.
    Internal = 13,
    /// The client referenced a statement handle this server never issued
    /// (or already closed).
    UnknownStatementHandle = 14,
    /// The server could not understand the client's frame. Sent (when
    /// possible) immediately before the server closes the connection.
    Protocol = 15,
    /// The static soundness verifier refuted a freshly generated guard
    /// (`SieveError::SoundnessRefuted`): the rewrite would leak a
    /// concrete row, so the server discarded it and failed closed.
    SoundnessRefuted = 16,
    /// The connection already holds as many prepared statements as a
    /// connection may; the `Prepare` was refused and nothing was pinned.
    /// Close one and prepare again.
    TooManyStatements = 17,
}

impl ErrorCode {
    /// Decode a wire byte into a code; `None` for bytes this version does
    /// not know (the caller fails closed).
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrorCode::AuthFailed,
            2 => ErrorCode::IdentityMismatch,
            3 => ErrorCode::NotAuthenticated,
            4 => ErrorCode::Rewrite,
            5 => ErrorCode::BackendConnectionLost,
            6 => ErrorCode::BackendTimeout,
            7 => ErrorCode::BackendUnknownStatement,
            8 => ErrorCode::BackendTransient,
            9 => ErrorCode::BackendRejected,
            10 => ErrorCode::BackendFatal,
            11 => ErrorCode::RetriesExhausted,
            12 => ErrorCode::Poisoned,
            13 => ErrorCode::Internal,
            14 => ErrorCode::UnknownStatementHandle,
            15 => ErrorCode::Protocol,
            16 => ErrorCode::SoundnessRefuted,
            17 => ErrorCode::TooManyStatements,
            _ => return None,
        })
    }

    /// All codes, for exhaustive round-trip tests.
    pub const ALL: [ErrorCode; 17] = [
        ErrorCode::AuthFailed,
        ErrorCode::IdentityMismatch,
        ErrorCode::NotAuthenticated,
        ErrorCode::Rewrite,
        ErrorCode::BackendConnectionLost,
        ErrorCode::BackendTimeout,
        ErrorCode::BackendUnknownStatement,
        ErrorCode::BackendTransient,
        ErrorCode::BackendRejected,
        ErrorCode::BackendFatal,
        ErrorCode::RetriesExhausted,
        ErrorCode::Poisoned,
        ErrorCode::Internal,
        ErrorCode::UnknownStatementHandle,
        ErrorCode::Protocol,
        ErrorCode::SoundnessRefuted,
        ErrorCode::TooManyStatements,
    ];
}

/// A remote failure carried in an `Error` frame: typed code + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure classification.
    pub code: ErrorCode,
    /// Human-readable detail (not machine-parsed).
    pub message: String,
}

impl WireError {
    /// Construct a wire error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError { code, message: message.into() }
    }

    /// Map a service-level failure onto its wire classification. This is
    /// the server's one conversion point; clients get the same taxonomy
    /// the in-process API exposes through `SieveError`.
    pub fn from_sieve(e: &SieveError) -> Self {
        match e {
            SieveError::Rewrite(db) => WireError::new(ErrorCode::Rewrite, db.to_string()),
            SieveError::Backend(be) => Self::from_backend(be),
            SieveError::RetriesExhausted { attempts, last } => WireError::new(
                ErrorCode::RetriesExhausted,
                format!("{attempts} attempts; last: {last}"),
            ),
            SieveError::Poisoned(what) => WireError::new(ErrorCode::Poisoned, *what),
            SieveError::Internal(what) => WireError::new(ErrorCode::Internal, *what),
            SieveError::SoundnessRefuted { .. } => {
                WireError::new(ErrorCode::SoundnessRefuted, e.to_string())
            }
        }
    }

    /// Map a backend failure onto its wire classification.
    pub fn from_backend(e: &BackendError) -> Self {
        match e {
            BackendError::ConnectionLost(msg) => {
                WireError::new(ErrorCode::BackendConnectionLost, msg.clone())
            }
            BackendError::Timeout => WireError::new(ErrorCode::BackendTimeout, "timeout"),
            BackendError::UnknownStatement(id) => WireError::new(
                ErrorCode::BackendUnknownStatement,
                format!("unknown statement {id}"),
            ),
            BackendError::Transient(msg) => WireError::new(ErrorCode::BackendTransient, msg.clone()),
            BackendError::Rejected(db) => WireError::new(ErrorCode::BackendRejected, db.to_string()),
            BackendError::Fatal(msg) => WireError::new(ErrorCode::BackendFatal, msg.clone()),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}
