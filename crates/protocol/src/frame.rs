//! Length-prefixed framing over any byte stream.
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many payload bytes. The length prefix is bounded by
//! [`MAX_FRAME_LEN`]; a peer announcing more is rejected *before* any
//! allocation, so a hostile 4 GiB prefix cannot balloon memory. Reads are
//! exact: a stream that ends mid-frame yields
//! [`ProtocolError::ConnectionClosed`] (clean close between frames) or an
//! I/O error, never a short frame.

use std::io::{Read, Write};

use crate::error::{ProtocolError, ProtocolResult};

/// Largest payload either side will send or accept: 64 MiB. Generous for
/// query results, far below anything that could pressure memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Write one frame (length prefix + payload) and flush. Prefix and payload
/// leave in one buffer: on an unbuffered socket a write is a system call
/// and, without Nagle, a segment.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> ProtocolResult<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(ProtocolError::Oversized { len: payload.len() as u32, max: MAX_FRAME_LEN });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Distinguishes a clean close (EOF before any
/// prefix byte → [`ProtocolError::ConnectionClosed`]) from a truncated
/// frame (EOF mid-prefix or mid-payload).
pub fn read_frame<R: Read>(r: &mut R) -> ProtocolResult<Vec<u8>> {
    let mut prefix = [0u8; 4];
    read_exact_or_close(r, &mut prefix, true)?;
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len, max: MAX_FRAME_LEN });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_close(r, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` that maps EOF at offset zero of the *prefix* to a clean
/// close and every other premature EOF to truncation.
fn read_exact_or_close<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_at_start_is_close: bool,
) -> ProtocolResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && eof_at_start_is_close {
                    Err(ProtocolError::ConnectionClosed)
                } else {
                    Err(ProtocolError::Truncated { context: "frame" })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut cur), Err(ProtocolError::ConnectionClosed)));
    }

    /// A frame reaches an unbuffered writer as one write, prefix and all.
    #[test]
    fn a_frame_is_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.0, [[&5u32.to_le_bytes()[..], b"hello"].concat()]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let buf = u32::MAX.to_le_bytes().to_vec();
        let mut cur = &buf[..];
        assert!(matches!(read_frame(&mut cur), Err(ProtocolError::Oversized { .. })));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = &buf[..];
        assert!(matches!(read_frame(&mut cur), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn truncated_prefix_rejected() {
        let buf = [5u8, 0];
        let mut cur = &buf[..];
        assert!(matches!(read_frame(&mut cur), Err(ProtocolError::Truncated { .. })));
    }
}
