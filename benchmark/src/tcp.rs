//! The real-socket transport: a `sieve_server::Listener` over
//! `std::net::TcpListener` on `127.0.0.1`, `TCP_NODELAY` on both ends,
//! and a stream wrapper that counts the read/write calls and bytes of
//! either end — the only place the per-request system-call count of the
//! framing layer can be seen from outside the program.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sieve_server::Listener;

/// Calls and bytes crossing the socket, both ends summed.
///
/// A client that has just received a reply must find that reply's
/// traffic already counted, although the server counts on another
/// thread. So a write is counted *before* the call (the data cannot
/// arrive earlier than that), and reads and bytes are counted by the
/// reading end once the read returns: the server has read the whole
/// request before it answers, and the client reads the reply itself.
#[derive(Default)]
pub struct IoCounters {
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// `write` calls.
    pub writes: u64,
    /// `read` calls that returned at least one byte.
    pub reads: u64,
    /// Bytes read (every byte is written once and read once).
    pub bytes: u64,
}

impl IoCounters {
    /// Current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Totals accumulated since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            writes: self.writes - earlier.writes,
            reads: self.reads - earlier.reads,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// One end of a TCP connection with `TCP_NODELAY` set and its I/O
/// counted. The counters are statistics only (`Relaxed`); the socket
/// itself orders them against the peer (see [`IoCounters`]).
pub struct CountingStream {
    stream: TcpStream,
    io: Arc<IoCounters>,
}

impl CountingStream {
    fn new(stream: TcpStream, io: Arc<IoCounters>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(CountingStream { stream, io })
    }

    /// Dial `addr` (the client end).
    pub fn connect(addr: SocketAddr, io: Arc<IoCounters>) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?, io)
    }

    #[cfg(test)]
    fn nodelay(&self) -> bool {
        self.stream.nodelay().unwrap()
    }
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.io.reads.fetch_add(1, Ordering::Relaxed);
            self.io.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.io.writes.fetch_add(1, Ordering::Relaxed);
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The server end: accepts until [`Shutdown::stop`] is called.
pub struct TcpAcceptor {
    listener: TcpListener,
    stopped: Arc<AtomicBool>,
    io: Arc<IoCounters>,
}

/// Stops the paired [`TcpAcceptor`]'s accept loop.
pub struct Shutdown {
    addr: SocketAddr,
    stopped: Arc<AtomicBool>,
}

/// Bind an ephemeral loopback port. Returns the listener for
/// `SieveServer::serve`, its address, and the handle that stops it.
pub fn listen(io: Arc<IoCounters>) -> io::Result<(TcpAcceptor, SocketAddr, Shutdown)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let stopped = Arc::new(AtomicBool::new(false));
    let acceptor = TcpAcceptor { listener, stopped: Arc::clone(&stopped), io };
    Ok((acceptor, addr, Shutdown { addr, stopped }))
}

impl Listener for TcpAcceptor {
    type Conn = CountingStream;

    fn accept(&self) -> Option<CountingStream> {
        let (stream, _) = self.listener.accept().ok()?;
        // `stop` publishes the flag before it dials the wake-up
        // connection, so the accept that connection completes sees it.
        if self.stopped.load(Ordering::SeqCst) {
            return None;
        }
        CountingStream::new(stream, Arc::clone(&self.io)).ok()
    }
}

impl Shutdown {
    /// End the accept loop: raise the flag, then wake the blocked
    /// `accept` with a throw-away connection.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_protocol::frame::{read_frame, write_frame};

    #[test]
    fn nodelay_on_both_ends_and_exact_counts_for_one_frame() {
        let io = Arc::new(IoCounters::default());
        let (acceptor, addr, shutdown) = listen(Arc::clone(&io)).unwrap();
        let mut client = CountingStream::connect(addr, Arc::clone(&io)).unwrap();
        let mut server = acceptor.accept().unwrap();
        assert!(client.nodelay(), "client end must set TCP_NODELAY");
        assert!(server.nodelay(), "server end must set TCP_NODELAY");

        let before = io.snapshot();
        write_frame(&mut client, b"hello").unwrap();
        assert_eq!(read_frame(&mut server).unwrap(), b"hello");
        let one_frame = io.snapshot().since(&before);
        // `write_frame` writes the 4-byte prefix and the payload
        // separately; `read_frame` reads them separately.
        assert_eq!(one_frame, IoSnapshot { writes: 2, reads: 2, bytes: 9 });

        shutdown.stop();
        assert!(acceptor.accept().is_none(), "stopped acceptor must report shutdown");
    }
}
