//! The `Outbox`: one request's response bytes on their way to its socket.
//!
//! The driver thread owns every outbox, so it is the only writer of an
//! admitted request's socket. Bytes are queued as the simulation produces
//! them and written through a non-blocking socket once per driver
//! `advance`; what the kernel will not take yet stays queued for the next
//! flush.
//!
//! Backpressure: a client that reads so slowly that more than
//! `MAX_BUFFERED_BYTES` would be queued is disconnected rather than
//! allowed to grow the process without bound.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Per-request cap on bytes queued for a slow client.
const MAX_BUFFERED_BYTES: usize = 256 * 1024;

/// A socket plus the bytes queued for it.
#[derive(Debug)]
pub(crate) struct Outbox {
    sock: TcpStream,
    /// Bytes queued but not yet written.
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are already written.
    written: usize,
    /// The response is complete: shut the socket once `buf` is written.
    last: bool,
    /// Injected write stall (network chaos): hold every byte until this
    /// instant passes.
    stall_until: Option<Instant>,
}

impl Outbox {
    /// Takes over `sock` for non-blocking writes. A `stall` holds every
    /// byte for that long before flushing starts.
    ///
    /// # Errors
    ///
    /// The socket cannot be made non-blocking.
    pub(crate) fn new(sock: TcpStream, stall: Option<Duration>) -> io::Result<Self> {
        sock.set_nonblocking(true)?;
        Ok(Outbox {
            sock,
            buf: Vec::new(),
            written: 0,
            last: false,
            stall_until: stall.map(|dur| Instant::now() + dur),
        })
    }

    /// Queues `bytes`; `last` marks the end of the response. Returns
    /// `false`, queuing nothing, when the unwritten bytes would pass
    /// [`MAX_BUFFERED_BYTES`].
    #[must_use]
    pub(crate) fn push(&mut self, bytes: &[u8], last: bool) -> bool {
        if self.buf.len() - self.written + bytes.len() > MAX_BUFFERED_BYTES {
            return false;
        }
        self.buf.extend_from_slice(bytes);
        self.last |= last;
        true
    }

    /// Whether queued bytes are still waiting for the socket.
    pub(crate) fn is_pending(&self) -> bool {
        self.written < self.buf.len()
    }

    /// Writes what the kernel will take. Returns `Ok(true)` once the whole
    /// response is written and the socket's write side is shut.
    ///
    /// # Errors
    ///
    /// The socket failed: the client is gone.
    pub(crate) fn flush(&mut self, now: Instant) -> io::Result<bool> {
        if self.stall_until.is_some_and(|until| now < until) {
            return Ok(false);
        }
        self.stall_until = None;
        while self.written < self.buf.len() {
            match self.sock.write(&self.buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.written = 0;
        if self.last {
            let _ = self.sock.shutdown(Shutdown::Write);
        }
        Ok(self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A connected loopback pair: (client, server).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn stalled_writes_resume_after_the_stall_window() {
        let (mut client, server) = pair();
        let start = Instant::now();
        let mut outbox = Outbox::new(server, Some(Duration::from_millis(50))).unwrap();
        assert!(outbox.push(b"delayed", true));
        assert!(!outbox.flush(Instant::now()).unwrap(), "held in the window");
        assert!(outbox.is_pending());
        while !outbox.flush(Instant::now()).unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "delayed");
        assert!(
            start.elapsed() >= Duration::from_millis(50),
            "bytes must be held for the stall window"
        );
    }

    #[test]
    fn a_vanished_client_fails_the_flush_and_a_slow_one_overflows() {
        let (client, server) = pair();
        let mut outbox = Outbox::new(server, None).unwrap();
        drop(client);
        // The first write after a disconnect can still land in the kernel
        // buffer, so keep writing until the peer's reset surfaces.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut failed = false;
        while !failed && Instant::now() < deadline {
            assert!(outbox.push(b"tok", false));
            failed = outbox.flush(Instant::now()).is_err();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(failed, "a write to a closed peer must fail");

        // A client that never reads: the cap refuses the byte past it.
        let (_idle, server) = pair();
        let mut outbox = Outbox::new(server, Some(Duration::from_secs(60))).unwrap();
        assert!(outbox.push(&vec![b'x'; MAX_BUFFERED_BYTES], false));
        assert!(!outbox.push(b"x", false), "one byte past the cap");
    }
}
