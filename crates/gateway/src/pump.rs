//! The stream pump: one thread that owns every open SSE socket.
//!
//! Worker threads hand streaming sockets off here after writing the
//! response head, so a thousand idle streams cost one thread, not a
//! thousand. The driver pushes ready-framed bytes by stream id (the
//! gateway uses the request id); the pump writes them with non-blocking
//! sockets, buffering what the kernel won't take yet.
//!
//! Backpressure: a stream whose client reads too slowly accumulates
//! buffered frames; past `MAX_BUFFERED_BYTES` the pump drops the whole
//! stream (closing the socket) rather than letting one slow consumer
//! grow the process without bound. Frames pushed before the socket is
//! registered are buffered the same way, so the driver may start
//! streaming tokens the instant a request is admitted.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-stream cap on bytes buffered for a slow client.
pub(crate) const MAX_BUFFERED_BYTES: usize = 256 * 1024;

/// How many recently finished stream ids the pump remembers so late
/// frames cannot resurrect a removed stream as a leaked table entry.
const TOMBSTONE_CAP: usize = 1024;

/// One unit of work for a stream.
#[derive(Debug)]
pub(crate) enum Frame {
    /// Raw response bytes (already HTTP-chunk framed).
    Data(Vec<u8>),
    /// Flush whatever is buffered, then close the socket.
    Close,
}

#[derive(Debug)]
enum Msg {
    Register(u64, TcpStream),
    Push(u64, Frame),
    Stall(u64, Duration),
    Shutdown,
}

#[derive(Debug, Default)]
struct StreamState {
    sock: Option<TcpStream>,
    /// Bytes accepted but not yet written to the socket.
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are already written.
    written: usize,
    /// A `Close` frame has been received: tear down once drained.
    closing: bool,
    /// The stream was dropped (overflow or socket error) — discard
    /// further frames silently.
    dead: bool,
    /// Injected write stall (network chaos): buffer but do not write
    /// until this instant passes.
    stall_until: Option<Instant>,
}

/// Cloneable sender half used by the driver and the HTTP workers.
#[derive(Debug, Clone)]
pub(crate) struct PumpHandle {
    tx: Sender<Msg>,
}

impl PumpHandle {
    /// Attaches the socket for `stream`; buffered frames flush to it.
    pub(crate) fn register(&self, stream: u64, sock: TcpStream) {
        let _ = self.tx.send(Msg::Register(stream, sock));
    }

    /// Queues a frame for `stream` (before or after registration).
    pub(crate) fn push(&self, stream: u64, frame: Frame) {
        let _ = self.tx.send(Msg::Push(stream, frame));
    }

    /// Injects a write stall: `stream`'s buffered bytes stay queued for
    /// `dur` before flushing resumes (network-chaos partial writes).
    pub(crate) fn stall(&self, stream: u64, dur: Duration) {
        let _ = self.tx.send(Msg::Stall(stream, dur));
    }
}

/// Callback invoked on the pump thread when a stream dies mid-flight
/// (client disconnect, write error, or buffer overflow) — *not* on clean
/// `Close` teardown. The driver uses it to reclaim abandoned streams.
pub(crate) type DeadStreamNotifier = Box<dyn Fn(u64) + Send>;

/// The pump thread and its handle factory.
#[derive(Debug)]
pub(crate) struct StreamPump {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

impl StreamPump {
    /// Spawns the pump thread; `notifier` fires (on the pump thread) for
    /// every stream that dies mid-flight rather than closing cleanly.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the pump thread cannot be spawned.
    pub(crate) fn with_notifier(notifier: DeadStreamNotifier) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("gw-pump".to_string())
            .spawn(move || pump_loop(&rx, &notifier))?;
        Ok(StreamPump {
            tx,
            thread: Some(thread),
        })
    }

    /// A cloneable handle for pushing frames and registering sockets.
    pub(crate) fn handle(&self) -> PumpHandle {
        PumpHandle {
            tx: self.tx.clone(),
        }
    }

    /// Flushes what can be flushed promptly and joins the thread.
    pub(crate) fn shutdown(mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Finished stream ids the pump refuses to recreate: a `Push` racing a
/// removal would otherwise resurrect the entry as a socketless zombie
/// that buffers forever. Bounded FIFO — old ids age out, which is safe
/// because stream ids are never reused.
#[derive(Default)]
struct Tombstones {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl Tombstones {
    fn remember(&mut self, id: u64) {
        if self.set.insert(id) {
            self.order.push_back(id);
            while self.order.len() > TOMBSTONE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.set.contains(&id)
    }
}

fn pump_loop(rx: &Receiver<Msg>, notifier: &DeadStreamNotifier) {
    let mut streams: HashMap<u64, StreamState> = HashMap::new();
    let mut tombstones = Tombstones::default();
    loop {
        // Take one message (with a small poll interval so pending writes
        // retry), then drain everything else that is already queued.
        let first = rx.recv_timeout(Duration::from_millis(1));
        let mut shutdown = false;
        let apply = |msg: Msg, streams: &mut HashMap<u64, StreamState>, tombstones: &Tombstones| {
            match msg {
                Msg::Register(id, sock) => {
                    if tombstones.contains(id) {
                        return;
                    }
                    let _ = sock.set_nonblocking(true);
                    let state = streams.entry(id).or_default();
                    if state.dead {
                        return;
                    }
                    state.sock = Some(sock);
                }
                Msg::Push(id, frame) => {
                    if tombstones.contains(id) {
                        return;
                    }
                    let state = streams.entry(id).or_default();
                    if state.dead {
                        return;
                    }
                    match frame {
                        Frame::Data(bytes) => {
                            if state.buf.len() - state.written + bytes.len() > MAX_BUFFERED_BYTES {
                                // Slow consumer: drop the stream, not the heap.
                                state.dead = true;
                                state.sock = None;
                                state.buf.clear();
                            } else {
                                state.buf.extend_from_slice(&bytes);
                            }
                        }
                        Frame::Close => state.closing = true,
                    }
                }
                Msg::Stall(id, dur) => {
                    if tombstones.contains(id) {
                        return;
                    }
                    if let Some(state) = streams.get_mut(&id) {
                        if !state.dead {
                            state.stall_until = Some(Instant::now() + dur);
                        }
                    }
                }
                Msg::Shutdown => {}
            }
        };
        match first {
            Ok(Msg::Shutdown) => shutdown = true,
            Ok(msg) => apply(msg, &mut streams, &tombstones),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => shutdown = true,
        }
        if !shutdown {
            while let Ok(msg) = rx.try_recv() {
                if matches!(msg, Msg::Shutdown) {
                    shutdown = true;
                    break;
                }
                apply(msg, &mut streams, &tombstones);
            }
        }
        // Write what the kernel will take.
        let now = Instant::now();
        streams.retain(|id, state| {
            if flush_stream(state, now) {
                return true;
            }
            tombstones.remember(*id);
            if state.dead {
                notifier(*id);
            }
            false
        });
        if shutdown {
            // Best-effort final flush for streams that are already
            // drainable, then stop.
            let now = Instant::now();
            streams.retain(|_, state| flush_stream(state, now));
            return;
        }
    }
}

/// Attempts to write a stream's pending bytes. Returns `false` when the
/// stream is finished (drained + closing, dead, or the socket failed)
/// and should be dropped from the table.
fn flush_stream(state: &mut StreamState, now: Instant) -> bool {
    if state.dead {
        return false;
    }
    if let Some(until) = state.stall_until {
        if now < until {
            // Injected write stall: hold buffered bytes.
            return true;
        }
        state.stall_until = None;
    }
    let Some(sock) = state.sock.as_mut() else {
        // Not registered yet; keep buffering.
        return true;
    };
    while state.written < state.buf.len() {
        match sock.write(&state.buf[state.written..]) {
            Ok(0) => {
                state.dead = true;
                return false;
            }
            Ok(n) => state.written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                state.dead = true;
                return false;
            }
        }
    }
    if state.written == state.buf.len() {
        state.buf.clear();
        state.written = 0;
        if state.closing {
            let _ = sock.shutdown(std::net::Shutdown::Write);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn frames_buffered_before_registration_arrive_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pump = StreamPump::with_notifier(Box::new(|_| {})).unwrap();
        let handle = pump.handle();
        // Push before the socket exists: pre-registration buffering.
        handle.push(7, Frame::Data(b"first ".to_vec()));
        handle.push(7, Frame::Data(b"second".to_vec()));
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        handle.register(7, server_side);
        handle.push(7, Frame::Close);
        let mut got = String::new();
        let mut reader = client;
        reader
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        reader.read_to_string(&mut got).unwrap();
        pump.shutdown();
        assert_eq!(got, "first second");
    }

    #[test]
    fn dead_streams_notify_and_late_frames_do_not_resurrect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (dead_tx, dead_rx) = mpsc::channel::<u64>();
        let pump = StreamPump::with_notifier(Box::new(move |id| {
            let _ = dead_tx.send(id);
        }))
        .unwrap();
        let handle = pump.handle();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        handle.register(9, server_side);
        // Client vanishes; the pump discovers it on the next write.
        drop(client);
        // Writes must keep flowing until the peer reset surfaces (the
        // first write after a disconnect can still succeed into the
        // kernel buffer).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut dead = None;
        while std::time::Instant::now() < deadline {
            handle.push(9, Frame::Data(b"tok".to_vec()));
            if let Ok(id) = dead_rx.recv_timeout(Duration::from_millis(10)) {
                dead = Some(id);
                break;
            }
        }
        assert_eq!(dead, Some(9), "pump must report the dead stream");
        // Frames after death are dropped, never re-buffered: the pump
        // must not grow state for a tombstoned id (observable as no
        // second notification and a clean shutdown).
        handle.push(9, Frame::Data(b"late".to_vec()));
        handle.push(9, Frame::Close);
        assert!(dead_rx.recv_timeout(Duration::from_millis(50)).is_err());
        pump.shutdown();
    }

    #[test]
    fn stalled_writes_resume_after_the_stall_window() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pump = StreamPump::with_notifier(Box::new(|_| {})).unwrap();
        let handle = pump.handle();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        handle.register(3, server_side);
        handle.stall(3, Duration::from_millis(50));
        handle.push(3, Frame::Data(b"delayed".to_vec()));
        handle.push(3, Frame::Close);
        let start = std::time::Instant::now();
        let mut got = String::new();
        let mut reader = client;
        reader
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        reader.read_to_string(&mut got).unwrap();
        assert_eq!(got, "delayed");
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "bytes must be held for the stall window"
        );
        pump.shutdown();
    }
}
