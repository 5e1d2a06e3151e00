//! Outside-in tracing: decorators around the middleware's public traits.
//!
//! Nothing under `crates/` is instrumented. A traced run wraps the
//! client's socket ([`TracedConn`] under `ReliableTransport`), the
//! server's listener and every connection it accepts ([`TracedListener`],
//! the same [`TracedConn`], whose `split` halves are traced too), and
//! each bound service ([`TracedService`]). Each decorator appends
//! fixed-size events to a buffer of its own — allocated once, on first
//! use, so a thousand idle connections cost nothing — and hands the
//! buffer to the shared [`Recorder`] when it is dropped. No lock is taken
//! and nothing is allocated on the call path.
//!
//! An untraced run uses [`Plain`], which hands every object back
//! unwrapped: the end-to-end numbers are measured with no decorator in
//! the path at all.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nrmi_core::{NrmiError, RemoteService};
use nrmi_heap::{HeapAccess, Value};
use nrmi_transport::{
    Frame, Listener, PollableListener, ReactorIo, SendQueue, TcpListenerTransport, TcpTransport,
    Transport, TransportError, TransportReceiver, TransportSender,
};
use nrmi_wire::ByteWriter;

/// Which public call an [`IoEvent`] wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// `send` / `send_batch`.
    Send,
    /// A blocking `recv` / `recv_timeout` that returned a frame. Its
    /// duration includes waiting for the peer.
    Recv,
    /// A blocking receive that returned no frame (timeout or error).
    RecvNone,
    /// `ReactorIo::try_read_frame` that decoded a frame.
    Poll,
    /// `ReactorIo::try_read_frame` with no complete frame: a wasted attempt.
    PollEmpty,
    /// `ReactorIo::flush_queue`.
    Flush,
}

/// What else the frame(s) of an event said.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// Nothing of interest.
    Plain,
    /// A tagged call whose sequence number was sent before: a retry.
    Retransmit,
    /// `CacheMiss`: the warm session reseeds.
    CacheMiss,
    /// `CacheStale`: a coherence patch.
    CacheStale,
}

/// One call across a decorated boundary.
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    /// The call wrapped.
    pub kind: IoKind,
    /// Entry, in nanoseconds since the recorder's epoch.
    pub t0: u64,
    /// Exit.
    pub t1: u64,
    /// `(nonce, seq)` of the first tagged frame: the call id both ends see.
    pub id: Option<(u64, u64)>,
    /// Frames moved (0 for a flush, which moves bytes).
    pub frames: u32,
    /// `Frame::wire_size` of those frames; bytes written for a flush.
    pub frame_bytes: u32,
    /// `Frame::payload_len` of those frames.
    pub payload_bytes: u32,
    /// See [`Note`].
    pub note: Note,
}

/// Which end of which connection a log belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Connection `conn` of round `round`, client end.
    Client {
        /// 1-based round.
        round: u32,
        /// Connection index within the round.
        conn: u32,
    },
    /// A connection the server accepted (or one half of it after `split`).
    Server,
}

/// The events of one decorator, in the order they happened.
#[derive(Debug)]
pub struct ConnLog {
    /// Which end.
    pub side: Side,
    /// The events.
    pub events: Vec<IoEvent>,
}

/// Where decorators deliver their buffers, and the run's clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Events a busy connection's buffer is sized for.
    conn_capacity: usize,
    /// Spans a service's buffer is sized for.
    exec_capacity: usize,
    logs: Mutex<Vec<ConnLog>>,
    exec: Mutex<Vec<Vec<(u64, u64)>>>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, conn_capacity: usize, exec_capacity: usize) -> Arc<Self> {
        Arc::new(Recorder {
            epoch,
            conn_capacity,
            exec_capacity,
            logs: Mutex::new(Vec::new()),
            exec: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Takes everything delivered so far: connection logs and, per
    /// service, its `(start, end)` execution spans. Call once every
    /// decorator has been dropped.
    pub fn take(&self) -> (Vec<ConnLog>, Vec<Vec<(u64, u64)>>) {
        let logs = std::mem::take(&mut *self.logs.lock().expect("no decorator panics mid-push"));
        let exec = std::mem::take(&mut *self.exec.lock().expect("no decorator panics mid-push"));
        (logs, exec)
    }
}

/// `Frame::wire_size` without its allocation: the encoded prefix goes
/// into a reused scratch buffer and the payload is only measured.
fn wire_size(frame: &Frame, scratch: &mut Vec<u8>) -> usize {
    let mut w = ByteWriter::with_buffer(std::mem::take(scratch));
    let tail = frame.encode_prefix_into(&mut w).map_or(0, <[u8]>::len);
    let size = w.len() + tail;
    *scratch = w.into_bytes();
    size
}

fn call_id(frame: &Frame) -> Option<(u64, u64)> {
    match frame {
        Frame::Tagged { nonce, seq, .. } | Frame::ReplyCached { nonce, seq, .. } => {
            Some((*nonce, *seq))
        }
        _ => None,
    }
}

/// One decorator's buffer. Delivered to the recorder on drop.
struct Log {
    rec: Arc<Recorder>,
    side: Side,
    events: Vec<IoEvent>,
    scratch: Vec<u8>,
    /// Highest call sequence number sent so far, to recognise retries.
    sent_seq: Option<u64>,
}

impl Log {
    fn new(rec: &Arc<Recorder>, side: Side) -> Self {
        Log {
            rec: Arc::clone(rec),
            side,
            events: Vec::new(),
            scratch: Vec::new(),
            sent_seq: None,
        }
    }

    fn push(&mut self, event: IoEvent) {
        if self.events.capacity() == 0 {
            self.events.reserve_exact(self.rec.conn_capacity);
            self.scratch.reserve_exact(256);
        }
        self.events.push(event);
    }

    fn frames(&mut self, kind: IoKind, t0: u64, frames: &[&Frame]) {
        let t1 = self.rec.now();
        let mut event = IoEvent {
            kind,
            t0,
            t1,
            id: frames.first().and_then(|f| call_id(f)),
            frames: frames.len() as u32,
            frame_bytes: 0,
            payload_bytes: 0,
            note: Note::Plain,
        };
        for frame in frames {
            event.frame_bytes += wire_size(frame, &mut self.scratch) as u32;
            event.payload_bytes += frame.payload_len() as u32;
            match frame {
                Frame::CacheMiss => event.note = Note::CacheMiss,
                Frame::CacheStale { .. } => event.note = Note::CacheStale,
                Frame::Tagged { seq, .. } if kind == IoKind::Send => {
                    if self.sent_seq.is_some_and(|sent| *seq <= sent) {
                        event.note = Note::Retransmit;
                    }
                    self.sent_seq = Some(self.sent_seq.map_or(*seq, |sent| sent.max(*seq)));
                }
                Frame::Tagged { frame, .. } | Frame::ReplyCached { frame, .. } => match **frame {
                    Frame::CacheMiss => event.note = Note::CacheMiss,
                    Frame::CacheStale { .. } => event.note = Note::CacheStale,
                    _ => {}
                },
                _ => {}
            }
        }
        self.push(event);
    }

    /// Times `send`, which puts `frames` on the wire.
    fn send<R>(&mut self, frames: &[&Frame], send: impl FnOnce() -> R) -> R {
        let t0 = self.rec.now();
        let result = send();
        self.frames(IoKind::Send, t0, frames);
        result
    }

    /// Times `recv`, a blocking receive.
    fn recv(
        &mut self,
        recv: impl FnOnce() -> Result<Frame, TransportError>,
    ) -> Result<Frame, TransportError> {
        let t0 = self.rec.now();
        let result = recv();
        match &result {
            Ok(frame) => self.frames(IoKind::Recv, t0, &[frame]),
            Err(_) => self.bare(IoKind::RecvNone, t0, 0),
        }
        result
    }

    fn bare(&mut self, kind: IoKind, t0: u64, bytes: usize) {
        let t1 = self.rec.now();
        self.push(IoEvent {
            kind,
            t0,
            t1,
            id: None,
            frames: 0,
            frame_bytes: bytes as u32,
            payload_bytes: 0,
            note: Note::Plain,
        });
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // A poisoned lock means another decorator panicked; the run is
        // lost anyway and `Drop` must not panic on top of it.
        if let Ok(mut logs) = self.rec.logs.lock() {
            logs.push(ConnLog {
                side: self.side,
                events: std::mem::take(&mut self.events),
            });
        }
    }
}

/// A connection — either end — with every public call timed.
pub struct TracedConn<C> {
    inner: C,
    log: Log,
}

impl<C: Transport> Transport for TracedConn<C> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.log.send(&[frame], || self.inner.send(frame))
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        self.log.send(frames, || self.inner.send_batch(frames))
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        self.log.recv(|| self.inner.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        self.log.recv(|| self.inner.recv_timeout(timeout))
    }

    fn reconnect(&mut self) -> Result<bool, TransportError> {
        self.inner.reconnect()
    }

    // The pooled serve loop pipelines a connection only if it splits;
    // answering `None` here would quietly change the server under test.
    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        let (sender, receiver) = self.inner.split()?;
        let (rec, side) = (&self.log.rec, self.log.side);
        Some((
            Box::new(TracedSender {
                inner: sender,
                log: Log::new(rec, side),
            }),
            Box::new(TracedReceiver {
                inner: receiver,
                log: Log::new(rec, side),
            }),
        ))
    }
}

impl<C: ReactorIo> ReactorIo for TracedConn<C> {
    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        self.inner.raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<(), TransportError> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn try_read_frame(&mut self) -> Result<Option<Frame>, TransportError> {
        let t0 = self.log.rec.now();
        let result = self.inner.try_read_frame();
        match &result {
            Ok(Some(frame)) => self.log.frames(IoKind::Poll, t0, &[frame]),
            _ => self.log.bare(IoKind::PollEmpty, t0, 0),
        }
        result
    }

    fn has_buffered_input(&self) -> bool {
        self.inner.has_buffered_input()
    }

    fn flush_queue(&mut self, queue: &mut SendQueue) -> Result<bool, TransportError> {
        let before = queue.pending_bytes();
        let t0 = self.log.rec.now();
        let result = self.inner.flush_queue(queue);
        self.log
            .bare(IoKind::Flush, t0, before - queue.pending_bytes());
        result
    }
}

struct TracedSender {
    inner: Box<dyn TransportSender>,
    log: Log,
}

impl TransportSender for TracedSender {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.log.send(&[frame], || self.inner.send(frame))
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        self.log.send(frames, || self.inner.send_batch(frames))
    }
}

struct TracedReceiver {
    inner: Box<dyn TransportReceiver>,
    log: Log,
}

impl TransportReceiver for TracedReceiver {
    fn recv(&mut self) -> Result<Frame, TransportError> {
        self.log.recv(|| self.inner.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        self.log.recv(|| self.inner.recv_timeout(timeout))
    }
}

/// A listener whose accepted connections are [`TracedConn`]s.
pub struct TracedListener<L> {
    inner: L,
    rec: Arc<Recorder>,
}

impl<L> TracedListener<L> {
    fn wrap<C>(&self, conn: C) -> TracedConn<C> {
        TracedConn {
            inner: conn,
            log: Log::new(&self.rec, Side::Server),
        }
    }
}

impl<L: Listener> Listener for TracedListener<L> {
    type Conn = TracedConn<L::Conn>;

    fn accept(&self) -> Result<Self::Conn, TransportError> {
        self.inner.accept().map(|c| self.wrap(c))
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Self::Conn, TransportError> {
        self.inner.accept_timeout(timeout).map(|c| self.wrap(c))
    }
}

impl<L: PollableListener> PollableListener for TracedListener<L>
where
    L::Conn: ReactorIo,
{
    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        self.inner.raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<(), TransportError> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn try_accept(&self) -> Result<Option<Self::Conn>, TransportError> {
        Ok(self.inner.try_accept()?.map(|c| self.wrap(c)))
    }
}

/// A service whose every `invoke` is timed: `service.execute_us`.
pub struct TracedService {
    inner: Box<dyn RemoteService>,
    rec: Arc<Recorder>,
    spans: Vec<(u64, u64)>,
}

impl RemoteService for TracedService {
    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        heap: &mut dyn HeapAccess,
    ) -> Result<Value, NrmiError> {
        if self.spans.capacity() == 0 {
            self.spans.reserve_exact(self.rec.exec_capacity);
        }
        let t0 = self.rec.now();
        let result = self.inner.invoke(method, args, heap);
        self.spans.push((t0, self.rec.now()));
        result
    }
}

impl Drop for TracedService {
    fn drop(&mut self) {
        if let Ok(mut exec) = self.rec.exec.lock() {
            exec.push(std::mem::take(&mut self.spans));
        }
    }
}

/// How a run wraps the objects it hands to the middleware: not at all
/// ([`Plain`]) or in the decorators above ([`Spans`]).
pub trait Instrument {
    /// The client's socket, as `ReliableTransport` sees it.
    type Client: Transport + 'static;
    /// The server's listener.
    type Listener: PollableListener<Conn = Self::Conn> + Send + 'static;
    /// A connection that listener accepts.
    type Conn: ReactorIo + Send + 'static;

    /// Wraps a connected client socket.
    fn client(&self, tcp: TcpTransport, round: u32, conn: u32) -> Self::Client;
    /// Wraps the bound listener.
    fn listener(&self, listener: TcpListenerTransport) -> Self::Listener;
    /// Wraps a service about to be bound.
    fn service(&self, service: Box<dyn RemoteService>) -> Box<dyn RemoteService>;
}

/// No tracing: every object is handed back as it came.
#[derive(Clone, Copy, Debug)]
pub struct Plain;

impl Instrument for Plain {
    type Client = TcpTransport;
    type Listener = TcpListenerTransport;
    type Conn = TcpTransport;

    fn client(&self, tcp: TcpTransport, _round: u32, _conn: u32) -> TcpTransport {
        tcp
    }

    fn listener(&self, listener: TcpListenerTransport) -> TcpListenerTransport {
        listener
    }

    fn service(&self, service: Box<dyn RemoteService>) -> Box<dyn RemoteService> {
        service
    }
}

/// Tracing into a [`Recorder`].
#[derive(Clone, Debug)]
pub struct Spans(pub Arc<Recorder>);

impl Instrument for Spans {
    type Client = TracedConn<TcpTransport>;
    type Listener = TracedListener<TcpListenerTransport>;
    type Conn = TracedConn<TcpTransport>;

    fn client(&self, tcp: TcpTransport, round: u32, conn: u32) -> Self::Client {
        TracedConn {
            inner: tcp,
            log: Log::new(&self.0, Side::Client { round, conn }),
        }
    }

    fn listener(&self, listener: TcpListenerTransport) -> Self::Listener {
        TracedListener {
            inner: listener,
            rec: Arc::clone(&self.0),
        }
    }

    fn service(&self, service: Box<dyn RemoteService>) -> Box<dyn RemoteService> {
        Box::new(TracedService {
            inner: service,
            rec: Arc::clone(&self.0),
            spans: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_agrees_with_the_transport() {
        let mut scratch = Vec::new();
        let call = Frame::Tagged {
            nonce: u64::MAX - 5,
            seq: 300,
            frame: Box::new(Frame::CallRequest {
                service: "echo".into(),
                method: "inc".into(),
                mode: 0,
                payload: vec![7; 100],
            }),
        };
        for frame in [call, Frame::CacheMiss, Frame::Shutdown] {
            assert_eq!(wire_size(&frame, &mut scratch), frame.wire_size());
        }
    }
}
