//! The one framed-socket transport.
//!
//! TCP and Unix-domain sockets differ in how a stream is dialed and
//! accepted and in nothing else, so everything past that — framing,
//! vectored sends, the resumable read-ahead receiver, receive deadlines,
//! reconnect, the split halves, the reactor's non-blocking surface and
//! the timed accept — is written once here, generic over a [`Socket`]
//! (the stream) and an [`Acceptor`] (the bound listener). The
//! [`tcp`](crate::tcp) and [`uds`](crate::uds) modules only implement
//! those two traits for the `std` types and name the instantiations.

use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

use crate::endpoint::{Listener, Transport, TransportReceiver, TransportSender};
use crate::framed::{self, FrameReader};
use crate::message::Frame;
use crate::{Result, TransportError};

/// A connected stream socket of one address family: what the framed
/// transport needs beyond `Read + Write`.
pub trait Socket: Read + Write + Send + Sized + 'static {
    /// Where a stream of this family dials to (kept for reconnects).
    type Addr: Clone + std::fmt::Debug + Send;

    /// Connects to `addr`, fully configured for framed traffic.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn dial(addr: &Self::Addr) -> std::io::Result<Self>;

    /// A second handle to the same socket (`dup`), for the split halves.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn try_clone(&self) -> std::io::Result<Self>;

    /// Sets (or with `None` clears) the deadline of blocking reads.
    ///
    /// # Errors
    /// Propagates socket errors; `std` rejects a zero duration.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Switches the socket between blocking and non-blocking mode.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
}

/// A bound listening socket producing [`Socket`] streams.
pub trait Acceptor: Send {
    /// The stream type of an accepted connection.
    type Stream: Socket;

    /// Accepts one connection, configured like a dialed one. Blocks or
    /// fails with `WouldBlock` according to the listener's mode; the
    /// accepted stream's blocking mode is unspecified.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn accept(&self) -> std::io::Result<Self::Stream>;

    /// Switches the listener between blocking and non-blocking mode.
    ///
    /// # Errors
    /// Propagates socket errors.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
}

/// Ships `frames` as one vectored train (a single send is the one-frame
/// train), reusing `scratch` for the length prefixes and headers.
fn send_frames(stream: &mut impl Write, scratch: &mut Vec<u8>, frames: &[&Frame]) -> Result<()> {
    framed::write_frames_vectored(stream, frames, scratch).map(|_| ())
}

/// Sets the socket's read deadline to `want` unless `armed` — the value
/// last set, kept beside the socket's [`FrameReader`] — already says so.
/// A fresh socket has none.
fn arm<S: Socket>(stream: &S, armed: &mut Option<Duration>, want: Option<Duration>) -> Result<()> {
    if *armed != want {
        stream.set_read_timeout(want)?;
        *armed = want;
    }
    Ok(())
}

/// Receives one frame, blocking (`timeout` = `None`) or with a deadline.
///
/// A frame already complete in the read-ahead is served with no syscall
/// at all. A zero deadline is exactly that check and nothing else (`std`
/// refuses to arm a zero read timeout). A deadline stays armed after the
/// receive that set it: `setsockopt` runs only when a receive wants a
/// different one (a blocking receive wants none). A deadline that fires
/// mid-frame leaves the reader's progress intact for the next call.
fn recv_frame<S: Socket>(
    stream: &mut S,
    reader: &mut FrameReader,
    armed: &mut Option<Duration>,
    timeout: Option<Duration>,
) -> Result<Frame> {
    if let Some(result) = reader.read_frame_buffered() {
        return result;
    }
    let Some(timeout) = timeout else {
        crate::blocking::blocking_region("socket.recv");
        arm(stream, armed, None)?;
        return reader.read_frame(stream);
    };
    if timeout.is_zero() {
        return Err(TransportError::Timeout);
    }
    crate::blocking::blocking_region("socket.recv_timeout");
    arm(stream, armed, Some(timeout))?;
    match reader.read_frame(stream) {
        Err(TransportError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            Err(TransportError::Timeout)
        }
        other => other,
    }
}

/// A connected frame transport over a stream socket.
pub struct SocketTransport<S: Socket> {
    stream: S,
    /// The dialed address, kept so [`Transport::reconnect`] can re-dial.
    /// `None` for accepted (server-side) streams, which cannot dial the
    /// client back.
    peer: Option<S::Addr>,
    scratch: Vec<u8>,
    reader: FrameReader,
    /// The read deadline last set on `stream` (see [`arm`]).
    armed: Option<Duration>,
}

impl<S: Socket> std::fmt::Debug for SocketTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl<S: Socket> SocketTransport<S> {
    /// Wraps a connected, configured stream; `peer` is what a reconnect
    /// re-dials (`None`: never).
    pub(crate) fn new(stream: S, peer: Option<S::Addr>) -> Self {
        SocketTransport {
            stream,
            peer,
            scratch: Vec::new(),
            reader: FrameReader::new(),
            armed: None,
        }
    }

    /// Dials `addr` and remembers it for reconnects.
    pub(crate) fn dial(addr: S::Addr) -> Result<Self> {
        let stream = S::dial(&addr)?;
        Ok(Self::new(stream, Some(addr)))
    }
}

impl<S: Socket> Transport for SocketTransport<S> {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        send_frames(&mut self.stream, &mut self.scratch, &[frame])
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        send_frames(&mut self.stream, &mut self.scratch, frames)
    }

    fn recv(&mut self) -> Result<Frame> {
        recv_frame(&mut self.stream, &mut self.reader, &mut self.armed, None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        recv_frame(
            &mut self.stream,
            &mut self.reader,
            &mut self.armed,
            Some(timeout),
        )
    }

    fn reconnect(&mut self) -> Result<bool> {
        let Some(addr) = &self.peer else {
            return Ok(false);
        };
        self.stream = S::dial(addr)?;
        self.reader.reset();
        self.armed = None;
        Ok(true)
    }

    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        // The socket duplicates into independent handles; the receiver
        // half inherits the resumable reader so bytes read ahead (or
        // buffered across an earlier recv_timeout) are not lost, and the
        // deadline armed on the socket the handles share.
        let sender = SocketSender {
            stream: self.stream.try_clone().ok()?,
            scratch: std::mem::take(&mut self.scratch),
        };
        let receiver = SocketReceiver {
            stream: self.stream.try_clone().ok()?,
            reader: std::mem::take(&mut self.reader),
            armed: self.armed,
        };
        Some((Box::new(sender), Box::new(receiver)))
    }
}

/// Write half of a split [`SocketTransport`].
struct SocketSender<S> {
    stream: S,
    scratch: Vec<u8>,
}

impl<S: Socket> TransportSender for SocketSender<S> {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        send_frames(&mut self.stream, &mut self.scratch, &[frame])
    }

    fn send_batch(&mut self, frames: &[&Frame]) -> Result<()> {
        send_frames(&mut self.stream, &mut self.scratch, frames)
    }
}

/// Read half of a split [`SocketTransport`].
struct SocketReceiver<S> {
    stream: S,
    reader: FrameReader,
    /// The read deadline last set on `stream` (see [`arm`]).
    armed: Option<Duration>,
}

impl<S: Socket> TransportReceiver for SocketReceiver<S> {
    fn recv(&mut self) -> Result<Frame> {
        recv_frame(&mut self.stream, &mut self.reader, &mut self.armed, None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        recv_frame(
            &mut self.stream,
            &mut self.reader,
            &mut self.armed,
            Some(timeout),
        )
    }
}

#[cfg(unix)]
impl<S: Socket + std::os::unix::io::AsRawFd> crate::endpoint::ReactorIo for SocketTransport<S> {
    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        self.stream.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        Ok(self.stream.set_nonblocking(nonblocking)?)
    }

    fn try_read_frame(&mut self) -> Result<Option<Frame>> {
        // The resumable reader keeps its cursor across WouldBlock, so a
        // frame straddling readiness events assembles incrementally.
        match self.reader.read_frame(&mut self.stream) {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::Io(e)) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn has_buffered_input(&self) -> bool {
        self.reader.has_buffered_input()
    }

    fn flush_queue(&mut self, queue: &mut crate::SendQueue) -> Result<bool> {
        queue.flush(&mut self.stream)
    }
}

/// A listener that accepts [`SocketTransport`] connections.
#[derive(Debug)]
pub struct SocketListener<A> {
    pub(crate) acceptor: A,
}

impl<A: Acceptor> SocketListener<A> {
    /// Blocks until a client connects.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn accept(&self) -> Result<SocketTransport<A::Stream>> {
        self.acceptor.set_nonblocking(false)?;
        Ok(SocketTransport::new(self.acceptor.accept()?, None))
    }

    /// Waits up to `timeout` for a client. `std` listeners have no
    /// native accept deadline, so this polls a non-blocking accept (the
    /// loop in `crate::listen`) — coarse, but it lets a serve loop check
    /// a shutdown flag between waits instead of blocking in `accept`
    /// forever.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] if nobody connected in time;
    /// otherwise propagates socket errors.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<SocketTransport<A::Stream>> {
        let stream = crate::listen::poll_accept(
            |nb| self.acceptor.set_nonblocking(nb),
            || self.acceptor.accept(),
            timeout,
        )?;
        // Accepted sockets may inherit the listener's non-blocking flag
        // (platform-dependent); undo it.
        stream.set_nonblocking(false)?;
        Ok(SocketTransport::new(stream, None))
    }
}

impl<A: Acceptor> Listener for SocketListener<A> {
    type Conn = SocketTransport<A::Stream>;

    fn accept(&self) -> Result<Self::Conn> {
        SocketListener::accept(self)
    }

    fn accept_timeout(&self, timeout: Duration) -> Result<Self::Conn> {
        SocketListener::accept_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl<A: Acceptor + std::os::unix::io::AsRawFd> crate::endpoint::PollableListener
    for SocketListener<A>
{
    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        self.acceptor.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        Ok(self.acceptor.set_nonblocking(nonblocking)?)
    }

    fn try_accept(&self) -> Result<Option<Self::Conn>> {
        match self.acceptor.accept() {
            Ok(stream) => Ok(Some(SocketTransport::new(stream, None))),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    //! One suite, run once per socket family.

    use super::*;
    use std::thread;

    /// How a family binds a fresh listener for a test, and where a
    /// client dials to reach it.
    trait Family: Acceptor + Sized + 'static {
        fn bind(tag: &str) -> (SocketListener<Self>, <Self::Stream as Socket>::Addr);
    }

    impl Family for std::net::TcpListener {
        fn bind(_tag: &str) -> (SocketListener<Self>, std::net::SocketAddr) {
            let listener = crate::TcpListenerTransport::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            (listener, addr)
        }
    }

    #[cfg(unix)]
    impl Family for crate::uds::BoundPath {
        fn bind(tag: &str) -> (SocketListener<Self>, std::path::PathBuf) {
            let path =
                std::env::temp_dir().join(format!("nrmi-socket-test-{tag}-{}", std::process::id()));
            let listener = crate::UdsListenerTransport::bind(&path).unwrap();
            (listener, path)
        }
    }

    macro_rules! socket_suite {
        ($($case:ident),* $(,)?) => {
            mod tcp {
                $(#[test] fn $case() { super::$case::<std::net::TcpListener>() })*
            }
            #[cfg(unix)]
            mod uds {
                $(#[test] fn $case() { super::$case::<crate::uds::BoundPath>() })*
            }
        };
    }

    socket_suite!(
        roundtrip,
        disconnect_detected,
        recv_timeout_fires,
        zero_timeout_serves_buffered_frames_only,
        timeout_mid_frame_then_completion,
        reconnect_redials_the_listener,
        accepted_streams_do_not_reconnect,
        train_read_before_split_reaches_the_receiver_half,
    );

    fn roundtrip<F: Family>() {
        let (listener, addr) = F::bind("roundtrip");
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let f = t.recv().unwrap();
            assert_eq!(
                f,
                Frame::Lookup {
                    name: "echo".into()
                }
            );
            t.send(&Frame::LookupReply { found: true }).unwrap();
            // Large frame across the socket.
            let big = t.recv().unwrap();
            match big {
                Frame::CallRequest { payload, .. } => assert_eq!(payload.len(), 100_000),
                other => panic!("unexpected {other:?}"),
            }
            t.send(&Frame::CallReply {
                payload: vec![7; 10],
            })
            .unwrap();
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        client
            .send(&Frame::Lookup {
                name: "echo".into(),
            })
            .unwrap();
        assert_eq!(client.recv().unwrap(), Frame::LookupReply { found: true });
        client
            .send(&Frame::CallRequest {
                service: "s".into(),
                method: "m".into(),
                mode: 0,
                payload: vec![1; 100_000],
            })
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Frame::CallReply {
                payload: vec![7; 10]
            }
        );
        server.join().unwrap();
    }

    fn disconnect_detected<F: Family>() {
        let (listener, addr) = F::bind("disconnect");
        let server = thread::spawn(move || {
            let t = listener.accept().unwrap();
            drop(t);
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        server.join().unwrap();
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
    }

    fn recv_timeout_fires<F: Family>() {
        let (listener, addr) = F::bind("timeout");
        let _keepalive = thread::spawn(move || {
            let t = listener.accept().unwrap();
            thread::sleep(Duration::from_millis(300));
            drop(t);
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        let err = client.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
    }

    /// Regression: `std` rejects a zero read timeout with `InvalidInput`,
    /// which used to surface as an `Io` error. A zero deadline means
    /// "what is already here": a buffered frame, else `Timeout`.
    fn zero_timeout_serves_buffered_frames_only<F: Family>() {
        let (listener, addr) = F::bind("zero");
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            t.send_batch(&[&Frame::CountReply(1), &Frame::CountReply(2)])
                .unwrap();
            t
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        // Both frames are in the kernel before the first read, so one
        // read pulls the whole train into the read-ahead.
        let _server_side = server.join().unwrap();
        assert_eq!(client.recv().unwrap(), Frame::CountReply(1));
        assert_eq!(
            client.recv_timeout(Duration::ZERO).unwrap(),
            Frame::CountReply(2)
        );
        let err = client.recv_timeout(Duration::ZERO).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
    }

    /// Regression for the stream-desync bug: the server sends the length
    /// prefix, pauses past the client's deadline, then sends the body.
    /// The client's first recv times out; the second must deliver the
    /// frame intact instead of misreading body bytes as a fresh length.
    fn timeout_mid_frame_then_completion<F: Family>() {
        let (listener, addr) = F::bind("midframe");
        let server = thread::spawn(move || {
            let mut stream = listener.acceptor.accept().unwrap();
            let body = Frame::CallReply {
                payload: vec![0x42; 2000],
            }
            .encode();
            let prefix = (body.len() as u32).to_be_bytes();
            stream.write_all(&prefix).unwrap();
            stream.write_all(&body[..10]).unwrap();
            stream.flush().unwrap();
            thread::sleep(Duration::from_millis(150));
            stream.write_all(&body[10..]).unwrap();
            stream.flush().unwrap();
            // Hold the connection until the client is done reading.
            thread::sleep(Duration::from_millis(200));
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        let err = client.recv_timeout(Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        let frame = client.recv().unwrap();
        assert_eq!(
            frame,
            Frame::CallReply {
                payload: vec![0x42; 2000]
            }
        );
        server.join().unwrap();
    }

    fn reconnect_redials_the_listener<F: Family>() {
        let (listener, addr) = F::bind("reconnect");
        let server = thread::spawn(move || {
            // First connection: answer one frame, then drop.
            let mut t = listener.accept().unwrap();
            let _ = t.recv().unwrap();
            t.send(&Frame::Ack).unwrap();
            drop(t);
            // Second connection after the client reconnects.
            let mut t = listener.accept().unwrap();
            let _ = t.recv().unwrap();
            t.send(&Frame::CountReply(2)).unwrap();
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        client.send(&Frame::Ack).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Ack);
        // Wait for the server to drop the first connection.
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
        assert!(client.reconnect().unwrap());
        client.send(&Frame::Ack).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::CountReply(2));
        server.join().unwrap();
    }

    fn accepted_streams_do_not_reconnect<F: Family>() {
        let (listener, addr) = F::bind("accepted");
        let client = thread::spawn(move || {
            let _t = SocketTransport::<F::Stream>::dial(addr).unwrap();
            thread::sleep(Duration::from_millis(50));
        });
        let mut server_side = listener.accept().unwrap();
        assert!(!server_side.reconnect().unwrap());
        client.join().unwrap();
    }

    /// The read-ahead hand-over: one read pulls a whole train into user
    /// space; frames still buffered when the transport splits must come
    /// out of the receiver half, not be stranded in the discarded whole.
    fn train_read_before_split_reaches_the_receiver_half<F: Family>() {
        let (listener, addr) = F::bind("handover");
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let train = [Frame::CountReply(1), Frame::CountReply(2), Frame::Ack];
            t.send_batch(&train.iter().collect::<Vec<_>>()).unwrap();
            t
        });
        let mut client = SocketTransport::<F::Stream>::dial(addr).unwrap();
        let mut server_side = server.join().unwrap();
        assert_eq!(client.recv().unwrap(), Frame::CountReply(1));
        assert!(
            client.reader.has_buffered_input(),
            "the rest of the train is in the read-ahead"
        );
        let (mut tx, mut rx) = client.split().expect("socket transports split");
        assert_eq!(rx.recv().unwrap(), Frame::CountReply(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(500)).unwrap(),
            Frame::Ack
        );
        // Both halves still reach the peer.
        tx.send(&Frame::Shutdown).unwrap();
        assert_eq!(server_side.recv().unwrap(), Frame::Shutdown);
    }

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// An in-memory socket that counts `set_read_timeout` calls. Reads
    /// drain a shared inbox; an empty inbox would block while a deadline
    /// is armed and reads as end-of-stream otherwise. It dials to a
    /// fresh socket (no deadline) over the same inbox and counter.
    #[derive(Clone, Debug, Default)]
    struct CountingSocket {
        inbox: Arc<Mutex<VecDeque<u8>>>,
        deadline: Arc<Mutex<Option<Duration>>>,
        setsockopts: Arc<AtomicUsize>,
    }

    impl CountingSocket {
        fn deliver(&self, frame: &Frame) {
            let body = frame.encode();
            let mut inbox = self.inbox.lock().unwrap();
            inbox.extend((body.len() as u32).to_be_bytes());
            inbox.extend(body);
        }

        fn setsockopts(&self) -> usize {
            self.setsockopts.load(Ordering::SeqCst)
        }
    }

    impl Read for CountingSocket {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut inbox = self.inbox.lock().unwrap();
            if inbox.is_empty() && self.deadline.lock().unwrap().is_some() {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(inbox.len());
            for (dst, src) in buf.iter_mut().zip(inbox.drain(..n)) {
                *dst = src;
            }
            Ok(n)
        }
    }

    impl Write for CountingSocket {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Socket for CountingSocket {
        type Addr = CountingSocket;

        fn dial(addr: &Self::Addr) -> std::io::Result<Self> {
            Ok(CountingSocket {
                deadline: Arc::default(),
                ..addr.clone()
            })
        }

        fn try_clone(&self) -> std::io::Result<Self> {
            Ok(self.clone())
        }

        fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
            self.setsockopts.fetch_add(1, Ordering::SeqCst);
            *self.deadline.lock().unwrap() = timeout;
            Ok(())
        }

        fn set_nonblocking(&self, _nonblocking: bool) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A receive issues `setsockopt` only when the deadline it wants
    /// differs from the one armed: repeated timed receives arm once, a
    /// blocking receive disarms once, the armed value moves with `split`
    /// and resets on `reconnect`.
    #[test]
    fn deadlines_are_armed_only_when_they_change() {
        let sock = CountingSocket::default();
        let mut t = SocketTransport::new(sock.clone(), Some(sock.clone()));
        let window = Duration::from_millis(100);
        let expect = |t: &mut dyn FnMut() -> Result<Frame>, setsockopts: usize| {
            sock.deliver(&Frame::Ack);
            assert_eq!(t().unwrap(), Frame::Ack);
            assert_eq!(sock.setsockopts(), setsockopts);
        };
        expect(&mut || t.recv(), 0);
        expect(&mut || t.recv_timeout(window), 1);
        expect(&mut || t.recv_timeout(window), 1);
        expect(&mut || t.recv(), 2);
        expect(&mut || t.recv(), 2);
        expect(&mut || t.recv_timeout(window), 3);
        let err = t.recv_timeout(window).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "{err:?}");
        assert_eq!(
            sock.setsockopts(),
            3,
            "a timed-out receive keeps its deadline"
        );

        assert!(t.reconnect().unwrap());
        expect(&mut || t.recv_timeout(window), 4);

        let (_tx, mut rx) = t.split().expect("splits");
        expect(&mut || rx.recv_timeout(window), 4);
        expect(&mut || rx.recv(), 5);
    }
}
