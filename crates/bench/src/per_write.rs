//! The per-write wire: the baseline the batched wire is measured
//! against.
//!
//! Before frame trains, every frame was encoded contiguously (payload
//! memmoved into the frame body), shipped with its own `write`, and
//! picked off the socket with a prefix read and a body read.
//! [`PerWriteTcp`] is that wire, kept here — not behind a switch in the
//! production transport — so `tables -- scaling` and `tables -- hotpath`
//! can run the same workload over both. It meters itself: the
//! production counters only see the production wire.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use nrmi_transport::tcp::MAX_FRAME;
use nrmi_transport::{
    Frame, TcpListenerTransport, TcpTransport, Transport, TransportError, TransportReceiver,
    TransportSender,
};
use nrmi_wire::ByteWriter;

type Result<T> = std::result::Result<T, TransportError>;

/// A connected loopback pair `(client, server)` on the production wire
/// — what [`PerWriteTcp::loopback_pair`] is compared against.
pub fn tcp_loopback_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let client = TcpTransport::connect(listener.local_addr().expect("addr")).expect("connect");
    (client, listener.accept().expect("accept"))
}

/// What one loopback pair of [`PerWriteTcp`] ends did, both directions.
#[derive(Debug, Default)]
pub struct WireCounts {
    /// `write` syscalls.
    pub writes: AtomicU64,
    /// `read` syscalls.
    pub reads: AtomicU64,
    /// Payload bytes memmoved into contiguous frame bodies.
    pub copied: AtomicU64,
}

/// One end of a TCP connection speaking NRMI's framing one write and
/// two reads per frame.
#[derive(Debug)]
pub struct PerWriteTcp {
    stream: TcpStream,
    counts: Arc<WireCounts>,
    buf: Vec<u8>,
}

impl PerWriteTcp {
    fn new(stream: TcpStream, counts: &Arc<WireCounts>) -> Self {
        PerWriteTcp {
            stream,
            counts: Arc::clone(counts),
            buf: Vec::new(),
        }
    }

    /// A connected loopback pair `(client, server)` and the counters
    /// both ends (and their split halves) report into.
    pub fn loopback_pair() -> ((Self, Self), Arc<WireCounts>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let counts = Arc::new(WireCounts::default());
        let end = |stream: TcpStream| {
            stream.set_nodelay(true).expect("nodelay");
            PerWriteTcp::new(stream, &counts)
        };
        let client =
            end(TcpStream::connect(listener.local_addr().expect("addr")).expect("connect"));
        let server = end(listener.accept().expect("accept").0);
        ((client, server), counts)
    }

    fn try_clone(&self) -> Option<Box<Self>> {
        let stream = self.stream.try_clone().ok()?;
        Some(Box::new(PerWriteTcp::new(stream, &self.counts)))
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<()> {
        let mut w = ByteWriter::with_buffer(std::mem::take(&mut self.buf));
        w.put_slice(&[0u8; 4]);
        frame.encode_into(&mut w);
        self.buf = w.into_bytes();
        let body_len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&body_len.to_be_bytes());
        self.counts
            .copied
            .fetch_add(frame.payload_len() as u64, Relaxed);
        self.counts.writes.fetch_add(1, Relaxed);
        Ok(self.stream.write_all(&self.buf)?)
    }

    /// One counted `read`; EOF is a disconnect, an expired deadline a
    /// timeout.
    fn read_some(&mut self, dest: &mut [u8]) -> Result<usize> {
        self.counts.reads.fetch_add(1, Relaxed);
        match self.stream.read(dest) {
            Ok(0) => Err(TransportError::Disconnected),
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(TransportError::Timeout)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn read_full(&mut self, mut dest: &mut [u8]) -> Result<()> {
        while !dest.is_empty() {
            let n = self.read_some(dest)?;
            dest = &mut dest[n..];
        }
        Ok(())
    }

    /// Whether a frame's first bytes already wait in the socket: one
    /// non-blocking `peek`, counted as a read. O_NONBLOCK is shared by
    /// every handle of the socket, so this runs only where no other
    /// thread writes it — the serial driver's probe for a pipelining
    /// peer, which must see one on this wire as on the batched wire.
    fn frame_waiting(&mut self) -> Result<bool> {
        self.stream.set_nonblocking(true)?;
        self.counts.reads.fetch_add(1, Relaxed);
        let peeked = self.stream.peek(&mut [0u8; 1]);
        self.stream.set_nonblocking(false)?;
        match peeked {
            // End of stream counts as waiting: the read reports it.
            Ok(_) => Ok(true),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// `timeout` bounds the wait for a frame's first bytes only: once a
    /// frame has started, the rest is read blocking, so a deadline can
    /// never fire mid-frame and desynchronize the stream. A zero
    /// deadline reads a frame whose first bytes are already here and
    /// answers `Timeout` otherwise.
    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Frame> {
        let timeout = match timeout {
            Some(t) if t.is_zero() => {
                if !self.frame_waiting()? {
                    return Err(TransportError::Timeout);
                }
                None
            }
            other => other,
        };
        let mut prefix = [0u8; 4];
        self.stream.set_read_timeout(timeout)?;
        let got = self.read_some(&mut prefix);
        if timeout.is_some() {
            self.stream.set_read_timeout(None)?;
        }
        self.read_full(&mut prefix[got?..])?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(TransportError::FrameTooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        let mut body = vec![0u8; len];
        self.read_full(&mut body)?;
        Frame::decode(&body)
    }
}

impl Transport for PerWriteTcp {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.send_frame(frame)
    }

    fn recv(&mut self) -> Result<Frame> {
        self.recv_frame(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.recv_frame(Some(timeout))
    }

    /// Stateless between frames, so each half is just another handle —
    /// the server takes the same pipelined driver as on the batched wire.
    fn split(&mut self) -> Option<(Box<dyn TransportSender>, Box<dyn TransportReceiver>)> {
        Some((self.try_clone()?, self.try_clone()?))
    }
}

impl TransportSender for PerWriteTcp {
    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.send_frame(frame)
    }
}

impl TransportReceiver for PerWriteTcp {
    fn recv(&mut self) -> Result<Frame> {
        self.recv_frame(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame> {
        self.recv_frame(Some(timeout))
    }
}
