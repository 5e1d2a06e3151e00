//! TCP: the [`socket`](crate::socket) transport over `std::net`.
//!
//! The simulated environment regenerates the paper's numbers; this
//! transport demonstrates that the middleware genuinely distributes —
//! client and server can run in different processes or on different
//! machines.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

pub use crate::framed::MAX_FRAME;
use crate::socket::{Acceptor, Socket, SocketListener, SocketTransport};
use crate::Result;

/// A connected TCP frame transport.
pub type TcpTransport = SocketTransport<TcpStream>;

/// A listener that accepts [`TcpTransport`] connections.
pub type TcpListenerTransport = SocketListener<TcpListener>;

/// Small frames must leave at once, not wait out Nagle's algorithm.
fn configured(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Socket for TcpStream {
    type Addr = SocketAddr;

    fn dial(addr: &SocketAddr) -> std::io::Result<Self> {
        configured(TcpStream::connect(addr)?)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;

    fn accept(&self) -> std::io::Result<TcpStream> {
        configured(TcpListener::accept(self)?.0)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }
}

impl TcpTransport {
    /// Connects to a listening peer.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        // `addr` may resolve to several addresses; std tries each, and
        // a reconnect re-dials the one that answered.
        let stream = configured(TcpStream::connect(addr)?)?;
        let peer = stream.peer_addr().ok();
        Ok(SocketTransport::new(stream, peer))
    }
}

impl TcpListenerTransport {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self> {
        Ok(SocketListener {
            acceptor: TcpListener::bind(addr)?,
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.acceptor.local_addr()?)
    }
}
