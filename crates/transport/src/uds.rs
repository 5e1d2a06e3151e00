//! Unix-domain sockets: the [`socket`](crate::socket) transport for
//! same-host IPC — the natural fit for the paper's Table 3
//! configuration (two runtimes on one machine, no network adapter in
//! the path).

#![cfg(unix)]

use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::socket::{Acceptor, Socket, SocketListener, SocketTransport};
use crate::{Result, TransportError};

/// A connected Unix-domain-socket frame transport.
pub type UdsTransport = SocketTransport<UnixStream>;

/// A listener accepting [`UdsTransport`] connections at a filesystem
/// path. The socket file is removed on drop.
pub type UdsListenerTransport = SocketListener<BoundPath>;

impl Socket for UnixStream {
    type Addr = PathBuf;

    fn dial(path: &PathBuf) -> std::io::Result<Self> {
        UnixStream::connect(path)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

/// A `UnixListener` that owns its socket file: the kernel never unlinks
/// the path, so dropping the listener does.
#[derive(Debug)]
pub struct BoundPath {
    listener: UnixListener,
    path: PathBuf,
}

impl Drop for BoundPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl AsRawFd for BoundPath {
    fn as_raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

impl Acceptor for BoundPath {
    type Stream = UnixStream;

    fn accept(&self) -> std::io::Result<UnixStream> {
        Ok(self.listener.accept()?.0)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }
}

impl UdsTransport {
    /// Connects to a listening peer at `path`.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(path: impl AsRef<Path>) -> Result<Self> {
        SocketTransport::dial(path.as_ref().to_path_buf())
    }
}

impl UdsListenerTransport {
    /// Binds at `path`, unlinking a *stale* socket file first.
    ///
    /// A crashed server leaves its socket file behind (the kernel never
    /// unlinks it), and a plain `bind` on that path fails with
    /// `AddrInUse`. Unlinking unconditionally would instead silently
    /// steal the path from a *live* server. A connect probe tells the
    /// two apart: only a socket someone is accepting on answers.
    ///
    /// # Errors
    /// `AddrInUse` if a live server already accepts on `path`; otherwise
    /// propagates socket errors.
    pub fn bind(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            match UnixStream::connect(&path) {
                Ok(_probe) => {
                    return Err(TransportError::Io(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("{} is in use by a live server", path.display()),
                    )));
                }
                Err(_) => {
                    // Nobody answers: a stale file from a crashed
                    // server (or a non-socket squatter bind will still
                    // reject). Reclaim the path.
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(SocketListener {
            acceptor: BoundPath {
                listener: UnixListener::bind(&path)?,
                path,
            },
        })
    }

    /// The bound filesystem path.
    pub fn path(&self) -> &Path {
        &self.acceptor.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Transport;
    use crate::message::Frame;
    use std::thread;

    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nrmi-uds-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn socket_file_removed_on_drop() {
        let path = socket_path("cleanup");
        {
            let _listener = UdsListenerTransport::bind(&path).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn bind_reclaims_stale_socket_after_crash() {
        let path = socket_path("stale");
        // Simulate a crashed server: raw std bind leaves the socket
        // file behind on drop (std never unlinks it).
        {
            let _crashed = UnixListener::bind(&path).unwrap();
        }
        assert!(path.exists(), "crash leaves the socket file");
        // A plain re-bind would fail with AddrInUse; ours must probe,
        // find nobody home, unlink, and bind.
        let listener = UdsListenerTransport::bind(&path).unwrap();
        let server = thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            t.send(&Frame::Ack).unwrap();
        });
        let mut client = UdsTransport::connect(&path).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Ack);
        server.join().unwrap();
    }

    #[test]
    fn bind_refuses_to_clobber_live_server() {
        let path = socket_path("live");
        let live = UdsListenerTransport::bind(&path).unwrap();
        let err = UdsListenerTransport::bind(&path).unwrap_err();
        match err {
            TransportError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
            other => panic!("expected AddrInUse, got {other:?}"),
        }
        // The live listener still works afterwards.
        assert!(path.exists());
        drop(live);
    }
}
