//! # nrmi-transport — network substrate for NRMI
//!
//! The paper's evaluation ran on two Sun workstations (750 MHz and
//! 440 MHz) joined by a 100 Mbps LAN. This crate reproduces that
//! environment in two layers:
//!
//! * **Real transports** — [`ChannelTransport`] (in-process, crossbeam
//!   channels) and the one framed-socket transport
//!   ([`socket::SocketTransport`], named [`TcpTransport`] over `std::net`
//!   and [`UdsTransport`] over Unix-domain sockets) carry the protocol
//!   [`Frame`]s for actual execution. Every socket send is one vectored
//!   frame train and every receive goes through one read-ahead; there is
//!   no switch that selects another wire.
//! * **Simulated time** — a [`SimEnv`] deterministically accounts CPU
//!   microseconds (scaled per [`MachineSpec`]) and transfer microseconds
//!   (latency + bytes over a [`LinkSpec`]'s bandwidth). Benchmarks read
//!   the simulated clock to regenerate the paper's tables with the
//!   original environment's proportions, independent of the host machine.
//!
//! The two layers are independent: transports work without a `SimEnv`
//! (no accounting). With one, the in-process channel charges each frame's
//! transfer as it is sent; the middleware's CPU is not charged as it
//! runs — each node counts its work, and the simulated session prices
//! the counts into the `SimEnv` once the run is over.

// Denied (not forbidden) so the `poller` module can scope an allow for
// its two lines of `poll(2)` FFI; everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod framed;
mod listen;

pub mod blocking;
pub mod endpoint;
pub mod fault;
pub mod message;
#[cfg(unix)]
pub mod poller;
pub mod simnet;
pub mod socket;
pub mod tcp;
#[cfg(unix)]
pub mod uds;

pub use blocking::blocking_region;
#[cfg(feature = "lockcheck")]
pub use blocking::set_blocking_hook;
pub use endpoint::{
    channel_pair, ChannelTransport, Listener, Transport, TransportReceiver, TransportSender,
};
#[cfg(unix)]
pub use endpoint::{PollableListener, ReactorIo};
pub use error::TransportError;
pub use fault::{Fault, FaultPlan, FaultyTransport};
pub use framed::{bytes_copied, wire_syscalls, SendQueue};
pub use message::{decode_rvals, encode_rvals, Frame, RVal};
#[cfg(unix)]
pub use poller::{Event, Interest, Poller, Token, Waker};
pub use simnet::{LinkSpec, MachineSpec, SimEnv, SimReport};
pub use tcp::{TcpListenerTransport, TcpTransport};
#[cfg(unix)]
pub use uds::{UdsListenerTransport, UdsTransport};

/// Result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;
