//! # nrmi-core — Natural Remote Method Invocation
//!
//! The middleware core of this reproduction of *NRMI: Natural and
//! Efficient Middleware* (Tilevich & Smaragdakis, ICDCS 2003): RPC with
//! **call-by-copy-restore for arbitrary linked data structures**,
//! alongside call-by-copy, DCE-RPC-style partial restore, and
//! call-by-reference through remote pointers.
//!
//! The headline algorithm (paper §3) lives across three modules:
//! step 1 is [`nrmi_heap::LinearMap`]; steps 2–3 are the annotated
//! marshalling in [`protocol`]; steps 4–6 are [`restore::apply_restore`].
//! Everything else is the middleware that makes those steps a working
//! RPC system: [`Session`] for connected client/server pairs,
//! [`RemoteService`] for server objects, [`proxy`] for the
//! remote-pointer world, and [`profile`] for the simulated 2003-hardware
//! cost model behind the paper's tables.
//!
//! ## Choosing semantics
//!
//! As in the paper (§5.1), semantics are chosen per *type* via class
//! markers: `restorable()` classes pass by copy-restore, `serializable()`
//! by copy, `remote()` by reference. [`CallOptions`] can force a
//! semantics per call (the benchmarks run one workload under all four).
//!
//! ```
//! use nrmi_core::{FnService, NrmiError, Session};
//! use nrmi_heap::{ClassRegistry, HeapAccess, Value};
//!
//! # fn main() -> Result<(), NrmiError> {
//! let mut reg = ClassRegistry::new();
//! // class Cell implements java.rmi.Restorable { int value; }
//! let cell = reg.define("Cell").field_int("value").restorable().register();
//!
//! let mut session = Session::builder(reg.snapshot())
//!     .serve(
//!         "incrementor",
//!         Box::new(FnService::new(|_m, args, heap| {
//!             let cell = args[0].as_ref_id().ok_or_else(|| NrmiError::app("want ref"))?;
//!             let v = heap.get_field(cell, "value")?.as_int().unwrap_or(0);
//!             heap.set_field(cell, "value", Value::Int(v + 1))?;
//!             Ok(Value::Null)
//!         })),
//!     )
//!     .build();
//!
//! let cell_obj = session.heap().alloc(cell, vec![Value::Int(41)])?;
//! session.call("incrementor", "bump", &[Value::Ref(cell_obj)])?;
//! // The server's mutation was restored onto the caller's object:
//! assert_eq!(session.heap().get_field(cell_obj, "value")?, Value::Int(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod export;
pub mod interface;
pub mod lockcheck;
pub mod node;
pub mod profile;
pub mod protocol;
pub mod proxy;
pub mod reactor;
pub mod reliable;
pub mod restore;
pub mod semantics;
pub mod server;
pub mod service;
pub mod session;
pub mod trace;
pub mod verify;
pub mod warm;

pub use error::NrmiError;
pub use export::ExportTable;
pub use interface::{InterfaceDef, MethodSig, ParamType, TypedService};
pub use lockcheck::{
    allow_blocking, BlockingAllowance, LockClass, TrackedMutex, TrackedRwLock, WitnessSnapshot,
};
pub use node::{ClientNode, NodeHooks, NodeState, ServerNode};
pub use profile::{CostModel, JdkGeneration, NrmiFlavor, RuntimeProfile, WorkCounts};
pub use protocol::{
    client_apply_reply, client_invoke, client_invoke_on_object_with_stats, client_invoke_pipelined,
    client_invoke_with_stats, client_marshal_call, serve_connection, CallStats, Connection,
    PendingCall, PipelinedCall,
};
pub use proxy::{handle_callback, ProxyStats, RemoteHeapProxy};
pub use reactor::{reactor_classify, ReactorStep};
pub use reliable::{
    fresh_nonce, ReliableTransport, ReplyCache, ReplyDecision, RetryPolicy, RetryStats,
    REPLY_EVICTED,
};
pub use restore::{apply_restore, RestoreOutcome, RestoreStats};
pub use semantics::{CallOptions, PassMode};
pub use server::{serve_connection_pooled, ShardedReplyCache, SharedServer};
pub use service::{FnService, RemoteService};
pub use session::{RemoteSession, ServeHandle, ServerPool, Session, SessionBuilder, TcpSession};
pub use trace::{CallTrace, Tracer};
pub use warm::{
    client_evict_warm, client_invoke_warm_with_stats, new_lease_table, LeaseTable, WarmCaches,
    WarmSessions,
};

/// Result alias for middleware operations.
pub type Result<T> = std::result::Result<T, NrmiError>;
