//! The fine-grained shared server: what several connection threads
//! dispatch into *without* a one-big-lock [`ServerNode`].
//!
//! Funnelling every connection through one `Mutex<ServerNode>` (the
//! baseline `tables -- scaling` still measures, kept in `nrmi-bench`)
//! holds the lock across call execution — including mid-call callback
//! traffic to the calling client — so one stalled client freezes every
//! other connection (head-of-line blocking). This module splits that
//! state by how it is actually shared, and hosts the pooled and
//! pipelined *drivers* of the serve core; what a frame means is
//! [`Connection::step`]'s business, not theirs:
//!
//! * **Bindings** (name → service, class → service) are read-mostly:
//!   they live behind an [`RwLock`](crate::lockcheck::TrackedRwLock) and are
//!   snapshotted per connection. Each service body itself is `&mut` —
//!   the paper's §4.1 `synchronized`-equivalent dispatch — so it sits
//!   behind its *own* mutex ([`SharedService`]), held only for the
//!   invocation. Calls to *different* services never contend.
//! * **Heap, export/stub tables, codec scratch** are per-*connection*:
//!   each accepted connection gets a private [`NodeState`], so wire
//!   decode, call execution, and reply encode run with no lock other
//!   than the callee's service mutex. Copy-restore is stateless across
//!   calls (every call re-marshals its arguments), so confining call
//!   copies to the connection that made them preserves semantics — and
//!   a cold call's copy dies with the call, while disconnect reclaims
//!   what outlives calls (warm sessions, exports) wholesale instead of
//!   accreting garbage in a shared heap.
//! * **The reply cache** (at-most-once, PR 4) must stay global: a
//!   reconnect retransmits a call id on a *new* connection and must
//!   still find the recorded reply or the in-progress marker. It
//!   is a [`ShardedReplyCache`] — the one every [`ServerNode`] carries,
//!   handed by `Arc` to each connection node: N independently locked
//!   [`ReplyCache`] shards keyed by session nonce, so unrelated
//!   sessions do not contend and no shard lock is ever held across
//!   execution — the `begin`/`store` decide-mark-executing-store
//!   discipline is unchanged.
//!
//! What this does *not* provide: cross-call ordering between clients
//! (none was promised — the big lock serialized calls in arrival order,
//! which no correct client could observe), and cross-connection sharing
//! of server heap state for named services (no in-tree service relied
//! on it; services share state through their own captured fields, as
//! `synchronized` Java methods share fields of the remote object).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nrmi_heap::{ClassId, HeapAccess, SharedRegistry, Value};
use nrmi_transport::{
    Frame, MachineSpec, Transport, TransportError, TransportReceiver, TransportSender,
};

use crate::error::NrmiError;
use crate::lockcheck::{allow_blocking, LockClass, TrackedMutex, TrackedRwLock};
use crate::node::{NodeState, ServerNode};
use crate::protocol::{unexpected_frame, Connection};
use crate::reactor::ReactorStep;
use crate::reliable::{
    evicted_reply, ReplyCache, ReplyDecision, DEFAULT_REPLY_CACHE_BYTES, DEFAULT_REPLY_CACHE_NONCES,
};
use crate::service::RemoteService;

/// A service binding shared across connection threads: the service body
/// runs under its own mutex, the `synchronized`-method analogue. The
/// mutex is held for the duration of one invocation (including any
/// mid-call callbacks to the *calling* client), so concurrent calls to
/// the same service serialize — and calls to different services do not.
type ServiceHandle = Arc<TrackedMutex<Box<dyn RemoteService>>>;

fn service_handle(service: Box<dyn RemoteService>) -> ServiceHandle {
    Arc::new(TrackedMutex::new(LockClass::Service, service))
}

/// Per-connection adapter: implements [`RemoteService`] by locking the
/// shared binding for each invocation.
struct SharedService(ServiceHandle);

impl RemoteService for SharedService {
    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        heap: &mut dyn HeapAccess,
    ) -> Result<Value, NrmiError> {
        // Designed-in hold (DESIGN.md §3i): the service mutex stays
        // held across mid-call callbacks to the calling client — that
        // *is* the §4.1 synchronized-dispatch semantics — so the
        // witness records transport waits under it as accepted, not as
        // NRMI-L002 violations.
        let _allow =
            allow_blocking("service mutex held across mid-call callbacks by design (\u{a7}4.1)");
        self.0.lock().invoke(method, args, heap)
    }
}

/// Number of reply-cache shards. A power of two so the nonce hash
/// reduces with a mask; 16 is comfortably above the worker counts this
/// server runs with.
const REPLY_SHARDS: usize = 16;

/// The at-most-once reply cache, split into independently locked shards
/// keyed by session nonce. All traffic for one client session (one
/// nonce) lands on one shard, so the per-session decide/execute/store
/// discipline of [`ReplyCache`] is preserved verbatim; different
/// sessions usually hash to different shards and never contend.
///
/// No shard lock is ever held across call execution: `begin` classifies
/// and (when fresh) marks the id executing in one locked step, the call
/// runs lock-free, and `store` records the reply in a second locked
/// step. A duplicate racing in on another connection between the two
/// observes [`ReplyDecision::InProgress`] — exactly the PR 4 warm-path
/// discipline, now uniform for cold calls too.
#[derive(Debug)]
pub struct ShardedReplyCache {
    shards: Vec<TrackedMutex<ReplyCache>>,
    /// Cached replies across all shards, maintained on store/evict so
    /// [`len`](ShardedReplyCache::len) is one relaxed load instead of a
    /// sweep that takes all shard locks (which briefly serialized every
    /// connection behind a caller polling the size).
    entries: AtomicUsize,
}

impl Default for ShardedReplyCache {
    fn default() -> Self {
        ShardedReplyCache::with_limits(DEFAULT_REPLY_CACHE_BYTES, DEFAULT_REPLY_CACHE_NONCES)
    }
}

impl ShardedReplyCache {
    /// Creates a cache whose *total* budget across shards is `max_bytes`
    /// of encoded replies and `max_nonces` tracked sessions.
    pub fn with_limits(max_bytes: usize, max_nonces: usize) -> Self {
        let per_shard_bytes = (max_bytes / REPLY_SHARDS).max(1);
        let per_shard_nonces = (max_nonces / REPLY_SHARDS).max(1);
        ShardedReplyCache {
            shards: (0..REPLY_SHARDS)
                .map(|_| {
                    TrackedMutex::new(
                        LockClass::ReplyCacheShard,
                        ReplyCache::with_limits(per_shard_bytes, per_shard_nonces),
                    )
                })
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, nonce: u64) -> &TrackedMutex<ReplyCache> {
        // Fibonacci hash: session nonces are random 64-bit values, but
        // don't rely on their low bits alone.
        let ix = (nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (REPLY_SHARDS - 1);
        &self.shards[ix]
    }

    /// Classifies call id `(nonce, seq)` and, when fresh, marks it
    /// executing — one locked step on the nonce's shard.
    pub fn begin(&self, nonce: u64, seq: u64) -> ReplyDecision {
        self.shard(nonce).lock().begin(nonce, seq)
    }

    /// The at-most-once admit, the one place a serve path consults the
    /// cache: [`begin`](Self::begin)s `(nonce, seq)` and returns the
    /// step that disposes of a duplicate — replay the recorded reply,
    /// answer the evicted-reply error, or drop a duplicate of a call
    /// still executing — or `None` for a fresh call, which the caller
    /// now owns: execute it (or offload it) and [`store`](Self::store)
    /// the reply.
    pub(crate) fn admit(&self, nonce: u64, seq: u64) -> Option<ReactorStep> {
        let cached = match self.begin(nonce, seq) {
            ReplyDecision::Fresh => return None,
            ReplyDecision::InProgress => return Some(ReactorStep::Ignore),
            ReplyDecision::Replay(cached) => cached,
            ReplyDecision::Evicted => evicted_reply(),
        };
        Some(ReactorStep::reply(Frame::ReplyCached {
            nonce,
            seq,
            frame: Box::new(cached),
        }))
    }

    /// Records the reply for an executed call and clears its executing
    /// marker.
    pub fn store(&self, nonce: u64, seq: u64, reply: &Frame) {
        // One store can both insert and evict (byte cap, nonce cap), so
        // the global count moves by the shard's net length change,
        // measured under the shard lock where it is exact.
        let (before, after) = {
            let mut shard = self.shard(nonce).lock();
            let before = shard.len();
            shard.store(nonce, seq, reply);
            (before, shard.len())
        };
        if after >= before {
            self.entries.fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.entries.fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// Cached replies currently held, summed across shards — a relaxed
    /// atomic read. Concurrent stores make the value a snapshot, not a
    /// linearized sum, which is all a size probe can promise anyway.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no shard holds a cached reply.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Name and class bindings, fixed once the server is built: connection
/// setup snapshots them under a read lock of one [`TrackedRwLock`]
/// (class `bindings`).
struct Bindings {
    services: HashMap<String, ServiceHandle>,
    class_services: HashMap<ClassId, ServiceHandle>,
}

/// The lock-split shared server state: everything connection workers
/// share, and nothing they don't. Built from a configured
/// [`ServerNode`] with [`SharedServer::from_node`]; gives the node back
/// (services unwrapped, root state untouched) with
/// [`SharedServer::into_node`] once every worker has finished.
pub struct SharedServer {
    registry: SharedRegistry,
    machine: MachineSpec,
    bindings: TrackedRwLock<Bindings>,
    /// The global at-most-once reply cache (see [`ShardedReplyCache`]):
    /// the node's own, shared with every connection node this server
    /// mints.
    pub replies: Arc<ShardedReplyCache>,
    /// The root node state the server was built from, returned by
    /// [`SharedServer::into_node`]. Connection workers never touch it.
    root: TrackedMutex<Option<NodeState>>,
}

impl std::fmt::Debug for SharedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedServer")
            .field("services", &self.bindings.read().services.len())
            .finish()
    }
}

impl SharedServer {
    /// Splits a configured [`ServerNode`] into shared server state:
    /// each bound service moves behind its own mutex, the node's reply
    /// cache becomes every connection's, and the node state is kept
    /// aside for [`SharedServer::into_node`].
    pub fn from_node(node: ServerNode) -> Self {
        let ServerNode {
            state,
            services,
            class_services,
            replies,
            leases: _,
            stateless_calls: _,
        } = node;
        SharedServer {
            registry: state.heap.registry_handle().clone(),
            machine: state.machine.clone(),
            bindings: TrackedRwLock::new(
                LockClass::Bindings,
                Bindings {
                    services: services
                        .into_iter()
                        .map(|(name, svc)| (name, service_handle(svc)))
                        .collect(),
                    class_services: class_services
                        .into_iter()
                        .map(|(class, svc)| (class, service_handle(svc)))
                        .collect(),
                },
            ),
            replies,
            root: TrackedMutex::new(LockClass::NodeHeap, Some(state)),
        }
    }

    /// True if `name` is currently bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.bindings.read().services.contains_key(name)
    }

    /// Builds the private [`ServerNode`] a connection worker serves
    /// with: a fresh [`NodeState`] (own heap, export/stub tables, codec
    /// scratch — no lock needed on any of them) plus locking adapters
    /// for every shared service binding. A cold call on this node frees
    /// its server-side copy before it returns; exports, stubs and warm
    /// sessions outlive it.
    pub fn connection_node(&self) -> ServerNode {
        let state = NodeState::new(self.registry.clone(), self.machine.clone());
        let bindings = self.bindings.read();
        ServerNode {
            state,
            services: bindings
                .services
                .iter()
                .map(|(name, svc)| {
                    (
                        name.clone(),
                        Box::new(SharedService(Arc::clone(svc))) as Box<dyn RemoteService>,
                    )
                })
                .collect(),
            class_services: bindings
                .class_services
                .iter()
                .map(|(&class, svc)| {
                    (
                        class,
                        Box::new(SharedService(Arc::clone(svc))) as Box<dyn RemoteService>,
                    )
                })
                .collect(),
            replies: Arc::clone(&self.replies),
            // Each pooled connection has a private heap, so its warm
            // sessions never alias another connection's; a fresh table
            // per connection node is exact.
            leases: crate::warm::new_lease_table(),
            stateless_calls: true,
        }
    }

    /// True when cold calls may execute on pooled worker threads with
    /// their own per-worker node state. This requires a registry with no
    /// remote-marked classes: a reply containing a remote-marked object
    /// registers an export in whatever node marshals it, and an export
    /// created in a worker's private table would be unreachable from
    /// later calls on the connection's main node (the factory pattern
    /// would hand out dead stubs). Such schemas still pipeline — read-
    /// ahead and out-of-order writes apply — but execute on one thread.
    pub(crate) fn offloadable(&self) -> bool {
        !self.registry.iter().any(|(_, desc)| desc.flags().remote)
    }

    /// Reassembles the [`ServerNode`] this server was built from. Call
    /// only after every connection worker has finished (they hold
    /// references to the service bindings); a binding still referenced
    /// elsewhere is dropped from the returned node.
    pub fn into_node(self) -> ServerNode {
        let SharedServer {
            bindings,
            root,
            replies,
            ..
        } = self;
        let Bindings {
            services,
            class_services,
        } = bindings.into_inner();
        let state = root
            .into_inner()
            .expect("into_node consumes the root state once");
        let mut node = ServerNode {
            state,
            services: HashMap::new(),
            class_services: HashMap::new(),
            replies,
            leases: crate::warm::new_lease_table(),
            stateless_calls: false,
        };
        for (name, svc) in services {
            match Arc::try_unwrap(svc) {
                Ok(mutex) => {
                    node.services.insert(name, mutex.into_inner());
                }
                Err(_) => debug_assert!(false, "service {name:?} still referenced by a worker"),
            }
        }
        for (class, svc) in class_services {
            match Arc::try_unwrap(svc) {
                Ok(mutex) => {
                    node.class_services.insert(class, mutex.into_inner());
                }
                Err(_) => debug_assert!(false, "class service still referenced by a worker"),
            }
        }
        node
    }
}

/// Serves one connection against the lock-split [`SharedServer`] until
/// the peer disconnects or sends `Shutdown`: mints a private connection
/// node and runs the ordinary drivers over it. The connection's heap,
/// warm caches, and codec scratch are private, so a stalled client —
/// even one blocked mid-call inside a callback — holds nothing another
/// connection waits on except the mutex of the service it is executing
/// in.
///
/// A connection starts **serial** — this thread receives a request,
/// steps it and sends the reply, the one thread a depth-1 client needs
/// — and stays serial until the peer pipelines: when a second request is
/// already complete in the read-ahead behind the one just received, the
/// connection switches, for good, to the **pipelined** driver with both
/// requests queued. There a reader keeps draining requests while calls
/// execute, a writer thread puts each reply on the wire the moment it is
/// ready (out of order, by call id), and — for schemas with no
/// remote-marked classes — a small worker pool executes tagged cold
/// calls concurrently, so a client that keeps N calls in flight pays one
/// round trip for the batch, not N. A peer whose pipelined requests
/// never share a read stays serial: it loses the overlap, never a reply.
/// Transports that cannot [split](Transport::split) stay serial.
///
/// # Errors
/// Returns transport errors other than orderly disconnect.
pub fn serve_connection_pooled(
    shared: &SharedServer,
    transport: &mut dyn Transport,
) -> Result<(), NrmiError> {
    serve_connection_escalated(shared, transport, Vec::new())
}

/// [`serve_connection_pooled`] for a connection the reactor escalated
/// off its readiness loop: the frames it read ahead of the escalation
/// trigger are served first (in arrival order, serially), then the
/// transport — restored to blocking mode by the reactor — continues
/// under the pooled discipline. The connection node and warm caches are
/// created here, lazily: reactor-owned connections carry no node state
/// until they need exclusive traffic.
pub(crate) fn serve_connection_escalated(
    shared: &SharedServer,
    transport: &mut dyn Transport,
    stash: Vec<Frame>,
) -> Result<(), NrmiError> {
    let mut node = shared.connection_node();
    let mut warm = crate::warm::WarmCaches::with_leases(node.leases.clone());
    let mut conn = Connection::new(&mut node, &mut warm);
    let result = drive(shared, &mut conn, transport, stash);
    // Disconnect releases the connection's cached warm-session graphs;
    // the rest of the private heap (cold-call copies included) goes
    // with the node itself, so a long-lived server does not accumulate
    // call copies across clients.
    conn.release();
    result
}

/// Replays `stash` through the serial driver, then serves serially until
/// the peer pipelines (see [`serve_connection_pooled`]). The probe is a
/// zero-deadline receive: a frame already there, else `Timeout` — it
/// never waits, and on the socket transport it costs no syscall.
fn drive(
    shared: &SharedServer,
    conn: &mut Connection<'_>,
    transport: &mut dyn Transport,
    stash: Vec<Frame>,
) -> Result<(), NrmiError> {
    for frame in stash {
        if !conn.serve_frame(transport, frame)? {
            return Ok(());
        }
    }
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(TransportError::Disconnected) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let next = match transport.recv_timeout(Duration::ZERO) {
            Ok(next) => next,
            // Nothing behind it yet, or nothing ever: serve it; the next
            // receive reports a disconnect.
            Err(TransportError::Timeout | TransportError::Disconnected) => {
                if !conn.serve_frame(transport, frame)? {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return conn.serve_frame(transport, frame).and(Err(e.into())),
        };
        if let Some((sender, receiver)) = transport.split() {
            let stash = VecDeque::from([frame, next]);
            return serve_connection_pipelined(shared, conn, sender, receiver, stash);
        }
        for frame in [frame, next] {
            if !conn.serve_frame(transport, frame)? {
                return Ok(());
            }
        }
    }
}

/// Workers executing tagged cold calls concurrently for one pipelined
/// connection. Small on purpose: the win is overlapping execution with
/// the network, not saturating cores per client.
const PIPELINE_WORKERS: usize = 4;

/// Replies (and callback frames) queued for the writer thread before
/// producers block. A client that stops reading fills the socket
/// buffer, then the writer blocks in `send`, then this queue fills,
/// then the reader and workers block — so a slow reader backpressures
/// its own request stream instead of growing server memory without
/// bound (each queued frame can be a full reply graph).
const PIPELINE_REPLY_QUEUE: usize = 64;

/// Tagged calls queued for pipeline workers before the reader blocks.
/// Bounds read-ahead: the reader stops pulling requests off the socket
/// once the workers are this far behind.
const PIPELINE_JOB_QUEUE: usize = 64;

/// A tagged request queued for a pipeline worker.
type PipelineJob = (u64, u64, Frame);

/// Calls a pipeline worker may execute out of order against its own
/// node: cold named-service calls under a copy semantics. Remote-ref
/// calls interleave callbacks with the reply stream, warm calls mutate
/// the connection's cache generations, and object calls address the
/// connection node's export table — all of those stay exclusive on the
/// connection thread.
pub(crate) fn is_pipelineable(frame: &Frame) -> bool {
    match frame {
        Frame::CallRequest { mode, .. } => {
            crate::semantics::wire_mode_bits(*mode) != crate::semantics::MODE_REMOTE_REF
        }
        _ => false,
    }
}

/// The transport handed to pipeline workers: their calls are gated to
/// never need mid-call traffic, so any use is a bug surfaced as an
/// in-band call error rather than a hang or a cross-thread frame steal.
pub(crate) struct NoCallbackTransport;

impl Transport for NoCallbackTransport {
    fn send(&mut self, _frame: &Frame) -> Result<(), TransportError> {
        Err(TransportError::Io(std::io::Error::other(
            "remote-reference callbacks cannot cross a pipelined worker",
        )))
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        Err(TransportError::Io(std::io::Error::other(
            "remote-reference callbacks cannot cross a pipelined worker",
        )))
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
        self.recv()
    }
}

/// Exclusive-call I/O bridge for the pipelined loop: sends go through
/// the writer thread (keeping the sender half single-owner), receives
/// pull from the connection's receiver half, and any frame that is not
/// a callback reply is stashed for the main loop to process once the
/// exclusive call finishes — pipelined requests keep arriving mid-call
/// without getting lost or misread as callback answers.
struct ConnIo<'a> {
    writer_tx: &'a mpsc::SyncSender<Frame>,
    receiver: &'a mut dyn TransportReceiver,
    stash: &'a mut VecDeque<Frame>,
}

/// Frames a client's callback server sends back to a mid-call proxy
/// (see [`crate::proxy::handle_callback`]). Everything else arriving
/// during an exclusive call is read-ahead traffic for the main loop.
fn is_callback_reply(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::ValueReply(_)
            | Frame::Ack
            | Frame::CountReply(_)
            | Frame::ClassReply(_)
            | Frame::ErrorReply { .. }
    )
}

impl Transport for ConnIo<'_> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.writer_tx
            .send(frame.clone())
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        loop {
            let frame = self.receiver.recv()?;
            if is_callback_reply(&frame) {
                return Ok(frame);
            }
            self.stash.push_back(frame);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let frame = self.receiver.recv_timeout(deadline - now)?;
            if is_callback_reply(&frame) {
                return Ok(frame);
            }
            self.stash.push_back(frame);
        }
    }
}

/// The pipelined driver (see [`serve_connection_pooled`]): reader on
/// this thread, replies through a dedicated writer thread, tagged cold
/// calls offloaded to [`PIPELINE_WORKERS`] when the schema allows.
/// `stash` holds requests already received, served first.
fn serve_connection_pipelined(
    shared: &SharedServer,
    conn: &mut Connection<'_>,
    mut sender: Box<dyn TransportSender>,
    mut receiver: Box<dyn TransportReceiver>,
    stash: VecDeque<Frame>,
) -> Result<(), NrmiError> {
    // Both queues are bounded: a send on a full queue blocks the
    // producer, propagating a stalled client back to the reader instead
    // of buffering replies without limit (see PIPELINE_REPLY_QUEUE).
    let (writer_tx, writer_rx) = mpsc::sync_channel::<Frame>(PIPELINE_REPLY_QUEUE);
    let writer_err: TrackedMutex<Option<TransportError>> =
        TrackedMutex::new(LockClass::SendQueue, None);
    let workers = if shared.offloadable() {
        PIPELINE_WORKERS
    } else {
        0
    };
    let (job_tx, job_rx) = mpsc::sync_channel::<PipelineJob>(PIPELINE_JOB_QUEUE);
    let job_rx = TrackedMutex::new(LockClass::ReactorQueue, job_rx);
    let result = std::thread::scope(|scope| {
        let writer_err = &writer_err;
        scope.spawn(move || {
            // The writer: sole owner of the send half. It blocks for
            // the first reply, then greedily drains whatever else has
            // queued behind it and flushes the whole train with one
            // send_batch — one vectored write instead of a syscall per
            // reply. Flushing on queue-drain (rather than per-reply)
            // batches exactly when the connection is busy and adds no
            // latency when it is not: an empty queue means the one
            // reply goes out immediately.
            let mut train: Vec<Frame> = Vec::with_capacity(PIPELINE_REPLY_QUEUE);
            while let Ok(frame) = writer_rx.recv() {
                train.clear();
                train.push(frame);
                while train.len() < PIPELINE_REPLY_QUEUE {
                    match writer_rx.try_recv() {
                        Ok(next) => train.push(next),
                        Err(_) => break,
                    }
                }
                let refs: Vec<&Frame> = train.iter().collect();
                if let Err(e) = sender.send_batch(&refs) {
                    *writer_err.lock() = Some(e);
                    // Drain without sending: producers must not block
                    // on a dead connection.
                    while writer_rx.recv().is_ok() {}
                    return;
                }
            }
        });
        for _ in 0..workers {
            let worker_writer = writer_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || {
                // Per-worker private node state, the same isolation a
                // connection gets — workers of one connection contend
                // only on service mutexes and reply-cache shards.
                let mut node = shared.connection_node();
                let mut warm = crate::warm::WarmCaches::with_leases(node.leases.clone());
                let mut conn = Connection::new(&mut node, &mut warm);
                loop {
                    let job = job_rx.lock().recv();
                    let Ok((nonce, seq, call)) = job else {
                        break;
                    };
                    let reply = conn.execute(&mut NoCallbackTransport, nonce, seq, call);
                    let _ = worker_writer.send(reply);
                }
                conn.release();
            });
        }
        conn.offload = workers > 0;
        let result = pipelined_recv_loop(conn, receiver.as_mut(), stash, &writer_tx, &job_tx);
        // Reader done: closing the job queue drains the workers (they
        // finish queued calls and push the replies), and closing our
        // writer handle lets the writer exit once the last worker drops
        // its clone. The scope joins everything.
        drop(job_tx);
        drop(writer_tx);
        result
    });
    match result {
        // An error on the writer's half is the connection going down
        // mid-reply; a plain disconnect there is as orderly as one on
        // the read side.
        Ok(()) => match writer_err.into_inner() {
            Some(TransportError::Disconnected) | None => Ok(()),
            Some(e) => Err(e.into()),
        },
        err => err,
    }
}

/// Reader side of the pipelined driver: step each frame, queue what it
/// answers to the writer and what it offloads to the workers. Whatever
/// the step does not offload it has already executed, exclusively and
/// in arrival order, on this thread.
fn pipelined_recv_loop(
    conn: &mut Connection<'_>,
    receiver: &mut dyn TransportReceiver,
    // Requests received before the loop started, and frames that arrive
    // while an exclusive call waits on its callback replies; processed
    // before reading the socket again.
    mut stash: VecDeque<Frame>,
    writer_tx: &mpsc::SyncSender<Frame>,
    job_tx: &mpsc::SyncSender<PipelineJob>,
) -> Result<(), NrmiError> {
    loop {
        let frame = match stash.pop_front() {
            Some(frame) => frame,
            None => match receiver.recv() {
                Ok(frame) => frame,
                Err(TransportError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.into()),
            },
        };
        let mut io = ConnIo {
            writer_tx,
            receiver: &mut *receiver,
            stash: &mut stash,
        };
        match conn.step(&mut io, frame) {
            ReactorStep::Reply { pushes, reply } => {
                // A send into the writer channel only fails after the
                // writer hit a connection error; `writer_err` carries
                // the cause, so stop cleanly.
                for frame in pushes.into_iter().chain(Some(reply)) {
                    if writer_tx.send(frame).is_err() {
                        return Ok(());
                    }
                }
            }
            ReactorStep::Offload { nonce, seq, call } => {
                // Cannot fail while this loop holds `job_tx`.
                let _ = job_tx.send((nonce, seq, call));
            }
            ReactorStep::Ignore => {}
            ReactorStep::Close => return Ok(()),
            ReactorStep::Escalate(other) => return Err(unexpected_frame(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(tag: u8) -> Frame {
        Frame::CallReply {
            payload: vec![tag; 16],
        }
    }

    #[test]
    fn sharded_len_counts_without_locking_shards() {
        let cache = ShardedReplyCache::with_limits(64 << 20, 1 << 16);
        assert!(cache.is_empty());
        cache.store(1, 0, &reply(1));
        cache.store(1, 1, &reply(2));
        cache.store(2, 0, &reply(3));
        assert_eq!(cache.len(), 3);
        // Idempotent re-store does not double count.
        cache.store(1, 0, &reply(1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn sharded_len_tracks_evictions() {
        // Total budget 16 shards × 1 byte: every store immediately
        // evicts down to one entry per shard, so the counter must move
        // by net change, not by insertions.
        let cache = ShardedReplyCache::with_limits(16, 16);
        for nonce in 0..64u64 {
            cache.store(nonce, 0, &reply(nonce as u8));
        }
        let counted = cache.len();
        let actual: usize = cache.shards.iter().map(|s| s.lock().len()).sum();
        assert_eq!(counted, actual, "atomic count must match shard contents");
        assert!(counted <= 16, "byte caps keep at most one entry per shard");
    }

    #[test]
    fn sharded_len_is_consistent_under_concurrent_stores() {
        let cache = ShardedReplyCache::with_limits(64 << 20, 1 << 16);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        // Distinct (nonce, seq) per store across threads.
                        cache.store(t * 1000 + i, i, &reply(t as u8));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
        let actual: usize = cache.shards.iter().map(|s| s.lock().len()).sum();
        assert_eq!(cache.len(), actual);
        assert!(!cache.is_empty());
    }

    /// A client that floods calls but never reads replies must not grow
    /// server memory without bound: the bounded reply and job queues
    /// propagate the stall back to the reader, which stops consuming
    /// frames once `PIPELINE_JOB_QUEUE + PIPELINE_REPLY_QUEUE` plus the
    /// threads' in-hand frames (including the writer's drained train,
    /// at most `PIPELINE_REPLY_QUEUE` more) are outstanding.
    #[test]
    fn slow_reader_bounds_pipelined_consumption() {
        use std::sync::atomic::AtomicBool;

        /// Write half modeling a client that never drains replies: the
        /// first send parks on a gate; once the gate opens, every send
        /// reports the connection gone so the loop unwinds.
        struct StalledSender {
            gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
        }
        impl TransportSender for StalledSender {
            fn send(&mut self, _frame: &Frame) -> Result<(), TransportError> {
                let (lock, cvar) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                Err(TransportError::Disconnected)
            }
        }

        /// Read half with an infinite supply of fresh tagged calls,
        /// counting how many the server actually consumed.
        struct FloodReceiver {
            stop: Arc<AtomicBool>,
            consumed: Arc<AtomicUsize>,
            seq: u64,
        }
        impl TransportReceiver for FloodReceiver {
            fn recv(&mut self) -> Result<Frame, TransportError> {
                if self.stop.load(Ordering::SeqCst) {
                    return Err(TransportError::Disconnected);
                }
                self.seq += 1;
                self.consumed.fetch_add(1, Ordering::SeqCst);
                Ok(Frame::Tagged {
                    nonce: 7,
                    seq: self.seq,
                    // An unknown service still runs the full
                    // begin/execute/store/reply path (as an error
                    // reply), which is all backpressure sees.
                    frame: Box::new(Frame::CallRequest {
                        service: "no-such-service".into(),
                        method: "m".into(),
                        mode: 0,
                        payload: Vec::new(),
                    }),
                })
            }
            fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
                self.recv()
            }
        }

        let registry = nrmi_heap::ClassRegistry::new().snapshot();
        let shared = Arc::new(SharedServer::from_node(ServerNode::new(
            registry,
            MachineSpec::fast(),
        )));
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let consumed = Arc::new(AtomicUsize::new(0));

        let server_thread = {
            let shared = Arc::clone(&shared);
            let sender = Box::new(StalledSender {
                gate: Arc::clone(&gate),
            });
            let receiver = Box::new(FloodReceiver {
                stop: Arc::clone(&stop),
                consumed: Arc::clone(&consumed),
                seq: 0,
            });
            std::thread::spawn(move || {
                let mut node = shared.connection_node();
                let mut warm = crate::warm::WarmCaches::new();
                let mut conn = Connection::new(&mut node, &mut warm);
                serve_connection_pipelined(&shared, &mut conn, sender, receiver, VecDeque::new())
            })
        };

        // Let the flood run to its stall. Consumption must plateau: two
        // samples far apart agree, and the total stays within the sum
        // of the queue bounds plus one frame in each thread's hands —
        // plus one full train (up to PIPELINE_REPLY_QUEUE frames) the
        // writer greedily drained before blocking in send_batch.
        let budget = PIPELINE_JOB_QUEUE + 2 * PIPELINE_REPLY_QUEUE + PIPELINE_WORKERS + 8;
        std::thread::sleep(Duration::from_millis(300));
        let sample1 = consumed.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(300));
        let sample2 = consumed.load(Ordering::SeqCst);
        assert!(
            sample2 <= budget,
            "slow reader let the server consume {sample2} frames (budget {budget})"
        );
        assert_eq!(
            sample1, sample2,
            "consumption must plateau once the bounded queues fill"
        );

        // Unwind: stop the flood, then open the gate — the writer sees
        // Disconnected, drains the reply queue, and everyone exits.
        stop.store(true, Ordering::SeqCst);
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        server_thread
            .join()
            .expect("serve thread")
            .expect("clean disconnect");
    }
}
