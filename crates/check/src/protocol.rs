//! Protocol model checker for the NRMI call protocol (`NRMI-P00x`).
//!
//! [`model_check`] exhaustively enumerates every bounded sequence of
//! protocol actions against the **real** implementation: the production
//! client ([`client_invoke_warm_with_stats`], the split-phase
//! [`client_marshal_call`] / [`client_apply_reply`], a real
//! [`ReliableTransport`]) on one side, the serve core's
//! [`Connection::step`] on the other, joined by in-process links instead
//! of threads. Each sequence runs a fresh world from scratch, so every
//! prefix of every enumerated sequence is exercised.
//!
//! ## One fixture, seven alphabets
//!
//! Every world is built from one fixture (`Fixture`):
//!
//! * **endpoints** — each a real [`ClientNode`] holding a three-node tree
//!   and a private local oracle twin of it, behind a wire: the bare link,
//!   the link wrapped in a real `ReliableTransport`, or (the reactor) the
//!   tagged frames it sends by hand;
//! * **one server arrangement** — one [`ServerNode`] every link steps
//!   (exclusive with one endpoint; with two, a shared graph whose warm
//!   caches share the node's lease table), or one connection node per
//!   link minted by one [`SharedServer`] (the pooled driver's and the
//!   reactor pool's arrangement);
//! * **one link** per connection, which steps each frame through
//!   [`Connection::step`] and queues the replies, carrying single-shot
//!   fault flags; an empty queue is `Disconnected` (the server produced
//!   no reply — a deadlock, made finite) or, on the lossy links the retry
//!   worlds use, a `Timeout` the retry loop owns;
//! * **one set of checks**: heap validity and one service execution
//!   counter after every action, and one oracle after every call that
//!   judges the return value and every graph of the calling endpoint
//!   against its twin (a client heap changes only through its own
//!   endpoint's actions, so that is where a divergence first shows).
//!
//! A world is an alphabet, a `step` that maps each action onto fixture
//! operations, and only the invariant no other world has. The fixture
//! takes actions one at a time and does not care where they come from.
//!
//! | world | alphabet | depth | endpoints, server | oracle codes (value, graph) | own invariant |
//! |---|---|---|---|---|---|
//! | core | [`CORE_ALPHABET`] | 6 | 1, exclusive node | P003, P003 | P005 generation lockstep |
//! | adversarial | [`ADVERSARIAL_ALPHABET`] | 4 | as core | as core | as core, plus P004 for hostile frames |
//! | reliability | [`RELIABILITY_ALPHABET`] | 4 | 1, exclusive node, lossy link | P003, P003 | — |
//! | shared | [`SHARED_ALPHABET`] | 5 | 2, connection nodes | P003, P008 | — |
//! | shared-graph | [`SHARED_GRAPH_ALPHABET`] | 4 | 2, one leased node | P003, P011 | P011 lease liveness and exact lease accounting |
//! | pipelined | [`PIPELINED_ALPHABET`] | 4 | 1 with two graphs, exclusive node, lossy link | P009, P008 | P009 ghost replies, untagged frames |
//! | reactor | [`REACTOR_ALPHABET`] | 4 | 2, worker nodes | P010, P010 | P010 classify outcomes |
//!
//! ## The core alphabet
//!
//! | action | protocol edge exercised |
//! |--------|-------------------------|
//! | `Call` | seed (gen 0) on first use, request delta (gen ≥ 1) after |
//! | `MutateClient` | dirty-position classification in the request delta |
//! | `Graft` | new-object shipping in the request delta |
//! | `Prune` | freed-position shipping and server-side frees |
//! | `MutateServer` | out-of-band mutation → `CacheStale` repair patch, or client-wins merge when the request rewrites the same object |
//! | `Evict` | `CacheEvict` → server frees the cached graph |
//!
//! The *adversarial* alphabet adds hand-built frames the client
//! implementation would never send: a stale generation, an unknown cache
//! id, and a garbage payload. The server must answer `CacheMiss` or
//! `CallError` — never panic, never serve stale state.
//!
//! ## Invariants
//!
//! * `P001` / `P002` — a client / server heap fails
//!   [`nrmi_heap::validate`] (the shared corruption oracle), or a client
//!   write the world makes fails. A twin holds only its graphs, so the
//!   oracle's isomorphism check vouches for its heap.
//! * `P003` — a call diverged from the **local oracle twin**: a plain
//!   local heap holding the same graph, mutated by the same deterministic
//!   service logic with no middleware in between. The return value must
//!   equal the twin's, and the client graph must stay
//!   [`nrmi_heap::graph::isomorphic`] to it. Because the twin is exactly
//!   what a cold copy-restore call computes, warm ≡ twin subsumes
//!   warm ≡ cold.
//! * `P004` — an unexpected frame or transport outcome: a reply the
//!   state machine forbids ([`judge_reply`]), or a call that failed where
//!   the oracle succeeded (a deadlock surfaces here as a disconnect).
//! * `P005` — generation lockstep broken: the client's next-generation
//!   counter disagrees with the server's for a live session.
//! * `P006` — a panic anywhere in the sequence (caught per sequence;
//!   the diagnostic carries the action trace and panic message).
//! * `P007` — at-most-once broken: the service ran a different number of
//!   times than the world's calls account for — under faults, across two
//!   connections sharing one reply cache, or on a replayed reply.
//! * `P008` — a reply observed a torn heap state: on the lock-split shared
//!   server, or among calls in flight on one connection, some client
//!   graph no longer matches its private oracle twin.
//! * `P009` — reply routing broken on one multiplexed connection: a
//!   collected value diverged from that call's oracle, a consumed call id
//!   produced a ghost reply, or a call frame escaped untagged.
//! * `P010` — the reactor dispatch discipline broken, enumerating the real
//!   [`reactor_classify`] over two connections and an explicit job queue:
//!   a fresh pipelineable call failed to offload, a retransmitted call id
//!   offloaded a second execution, a reply reached the wrong connection,
//!   or a worker dispatch restored a graph its oracle disowns.
//! * `P011` — shared-graph coherence or lease safety broken: with two
//!   warm clients leased onto ONE server heap, each call writing the
//!   other's graph out-of-band, a client read stale state, a `CacheStale`
//!   repair clobbered an unshipped local write (the positional merge
//!   rule), a connection teardown freed an object another connection's
//!   live session still synchronizes, or the node's lease table is not
//!   exactly the multiset of the live sessions' sync lists.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use nrmi_core::{
    client_apply_reply, client_evict_warm, client_invoke_warm_with_stats, client_marshal_call,
    reactor_classify, CallOptions, ClientNode, Connection, FnService, NrmiError, PassMode,
    PendingCall, ReactorStep, ReliableTransport, RetryPolicy, ServerNode, SharedServer, WarmCaches,
};
use nrmi_heap::validate::validate;
use nrmi_heap::{graph, ClassRegistry, Heap, HeapAccess, ObjId, Value};
use nrmi_transport::{Frame, MachineSpec, Transport, TransportError};

use crate::diag::{Diagnostic, Report};

/// One protocol action the checker can take. See the module docs for
/// the transition each exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// A warm call through the real client API (seeds on first use).
    Call,
    /// Mutate the root's `data` on the client (a dirty position).
    MutateClient,
    /// Splice a fresh node above the root's left subtree (a new object).
    Graft,
    /// Unlink and free the root's left subtree (freed positions).
    Prune,
    /// Mutate the server's cached graph out-of-band (coherence drop).
    MutateServer,
    /// Orderly client-side eviction of the warm session.
    Evict,
    /// Inject a warm request with a stale generation (must miss).
    StaleGeneration,
    /// Inject a warm request naming a cache id never seeded (must miss).
    UnknownCache,
    /// Inject a warm request whose payload is garbage (must error).
    GarbagePayload,
}

/// The honest alphabet: every transition of the cold/warm/delta state
/// machine, including coherence invalidation and eviction.
pub const CORE_ALPHABET: [Action; 6] = [
    Action::Call,
    Action::MutateClient,
    Action::Graft,
    Action::Prune,
    Action::MutateServer,
    Action::Evict,
];

/// Core alphabet plus hand-built hostile frames.
pub const ADVERSARIAL_ALPHABET: [Action; 9] = [
    Action::Call,
    Action::MutateClient,
    Action::Graft,
    Action::Prune,
    Action::MutateServer,
    Action::Evict,
    Action::StaleGeneration,
    Action::UnknownCache,
    Action::GarbagePayload,
];

/// What the state machine expects back for a frame it just sent; the
/// context [`judge_reply`] judges a reply frame against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyContext {
    /// A generation-0 seed carrying a full graph.
    SeedCall,
    /// An in-step warm request (delta); a miss is legal (the entry was
    /// lost) and so is a stale patch (out-of-band writes repaired in
    /// place), an error is not.
    WarmInStep,
    /// A warm request with a generation the server cannot be at.
    StaleGeneration,
    /// A warm request naming a cache id that was never seeded.
    UnknownCache,
    /// A warm request whose payload is not a well-formed delta.
    GarbagePayload,
}

/// Judges one reply frame against the protocol state machine. Returns
/// `None` when the reply is a legal transition, or the `NRMI-P004`
/// diagnostic describing the violation. Pure — usable both by the
/// enumerator and by seeded-fault tests.
pub fn judge_reply(ctx: ReplyContext, reply: &Frame) -> Option<Diagnostic> {
    let legal = match ctx {
        // A seed must complete or fail; the server has nothing to miss on.
        ReplyContext::SeedCall => {
            matches!(reply, Frame::CallReply { .. } | Frame::CallError { .. })
        }
        // In-step warm: reply; miss if the entry was lost; or a
        // targeted repair patch if it went stale out-of-band.
        ReplyContext::WarmInStep => matches!(
            reply,
            Frame::CallReply { .. }
                | Frame::CacheMiss
                | Frame::CacheStale { .. }
                | Frame::CallError { .. }
        ),
        // Serving a stale or unknown session would be state corruption;
        // the only sound answer is a miss.
        ReplyContext::StaleGeneration | ReplyContext::UnknownCache => {
            matches!(reply, Frame::CacheMiss)
        }
        // Garbage must surface as a typed error (or a miss if the
        // session was already gone) — never a successful reply.
        ReplyContext::GarbagePayload => {
            matches!(reply, Frame::CallError { .. } | Frame::CacheMiss)
        }
    };
    if legal {
        None
    } else {
        Some(
            Diagnostic::error(
                "NRMI-P004",
                format!("illegal protocol transition: {ctx:?} answered with {reply:?}"),
            )
            .with("context", format!("{ctx:?}"))
            .with("reply", format!("{reply:?}")),
        )
    }
}

// ---------------------------------------------------------------------------
// The fixture: endpoints, one server arrangement, links, and the checks
// ---------------------------------------------------------------------------

const METHOD: &str = "run";
/// Endpoint (and graph) names in diagnostics, in creation order.
const NAMES: [&str; 2] = ["A", "B"];
/// The service each endpoint calls; its body knows whose root it got.
const SERVICES: [&str; 2] = ["svc.a", "svc.b"];
/// Each endpoint's session nonce, distinct as two real connections'
/// draws from `fresh_nonce` are.
const NONCES: [u64; 2] = [0xAAAA_1111, 0xBBBB_2222];
/// How much a call perturbs every *other* live session root on a node
/// the endpoints share — distinctive, so a stale read stands out from
/// the ×3+1 service values.
const PEER_POKE: i32 = 100;

/// The deterministic service body, shared verbatim between the remote
/// service and the local oracle twin: DFS from the root, rewrite each
/// `data` to `3*data + 1`, return the sum of the *old* values.
fn service_logic(heap: &mut dyn HeapAccess, root: ObjId) -> Result<Value, NrmiError> {
    let mut stack = vec![root];
    let mut sum: i64 = 0;
    while let Some(id) = stack.pop() {
        let d = heap
            .get_field(id, "data")?
            .as_int()
            .ok_or_else(|| NrmiError::app("data is not an int"))?;
        sum += i64::from(d);
        heap.set_field(id, "data", Value::Int(d.wrapping_mul(3).wrapping_add(1)))?;
        if let Some(l) = heap.get_ref(id, "left")? {
            stack.push(l);
        }
        if let Some(r) = heap.get_ref(id, "right")? {
            stack.push(r);
        }
    }
    Ok(Value::Long(sum))
}

/// Adds `by` to `id`'s `data`.
fn bump(heap: &mut dyn HeapAccess, id: ObjId, by: i32) -> Result<(), NrmiError> {
    let d = heap
        .get_field(id, "data")?
        .as_int()
        .ok_or_else(|| NrmiError::app("data is not an int"))?;
    heap.set_field(id, "data", Value::Int(d.wrapping_add(by)))?;
    Ok(())
}

/// Allocates the three-node tree `root(data, left(2), right(3))`.
fn build_tree(heap: &mut Heap, data: i32) -> ObjId {
    let class = heap.registry().by_name("Node").expect("registered");
    let mut leaf = |d| {
        heap.alloc(class, vec![Value::Int(d), Value::Null, Value::Null])
            .expect("alloc")
    };
    let (left, right) = (leaf(2), leaf(3));
    heap.alloc(
        class,
        vec![Value::Int(data), Value::Ref(left), Value::Ref(right)],
    )
    .expect("alloc")
}

/// Every object reachable from `root` (inclusive), via raw slot walks.
fn reachable_from(heap: &Heap, root: ObjId) -> Vec<ObjId> {
    let mut seen: HashSet<ObjId> = HashSet::new();
    let mut stack = vec![root];
    let mut order = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        order.push(id);
        if let Ok(obj) = heap.get(id) {
            for v in obj.body().slots() {
                if let Value::Ref(target) = v {
                    stack.push(*target);
                }
            }
        }
    }
    order
}

/// A transport that swallows frames and never produces one; stands in
/// for the (unused) callback channel when a link steps the server.
struct NullTransport;

impl Transport for NullTransport {
    fn send(&mut self, _frame: &Frame) -> nrmi_transport::Result<()> {
        Ok(())
    }
    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        Err(TransportError::Disconnected)
    }
    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        Err(TransportError::Disconnected)
    }
}

/// Single-shot faults the reliability alphabet arms; each is consumed by
/// the next frame it applies to.
#[derive(Default)]
struct Faults {
    drop_requests: u32,
    drop_replies: u32,
    duplicate_requests: u32,
    disconnects: u32,
}

/// The one in-process link: one connection's server half (a node, this
/// connection's warm caches built on the node's lease table as every
/// driver builds them) and its reply queue. As a [`Transport`], `send`
/// steps the frame synchronously and queues the replies, `recv` drains
/// the queue. Clones share the state, so the fixture keeps a handle on
/// a link a `ReliableTransport` owns.
#[derive(Clone)]
struct Link(Arc<Mutex<LinkState>>);

struct LinkState {
    node: Arc<Mutex<ServerNode>>,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
    faults: Faults,
    /// An empty queue is a `Timeout` the retry loop owns, and the link
    /// can reconnect. Otherwise it is `Disconnected`: the server produced
    /// no reply, which the threaded deployment would deadlock on.
    lossy: bool,
}

impl Link {
    fn state(&self) -> MutexGuard<'_, LinkState> {
        self.0.lock().expect("poisoned")
    }
}

impl LinkState {
    /// The serial driver minus the socket: runs `frame` through the
    /// production [`Connection::step`] and returns what a driver would
    /// write, in order. A link has no worker pool and no driver above
    /// it, so an offload or a frame the step has no rule for is answered
    /// with an error the checker will surface.
    fn step(&mut self, frame: &Frame) -> Vec<Frame> {
        let mut node = self.node.lock().expect("poisoned");
        match Connection::new(&mut node, &mut self.caches).step(&mut NullTransport, frame.clone()) {
            step @ (ReactorStep::Offload { .. } | ReactorStep::Escalate(_)) => {
                vec![Frame::CallError {
                    message: format!("checker: unmodeled step {step:?}"),
                }]
            }
            step => step.into_replies().collect(),
        }
    }

    /// A worker's half of an offloaded call ([`Connection::execute`]).
    fn execute(&mut self, nonce: u64, seq: u64, call: Frame) -> Frame {
        let mut node = self.node.lock().expect("poisoned");
        Connection::new(&mut node, &mut self.caches).execute(&mut NullTransport, nonce, seq, call)
    }

    /// Connection teardown as the serve drivers run it: this
    /// connection's warm sessions are released and queued replies die
    /// with the socket. The next connection starts with caches of its
    /// own; the reply cache lives on the node and survives.
    fn release(&mut self) {
        let mut node = self.node.lock().expect("poisoned");
        self.caches.release_all(&mut node.state.heap);
        self.caches = WarmCaches::with_leases(Arc::clone(&node.leases));
        self.replies.clear();
    }
}

impl Transport for Link {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut link = self.state();
        let tagged = matches!(frame, Frame::Tagged { .. });
        if tagged && link.faults.drop_requests > 0 {
            link.faults.drop_requests -= 1;
            return Ok(()); // the request is lost in flight
        }
        let copies = if tagged && link.faults.duplicate_requests > 0 {
            link.faults.duplicate_requests -= 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            for reply in link.step(frame) {
                if link.faults.drop_replies > 0 {
                    link.faults.drop_replies -= 1; // the reply is lost
                } else {
                    link.replies.push_back(reply);
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        let mut link = self.state();
        if link.faults.disconnects > 0 {
            link.faults.disconnects -= 1;
            return Err(TransportError::Disconnected);
        }
        let empty = if link.lossy {
            TransportError::Timeout
        } else {
            TransportError::Disconnected
        };
        link.replies.pop_front().ok_or(empty)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }

    fn reconnect(&mut self) -> nrmi_transport::Result<bool> {
        let mut link = self.state();
        if link.lossy {
            link.release();
        }
        Ok(link.lossy)
    }
}

/// The real retry client over `link`, on instant virtual time: the link
/// never blocks, so retries are bounded by attempts, not the wall clock.
fn reliable(ep: usize, link: Link) -> ReliableTransport<Link> {
    let policy = RetryPolicy {
        deadline: Duration::from_secs(30),
        attempt_timeout: Duration::from_millis(1),
        max_attempts: 16,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter: false,
    };
    ReliableTransport::with_nonce(link, policy, NONCES[ep])
}

/// How a world wires the fixture.
struct Shape {
    endpoints: usize,
    /// One connection node per link, minted by one [`SharedServer`].
    /// Otherwise every link steps ONE node, and each call also writes
    /// every other endpoint's live session root out-of-band.
    pooled: bool,
    /// The links answer an empty queue with `Timeout` (see [`LinkState`]).
    lossy: bool,
    /// The oracle's code for a diverged return value.
    value_code: &'static str,
    /// The oracle's code for a client graph diverged from its twin.
    graph_code: &'static str,
}

/// One graph an endpoint holds, and its twin in the endpoint's oracle.
#[derive(Clone, Copy)]
struct Graph {
    name: &'static str,
    root: ObjId,
    twin_root: ObjId,
}

/// One client endpoint: a real [`ClientNode`] behind `wire`, its graphs,
/// and the private oracle twin holding a copy of each.
struct Endpoint<W> {
    client: ClientNode,
    wire: W,
    twin: Heap,
    graphs: Vec<Graph>,
    /// True when the client wrote its root since its last call: its next
    /// request delta carries the position, so the positional merge lets
    /// the client win and an out-of-band write to that root is erased.
    wrote_root: bool,
}

/// Fresh per sequence: endpoints, the server arrangement, one link per
/// endpoint, and the execution counter.
struct Fixture<W> {
    endpoints: Vec<Endpoint<W>>,
    links: Vec<Link>,
    /// Every distinct server node.
    nodes: Vec<Arc<Mutex<ServerNode>>>,
    /// The pooled arrangement's server.
    shared: Option<Arc<SharedServer>>,
    /// Each endpoint's live server-side session root, as its service last
    /// saw it. Cleared at eviction and teardown: a freed id can be
    /// recycled into another graph, and poking it would be a checker
    /// artifact (real out-of-band writers hold live references).
    server_roots: Arc<Mutex<[Option<ObjId>; 2]>>,
    executions: Arc<AtomicUsize>,
    /// The service executions the world's calls account for (P007).
    expected: usize,
    value_code: &'static str,
    graph_code: &'static str,
}

impl<W> Fixture<W> {
    fn new(shape: Shape, wire: impl Fn(usize, Link) -> W) -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let executions = Arc::new(AtomicUsize::new(0));
        let server_roots: Arc<Mutex<[Option<ObjId>; 2]>> = Arc::default();
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        for (ep, svc) in SERVICES.iter().enumerate().take(shape.endpoints) {
            let (counter, roots) = (Arc::clone(&executions), Arc::clone(&server_roots));
            let peer_pokes = !shape.pooled;
            server.bind(
                *svc,
                Box::new(FnService::new(move |_method, args, heap| {
                    let root = args[0]
                        .as_ref_id()
                        .ok_or_else(|| NrmiError::app("want a root reference"))?;
                    counter.fetch_add(1, Ordering::SeqCst);
                    let mut roots = roots.lock().expect("poisoned");
                    // (Re-)register: a reseed materializes the graph at
                    // fresh ids.
                    roots[ep] = Some(root);
                    // On one shared node, the coherence hazard: every
                    // other live session's graph changes underneath its
                    // warm cache.
                    let peers = roots
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| peer_pokes && i != ep);
                    for peer in peers.filter_map(|(_, root)| *root) {
                        bump(heap, peer, PEER_POKE)?;
                    }
                    drop(roots);
                    service_logic(heap, root)
                })),
            );
        }
        let locked = |node| Arc::new(Mutex::new(node));
        let (shared, nodes): (_, Vec<Arc<Mutex<ServerNode>>>) = if shape.pooled {
            let shared = Arc::new(SharedServer::from_node(server));
            let nodes = (0..shape.endpoints)
                .map(|_| locked(shared.connection_node()))
                .collect();
            (Some(shared), nodes)
        } else {
            (None, vec![locked(server)])
        };
        let links: Vec<Link> = (0..shape.endpoints)
            .map(|ep| {
                let node = Arc::clone(&nodes[ep % nodes.len()]);
                let caches =
                    WarmCaches::with_leases(Arc::clone(&node.lock().expect("poisoned").leases));
                Link(Arc::new(Mutex::new(LinkState {
                    node,
                    caches,
                    replies: VecDeque::new(),
                    faults: Faults::default(),
                    lossy: shape.lossy,
                })))
            })
            .collect();
        let endpoints = links
            .iter()
            .enumerate()
            .map(|(ep, link)| Endpoint {
                client: ClientNode::new(registry.clone(), MachineSpec::fast()),
                wire: wire(ep, link.clone()),
                twin: Heap::new(registry.clone()),
                graphs: Vec::new(),
                wrote_root: false,
            })
            .collect();
        let mut fixture = Fixture {
            endpoints,
            links,
            nodes,
            shared,
            server_roots,
            executions,
            expected: 0,
            value_code: shape.value_code,
            graph_code: shape.graph_code,
        };
        for ep in 0..shape.endpoints {
            fixture.add_graph(ep);
        }
        fixture
    }

    /// Gives endpoint `ep` another tree, and its twin a copy. The n-th
    /// graph's root starts at `100·n`, so a reply routed to the wrong
    /// graph is observable in both the value and the restored graph.
    fn add_graph(&mut self, ep: usize) {
        let n: usize = self.endpoints.iter().map(|e| e.graphs.len()).sum();
        let data = 100 * (n as i32 + 1);
        let e = &mut self.endpoints[ep];
        let root = build_tree(&mut e.client.state.heap, data);
        let twin_root = build_tree(&mut e.twin, data);
        e.graphs.push(Graph {
            name: NAMES[n],
            root,
            twin_root,
        });
    }

    /// The live warm session `(cache_id, generation)` of endpoint `ep`.
    fn session(&self, ep: usize) -> Option<(u64, u64)> {
        let warm = &self.endpoints[ep].client.warm;
        warm.cache_id(SERVICES[ep])
            .zip(warm.generation(SERVICES[ep]))
    }

    /// One client-side write, applied identically to the endpoint's
    /// graph and to its twin.
    fn write(
        &mut self,
        ep: usize,
        report: &mut Report,
        f: impl Fn(&mut Heap, ObjId) -> Result<(), NrmiError>,
    ) {
        let e = &mut self.endpoints[ep];
        let g = e.graphs[0];
        for (heap, root) in [
            (&mut e.client.state.heap, g.root),
            (&mut e.twin, g.twin_root),
        ] {
            if let Err(err) = f(heap, root) {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("{}: client write failed: {err}", g.name),
                ));
            }
        }
        e.wrote_root = true;
    }

    /// Mutates the endpoint's root `data` (a dirty position).
    fn mutate(&mut self, ep: usize, report: &mut Report) {
        self.write(ep, report, |heap, root| bump(heap, root, 10));
    }

    /// The coherence merge rule, mirrored into the twin: an out-of-band
    /// write to the endpoint's server root is visible to its next call
    /// exactly when the warm session is live in generation lockstep (the
    /// repair path reaches it) and the client has not written the root
    /// itself since its last call (else its delta wins positionally).
    /// When visible, the twin adopts the server root's current `data`;
    /// with no out-of-band write this is a no-op.
    fn adopt_pokes(&mut self, ep: usize) {
        let server_root = self.server_roots.lock().expect("poisoned")[ep];
        let (Some(server_root), Some((cache_id, generation)), false) =
            (server_root, self.session(ep), self.endpoints[ep].wrote_root)
        else {
            return;
        };
        let link = self.links[ep].state();
        if link.caches.generation_of(cache_id) != Some(generation) {
            return; // server entry gone or out of step: reseed, not repair
        }
        let data = link
            .node
            .lock()
            .expect("poisoned")
            .state
            .heap
            .get_field(server_root, "data");
        if let Ok(data @ Value::Int(_)) = data {
            let e = &mut self.endpoints[ep];
            let _ = e.twin.set_field(e.graphs[0].twin_root, "data", data);
        }
    }

    /// Tears down endpoint `ep`'s connection ([`LinkState::release`]).
    /// Its client keeps a dangling warm session and must recover through
    /// `CacheMiss`.
    fn drop_connection(&mut self, ep: usize) {
        self.server_roots.lock().expect("poisoned")[ep] = None;
        self.links[ep].state().release();
    }

    /// The oracle: runs the service body on graph `g`'s twin and judges
    /// the call's return value against it, then every graph the endpoint
    /// holds against its twin. A client heap changes only through its
    /// own endpoint's actions, and only calls can make it diverge, so a
    /// divergence shows here first.
    fn judge(&mut self, ep: usize, g: usize, got: Result<Value, NrmiError>, report: &mut Report) {
        let e = &mut self.endpoints[ep];
        let Graph {
            name, twin_root, ..
        } = e.graphs[g];
        match (got, service_logic(&mut e.twin, twin_root)) {
            (Ok(got), Ok(want)) if got != want => report.push(
                Diagnostic::error(
                    self.value_code,
                    format!("{name}: call diverged from its oracle: got {got:?}, want {want:?}"),
                )
                .with("got", format!("{got:?}"))
                .with("oracle", format!("{want:?}")),
            ),
            (Ok(_), Ok(_)) => {}
            (Err(err), Ok(_)) => report.push(
                Diagnostic::error(
                    "NRMI-P004",
                    format!("{name}: call failed where the oracle succeeded: {err}"),
                )
                .with("error", err.to_string()),
            ),
            (_, Err(err)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {err}"),
            )),
        }
        for g in &e.graphs {
            let fault = match graph::isomorphic(&e.client.state.heap, g.root, &e.twin, g.twin_root)
            {
                Ok(true) => continue,
                Ok(false) => "client graph diverged from its private oracle".to_owned(),
                Err(err) => format!("isomorphism comparison failed: {err}"),
            };
            report.push(Diagnostic::error(
                self.graph_code,
                format!("{}: {fault}", g.name),
            ));
        }
    }

    /// Marshals a copy-restore call on graph `g` through the real
    /// split-phase client.
    fn marshal(
        &mut self,
        ep: usize,
        g: usize,
        report: &mut Report,
    ) -> Option<(Frame, PendingCall)> {
        let e = &mut self.endpoints[ep];
        let Graph { name, root, .. } = e.graphs[g];
        let opts = CallOptions::forced(PassMode::CopyRestore);
        match client_marshal_call(
            &mut e.client,
            SERVICES[ep],
            METHOD,
            &[Value::Ref(root)],
            opts,
        ) {
            Ok(split) => Some(split),
            Err(err) => {
                report.push(Diagnostic::error(
                    "NRMI-P004",
                    format!("{name}: marshal failed: {err}"),
                ));
                None
            }
        }
    }

    /// Restores a collected reply into graph `g` and judges it.
    fn apply(
        &mut self,
        ep: usize,
        g: usize,
        pending: PendingCall,
        payload: &[u8],
        report: &mut Report,
    ) {
        let got = client_apply_reply(&mut self.endpoints[ep].client, pending, payload);
        self.judge(ep, g, got.map(|(value, _)| value), report);
    }

    /// What every world checks after every action: every client and
    /// server heap validates (P001/P002), and the service ran exactly as
    /// often as the world's calls account for (P007). A twin holds
    /// nothing but its graphs, so [`judge`](Self::judge)'s isomorphism
    /// vouches for its heap.
    fn check(&self, report: &mut Report) {
        let mut validated = |code, kind, name: &dyn std::fmt::Display, heap: &Heap| {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{kind} {name} heap corrupted: {v}"))
                        .with("heap", format!("{kind} {name}")),
                );
            }
        };
        for (e, name) in self.endpoints.iter().zip(NAMES) {
            validated("NRMI-P001", "client", &name, &e.client.state.heap);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let node = node.lock().expect("poisoned");
            validated("NRMI-P002", "server", &i, &node.state.heap);
        }
        let ran = self.executions.load(Ordering::SeqCst);
        if ran != self.expected {
            report.push(
                Diagnostic::error(
                    "NRMI-P007",
                    format!(
                        "at-most-once violated: {ran} service execution(s) for {} call(s)",
                        self.expected
                    ),
                )
                .with("executions", ran)
                .with("calls", self.expected),
            );
        }
    }
}

impl<W: Transport> Fixture<W> {
    /// A warm call through the real client API (seeds on first use),
    /// judged by the oracle.
    fn call(&mut self, ep: usize, report: &mut Report) {
        let e = &mut self.endpoints[ep];
        e.wrote_root = false;
        let args = [Value::Ref(e.graphs[0].root)];
        let got =
            client_invoke_warm_with_stats(&mut e.client, &mut e.wire, SERVICES[ep], METHOD, &args);
        self.expected += 1;
        self.judge(ep, 0, got.map(|(value, _)| value), report);
    }

    /// Orderly client-side eviction of the endpoint's warm session.
    fn evict(&mut self, ep: usize, report: &mut Report) {
        self.server_roots.lock().expect("poisoned")[ep] = None;
        let e = &mut self.endpoints[ep];
        if let Err(err) = client_evict_warm(&mut e.client, &mut e.wire, SERVICES[ep]) {
            report.push(Diagnostic::error(
                "NRMI-P004",
                format!("{}: eviction failed: {err}", NAMES[ep]),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// The worlds: alphabet + step + the invariant only that world has
// ---------------------------------------------------------------------------

/// What the enumerator needs from a world: a fresh state, and one
/// transition per action that reports violations. Sequencing, failure
/// tagging and panic capture are [`run_sequence`]'s.
trait World: Sized {
    /// The world's alphabet.
    type Action: Copy + std::fmt::Debug;

    fn new() -> Self;

    /// Applies one action, reporting violations into `report`.
    fn step(&mut self, action: Self::Action, report: &mut Report);
}

/// The core and adversarial alphabets: one warm client against an
/// exclusive node, plus out-of-band server writes and hand-built frames.
struct CoreWorld {
    fx: Fixture<Link>,
    /// Counter for grafted nodes (mirrored into the twin).
    next_data: i32,
}

impl World for CoreWorld {
    type Action = Action;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 1,
            pooled: false,
            lossy: false,
            value_code: "NRMI-P003",
            graph_code: "NRMI-P003",
        };
        CoreWorld {
            fx: Fixture::new(shape, |_, link| link),
            next_data: 1000,
        }
    }

    fn step(&mut self, action: Action, report: &mut Report) {
        let fx = &mut self.fx;
        match action {
            Action::Call => {
                fx.adopt_pokes(0);
                fx.call(0, report);
            }
            Action::MutateClient => fx.mutate(0, report),
            Action::Graft => {
                let data = self.next_data;
                self.next_data += 1;
                fx.write(0, report, move |heap, root| {
                    let class = heap.registry().by_name("Node").expect("registered");
                    let old_left = heap.get_field(root, "left")?;
                    let fresh = heap.alloc(class, vec![Value::Int(data), old_left, Value::Null])?;
                    heap.set_field(root, "left", Value::Ref(fresh))?;
                    Ok(())
                });
            }
            // A prune writes the root only when there is something to
            // cut; both heaps agree on that by lockstep construction.
            Action::Prune => {
                let e = &mut fx.endpoints[0];
                if let Ok(Some(_)) = e.client.state.heap.get_ref(e.graphs[0].root, "left") {
                    fx.write(0, report, |heap, root| {
                        let Some(left) = heap.get_ref(root, "left")? else {
                            return Ok(());
                        };
                        heap.set_field(root, "left", Value::Null)?;
                        // A tree by construction: the whole left subtree
                        // is garbage once unlinked.
                        for id in reachable_from(heap, left) {
                            heap.free(id)?;
                        }
                        Ok(())
                    });
                }
            }
            // An out-of-band server-side write to the session graph (another
            // connection or a local caller): the version vector must keep
            // the next warm call from reading stale state — a `CacheStale`
            // patch repairs the client's copy, or the client's own write to
            // the same object wins the merge.
            Action::MutateServer => {
                let root = fx.server_roots.lock().expect("poisoned")[0];
                if let Some(root) = root {
                    let mut node = fx.nodes[0].lock().expect("poisoned");
                    let _ = bump(&mut node.state.heap, root, 1000);
                }
            }
            Action::Evict => fx.evict(0, report),
            Action::StaleGeneration => self.inject(ReplyContext::StaleGeneration, report),
            Action::UnknownCache => self.inject(ReplyContext::UnknownCache, report),
            Action::GarbagePayload => self.inject(ReplyContext::GarbagePayload, report),
        }
        self.check_lockstep(report);
        self.fx.check(report);
    }
}

impl CoreWorld {
    /// Builds and injects one hostile frame, judging the reply against
    /// the state machine. The injected frame consumes the server-side
    /// entry (dropped on mismatch or garbage), so the honest client is
    /// out of sync by design and recovers through `CacheMiss` → reseed on
    /// its next call; that recovery is part of what the enumeration
    /// covers.
    fn inject(&mut self, ctx: ReplyContext, report: &mut Report) {
        let (cache_id, generation, payload) = match (ctx, self.fx.session(0)) {
            (ReplyContext::StaleGeneration, Some((id, generation))) => (id, generation + 7, vec![]),
            (ReplyContext::UnknownCache, _) => (u64::MAX, 3, vec![]),
            (ReplyContext::GarbagePayload, Some((id, generation))) => {
                (id, generation, vec![0xFF, 0x00, 0x01])
            }
            _ => return, // no session to be stale against, or garbage against nothing
        };
        let frame = Frame::CallRequestWarm {
            service: SERVICES[0].to_owned(),
            method: METHOD.to_owned(),
            mode: CallOptions::copy_restore_delta().to_wire(),
            cache_id,
            generation,
            payload,
        };
        // The call's own reply is the last frame the step answers with
        // (pushed invalidations travel ahead of it).
        match self.fx.links[0].state().step(&frame).pop() {
            Some(reply) => {
                if let Some(diag) = judge_reply(ctx, &reply) {
                    report.push(diag);
                }
            }
            None => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("server produced no reply to {ctx:?} (deadlock)"),
            )),
        }
    }

    /// `NRMI-P005`: while both sides hold the session, the client's next
    /// generation is the server's. The server may legitimately have
    /// dropped the entry (coherence, injection).
    fn check_lockstep(&self, report: &mut Report) {
        let Some((cache_id, client_gen)) = self.fx.session(0) else {
            return;
        };
        let server_gen = self.fx.links[0].state().caches.generation_of(cache_id);
        if let Some(server_gen) = server_gen.filter(|&g| g != client_gen) {
            report.push(
                Diagnostic::error(
                    "NRMI-P005",
                    format!(
                        "generation lockstep broken: client will send {client_gen}, \
                         server expects {server_gen}"
                    ),
                )
                .with("cache_id", cache_id),
            );
        }
    }
}

/// Runs one action sequence against a fresh core world, returning all
/// violations. Panics inside the sequence are caught and reported as
/// `NRMI-P006` with the action trace.
pub fn check_sequence(actions: &[Action]) -> Report {
    run_sequence::<CoreWorld>(actions)
}

/// One action of the reliability alphabet, driving the real
/// [`ReliableTransport`] client over a lossy in-process link against the
/// real server-side reply cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliabilityAction {
    /// A warm call through the reliable transport (checked against the
    /// oracle twin and the execution counter).
    Call,
    /// Mutate the client graph (varies the deltas between calls).
    MutateClient,
    /// Arm: the next tagged request vanishes in flight (client must
    /// retransmit; the server never saw it, so it executes once).
    DropRequest,
    /// Arm: the next reply vanishes in flight (the call executed; the
    /// retransmission must be answered from the reply cache, not re-run).
    DropReply,
    /// Arm: the next tagged request is delivered twice (the second copy
    /// must replay from the reply cache, not re-execute).
    DuplicateRequest,
    /// Arm: the next receive fails as a broken connection; the client
    /// reconnects (per-connection warm caches die, the reply cache
    /// survives) and retransmits.
    Disconnect,
}

/// Every transition of the retry/duplicate-suppression state machine.
pub const RELIABILITY_ALPHABET: [ReliabilityAction; 6] = [
    ReliabilityAction::Call,
    ReliabilityAction::MutateClient,
    ReliabilityAction::DropRequest,
    ReliabilityAction::DropReply,
    ReliabilityAction::DuplicateRequest,
    ReliabilityAction::Disconnect,
];

/// One warm client behind a real `ReliableTransport` over a lossy link
/// into an exclusive node; at-most-once is the fixture's P007.
struct ReliableWorld {
    fx: Fixture<ReliableTransport<Link>>,
}

impl World for ReliableWorld {
    type Action = ReliabilityAction;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 1,
            pooled: false,
            lossy: true,
            value_code: "NRMI-P003",
            graph_code: "NRMI-P003",
        };
        ReliableWorld {
            fx: Fixture::new(shape, reliable),
        }
    }

    fn step(&mut self, action: ReliabilityAction, report: &mut Report) {
        use ReliabilityAction as R;
        match action {
            R::Call => self.fx.call(0, report),
            R::MutateClient => self.fx.mutate(0, report),
            fault => {
                let mut link = self.fx.links[0].state();
                let faults = &mut link.faults;
                *match fault {
                    R::DropRequest => &mut faults.drop_requests,
                    R::DropReply => &mut faults.drop_replies,
                    R::DuplicateRequest => &mut faults.duplicate_requests,
                    _ => &mut faults.disconnects,
                } += 1;
            }
        }
        self.fx.check(report);
    }
}

/// Runs one reliability action sequence against a fresh world, returning
/// all violations (panics become `NRMI-P006`, as in [`check_sequence`]).
pub fn check_reliability_sequence(actions: &[ReliabilityAction]) -> Report {
    run_sequence::<ReliableWorld>(actions)
}

/// One action in the two-connection shared-server model. Actions are
/// addressed to connection A or B; each connection has its own session
/// tree, its own oracle twin, and its own nonce stream, while the reply
/// cache and service bindings are the [`SharedServer`]'s — exactly the
/// state the pooled serve loop shares between connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedAction {
    /// A warm call on connection A (seeds on first use).
    CallA,
    /// A warm call on connection B.
    CallB,
    /// Mutate connection A's root (a dirty position in A's next delta).
    MutateA,
    /// Mutate connection B's root.
    MutateB,
    /// Orderly eviction of connection A's warm session.
    EvictA,
    /// Orderly eviction of connection B's warm session.
    EvictB,
}

/// Every transition of the two-connection interleaving model.
pub const SHARED_ALPHABET: [SharedAction; 6] = [
    SharedAction::CallA,
    SharedAction::CallB,
    SharedAction::MutateA,
    SharedAction::MutateB,
    SharedAction::EvictA,
    SharedAction::EvictB,
];

/// Two warm clients, each behind a real `ReliableTransport`, on
/// connection nodes of one `SharedServer`. Its invariants are the
/// fixture's: P008 is the graph oracle under every interleaving, P007
/// the execution counter across both connections.
struct SharedWorld {
    fx: Fixture<ReliableTransport<Link>>,
}

impl World for SharedWorld {
    type Action = SharedAction;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 2,
            pooled: true,
            lossy: false,
            value_code: "NRMI-P003",
            graph_code: "NRMI-P008",
        };
        SharedWorld {
            fx: Fixture::new(shape, reliable),
        }
    }

    fn step(&mut self, action: SharedAction, report: &mut Report) {
        use SharedAction as S;
        match action {
            S::CallA => self.fx.call(0, report),
            S::CallB => self.fx.call(1, report),
            S::MutateA => self.fx.mutate(0, report),
            S::MutateB => self.fx.mutate(1, report),
            S::EvictA => self.fx.evict(0, report),
            S::EvictB => self.fx.evict(1, report),
        }
        self.fx.check(report);
    }
}

/// Runs one two-connection action sequence against a fresh shared world,
/// returning all violations (panics become `NRMI-P006`).
pub fn check_shared_sequence(actions: &[SharedAction]) -> Report {
    run_sequence::<SharedWorld>(actions)
}

/// One action in the two-client shared-graph model (`NRMI-P011`). Unlike
/// the [`SharedAction`] world — two connections with *disjoint* session
/// graphs behind one reply cache — this model shares the coherence
/// surface itself: both endpoints hold warm sessions against ONE
/// [`ServerNode`] heap, their [`WarmCaches`] built with
/// [`WarmCaches::with_leases`] on the node's lease table exactly as
/// every driver of a shared node builds them, and every call writes the
/// *other* endpoint's server-side root out-of-band. Each step drives the
/// real coherence machinery: version-vector staleness classification,
/// `CacheStale` repair patches, the client-wins positional merge, and
/// lease-guarded eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedGraphAction {
    /// A warm call on endpoint A; its service body pokes B's registered
    /// server root (an out-of-band write from B's point of view).
    CallA,
    /// A warm call on endpoint B; pokes A's registered server root.
    CallB,
    /// Mutate endpoint A's root client-side (an unshipped local write
    /// the merge rule must not clobber).
    MutateA,
    /// Mutate endpoint B's root client-side.
    MutateB,
    /// Orderly client-driven eviction of A's warm session.
    EvictA,
    /// Orderly client-driven eviction of B's warm session.
    EvictB,
    /// Tear down A's server-side connection state (`release_all` + fresh
    /// caches), as every serve driver does when a client vanishes.
    /// B's leased session must survive with every synchronized object
    /// still alive; A reconnects through the `CacheMiss` reseed path.
    DropA,
}

/// Every transition of the two-client shared-graph coherence model.
pub const SHARED_GRAPH_ALPHABET: [SharedGraphAction; 7] = [
    SharedGraphAction::CallA,
    SharedGraphAction::CallB,
    SharedGraphAction::MutateA,
    SharedGraphAction::MutateB,
    SharedGraphAction::EvictA,
    SharedGraphAction::EvictB,
    SharedGraphAction::DropA,
];

/// Two warm clients on bare links into ONE node, each call writing the
/// other's session root. The graph oracle (P011) catches a stale read or
/// a clobbered local write; lease liveness and lease accounting are this
/// world's own checks.
struct SharedGraphWorld {
    fx: Fixture<Link>,
}

impl World for SharedGraphWorld {
    type Action = SharedGraphAction;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 2,
            pooled: false,
            lossy: false,
            value_code: "NRMI-P003",
            graph_code: "NRMI-P011",
        };
        SharedGraphWorld {
            fx: Fixture::new(shape, |_, link| link),
        }
    }

    fn step(&mut self, action: SharedGraphAction, report: &mut Report) {
        use SharedGraphAction as G;
        let fx = &mut self.fx;
        match action {
            G::CallA | G::CallB => {
                let ep = usize::from(action == G::CallB);
                fx.adopt_pokes(ep);
                fx.call(ep, report);
            }
            G::MutateA => fx.mutate(0, report),
            G::MutateB => fx.mutate(1, report),
            G::EvictA => fx.evict(0, report),
            G::EvictB => fx.evict(1, report),
            G::DropA => fx.drop_connection(0),
        }
        self.check_lease_liveness(report);
        self.check_lease_accounting(report);
        self.fx.check(report);
    }
}

impl SharedGraphWorld {
    /// `NRMI-P011` (lease safety): every object a live warm session
    /// synchronizes is still alive on the shared heap — no teardown or
    /// eviction by the OTHER connection freed it out from under us.
    fn check_lease_liveness(&self, report: &mut Report) {
        for (ep, link) in self.fx.links.iter().enumerate() {
            let Some((cache_id, _)) = self.fx.session(ep) else {
                continue;
            };
            let link = link.state();
            let node = link.node.lock().expect("poisoned");
            let sync = link.caches.sync_ids_of(cache_id).unwrap_or_default();
            for id in sync
                .iter()
                .filter(|&&id| node.state.heap.class_if_live(id).is_none())
            {
                report.push(Diagnostic::error(
                    "NRMI-P011",
                    format!(
                        "{}: leased object {id:?} of live session {cache_id} was freed \
                         by another connection",
                        NAMES[ep]
                    ),
                ));
            }
        }
    }

    /// `NRMI-P011` (lease accounting): the node's lease table is exactly
    /// the multiset of both links' live sync lists. A lease no session
    /// holds pins its objects past every eviction; a synchronized object
    /// left unleased can be freed by the other connection's teardown.
    fn check_lease_accounting(&self, report: &mut Report) {
        let mut want: HashMap<ObjId, usize> = HashMap::new();
        for link in &self.fx.links {
            for sync in link.state().caches.sync_lists() {
                for &id in sync {
                    *want.entry(id).or_default() += 1;
                }
            }
        }
        let node = self.fx.nodes[0].lock().expect("poisoned");
        let table = node.leases.lock();
        let miscounted = want
            .iter()
            .filter(|&(&id, &count)| table.cover_count(id) != count)
            .count();
        if miscounted > 0 || table.covered_len() != want.len() {
            report.push(Diagnostic::error(
                "NRMI-P011",
                format!(
                    "lease table out of step with the live sessions: {} leased object(s) \
                     for {} synchronized, {miscounted} miscounted",
                    table.covered_len(),
                    want.len()
                ),
            ));
        }
    }
}

/// Runs one two-client shared-graph action sequence against a fresh
/// world, returning all violations (panics become `NRMI-P006`).
pub fn check_shared_graph_sequence(actions: &[SharedGraphAction]) -> Report {
    run_sequence::<SharedGraphWorld>(actions)
}

/// One action in the pipelined single-connection model: two call slots
/// (A and B, each owning a private graph) share one
/// [`ReliableTransport`], and both may be in flight at once through the
/// split-phase client API ([`client_marshal_call`] + `send_call`,
/// collected later with `recv_reply` + [`client_apply_reply`]). The
/// adversary reorders and drops queued replies; the request map must
/// still route every reply to the call that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelinedAction {
    /// Issue a copy-restore call on slot A without collecting it (a
    /// no-op if A is already in flight).
    IssueA,
    /// Issue a call on slot B.
    IssueB,
    /// Swap the two oldest queued replies (out-of-order delivery).
    SwapReplies,
    /// Discard the oldest queued reply: the collect must retransmit and
    /// be answered from the reply cache, never re-executed.
    DropReply,
    /// Collect slot A's reply and restore its graph. With nothing in
    /// flight, instead verifies that collecting an already-consumed call
    /// id yields the typed `NoPendingCall` error — never a panic, never
    /// a ghost reply.
    CollectA,
    /// Collect slot B.
    CollectB,
}

/// Every transition of the pipelined reply-routing state machine.
pub const PIPELINED_ALPHABET: [PipelinedAction; 6] = [
    PipelinedAction::IssueA,
    PipelinedAction::IssueB,
    PipelinedAction::SwapReplies,
    PipelinedAction::DropReply,
    PipelinedAction::CollectA,
    PipelinedAction::CollectB,
];

/// One client holding two graphs (the call slots), one `ReliableTransport`
/// over a lossy link into an exclusive node.
struct PipelinedWorld {
    fx: Fixture<ReliableTransport<Link>>,
    slots: [Slot; 2],
}

/// One call slot's in-flight call, and the last call id it consumed.
#[derive(Default)]
struct Slot {
    pending: Option<(u64, PendingCall)>,
    consumed: Option<u64>,
}

impl World for PipelinedWorld {
    type Action = PipelinedAction;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 1,
            pooled: false,
            lossy: true,
            value_code: "NRMI-P009",
            graph_code: "NRMI-P008",
        };
        let mut fx = Fixture::new(shape, reliable);
        fx.add_graph(0);
        PipelinedWorld {
            fx,
            slots: Default::default(),
        }
    }

    fn step(&mut self, action: PipelinedAction, report: &mut Report) {
        use PipelinedAction as P;
        match action {
            P::IssueA => self.issue(0, report),
            P::IssueB => self.issue(1, report),
            P::SwapReplies => {
                let mut link = self.fx.links[0].state();
                if link.replies.len() >= 2 {
                    link.replies.swap(0, 1);
                }
            }
            P::DropReply => {
                self.fx.links[0].state().replies.pop_front();
            }
            P::CollectA => self.collect(0, report),
            P::CollectB => self.collect(1, report),
        }
        self.fx.check(report);
    }
}

impl PipelinedWorld {
    fn issue(&mut self, slot: usize, report: &mut Report) {
        if self.slots[slot].pending.is_some() {
            return;
        }
        let Some((frame, pending)) = self.fx.marshal(0, slot, report) else {
            return;
        };
        let name = self.fx.endpoints[0].graphs[slot].name;
        match self.fx.endpoints[0].wire.send_call(&frame) {
            Ok(Some(seq)) => {
                self.fx.expected += 1;
                self.slots[slot].pending = Some((seq, pending));
            }
            Ok(None) => report.push(Diagnostic::error(
                "NRMI-P009",
                format!("{name}: call frame passed through untagged — its reply can never be demultiplexed"),
            )),
            Err(err) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("{name}: pipelined issue failed: {err}"),
            )),
        }
    }

    fn collect(&mut self, slot: usize, report: &mut Report) {
        let name = self.fx.endpoints[0].graphs[slot].name;
        let wire = &mut self.fx.endpoints[0].wire;
        let Some((seq, pending)) = self.slots[slot].pending.take() else {
            // Nothing in flight: collecting the already-consumed call id
            // must yield the typed error; a ghost reply would mean a
            // neighbor's reply leaked out of the request map.
            if let Some(stale) = self.slots[slot].consumed {
                match wire.recv_reply(stale) {
                    Err(TransportError::NoPendingCall { .. }) => {}
                    other => report.push(Diagnostic::error(
                        "NRMI-P009",
                        format!(
                            "{name}: collecting consumed call {stale} must fail with \
                             NoPendingCall, got {other:?}"
                        ),
                    )),
                }
            }
            return;
        };
        self.slots[slot].consumed = Some(seq);
        match wire.recv_reply(seq) {
            Ok(Frame::CallReply { payload }) => self.fx.apply(0, slot, pending, &payload, report),
            Ok(other) => report.push(Diagnostic::error(
                "NRMI-P009",
                format!("{name}: call {seq} answered with {other:?}"),
            )),
            Err(err) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("{name}: collect of call {seq} failed: {err}"),
            )),
        }
    }
}

/// Runs one pipelined action sequence against a fresh world, returning
/// all violations (panics become `NRMI-P006`).
pub fn check_pipelined_sequence(actions: &[PipelinedAction]) -> Report {
    run_sequence::<PipelinedWorld>(actions)
}

/// One action of the reactor dispatch model: two client connections
/// multiplexed through the **real** reactor step function
/// ([`reactor_classify`]) onto a shared job queue drained by two
/// worker nodes, with the checker in full control of execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReactorAction {
    /// Issue a copy-restore call on connection A: marshal with the real
    /// client, wrap in the tagged envelope, classify. A fresh
    /// pipelineable call must classify as `Offload` — anything else is
    /// a `P010` violation.
    IssueA,
    /// Issue a call on connection B.
    IssueB,
    /// Pop the oldest queued job and dispatch it on the next worker
    /// node (workers alternate, as the real pool's threads do), store
    /// the reply in the shared cache, and route the tagged reply to the
    /// owning connection's inbox.
    RunJob,
    /// Re-classify connection A's last tagged call frame, byte for
    /// byte, as a retransmission would arrive. Legal outcomes are
    /// `Ignore` (still executing) or a cached `Reply`; a second
    /// `Offload` is a double execution.
    RetransmitA,
    /// Collect connection A's reply from its inbox (a no-op while the
    /// job is still queued) and restore against A's private oracle.
    CollectA,
    /// Collect connection B.
    CollectB,
}

/// The reactor model's alphabet.
pub const REACTOR_ALPHABET: [ReactorAction; 6] = [
    ReactorAction::IssueA,
    ReactorAction::IssueB,
    ReactorAction::RunJob,
    ReactorAction::RetransmitA,
    ReactorAction::CollectA,
    ReactorAction::CollectB,
];

/// A reactor connection's client half: the tagged frames it sends by
/// hand and the replies the reactor routes back to it.
#[derive(Default)]
struct ReactorConn {
    last_seq: u64,
    pending: Option<(u64, PendingCall)>,
    /// The exact tagged frame last sent, for retransmission.
    last_tagged: Option<Frame>,
    /// Replies routed to this connection (the reactor's completion
    /// channel keyed by connection token).
    inbox: VecDeque<Frame>,
}

/// Two connections classified against one `SharedServer`, with the
/// fixture's links as the pool's two worker nodes and an explicit job
/// queue between them.
struct ReactorWorld {
    fx: Fixture<ReactorConn>,
    /// Queued jobs: (endpoint, nonce, seq, inner call frame).
    jobs: VecDeque<(usize, u64, u64, Frame)>,
    next_worker: usize,
}

impl World for ReactorWorld {
    type Action = ReactorAction;

    fn new() -> Self {
        let shape = Shape {
            endpoints: 2,
            pooled: true,
            lossy: false,
            value_code: "NRMI-P010",
            graph_code: "NRMI-P010",
        };
        ReactorWorld {
            fx: Fixture::new(shape, |_, _| ReactorConn::default()),
            jobs: VecDeque::new(),
            next_worker: 0,
        }
    }

    fn step(&mut self, action: ReactorAction, report: &mut Report) {
        use ReactorAction as R;
        match action {
            R::IssueA => self.issue(0, report),
            R::IssueB => self.issue(1, report),
            R::RunJob => self.run_job(),
            R::RetransmitA => self.retransmit(0, report),
            R::CollectA => self.collect(0, report),
            R::CollectB => self.collect(1, report),
        }
        self.fx.check(report);
    }
}

impl ReactorWorld {
    fn classify(&self, tagged: Frame) -> ReactorStep {
        reactor_classify(self.fx.shared.as_ref().expect("pooled"), true, tagged)
    }

    fn issue(&mut self, ep: usize, report: &mut Report) {
        if self.fx.endpoints[ep].wire.pending.is_some() {
            return;
        }
        let Some((frame, pending)) = self.fx.marshal(ep, 0, report) else {
            return;
        };
        let conn = &mut self.fx.endpoints[ep].wire;
        conn.last_seq += 1;
        let (nonce, seq) = (NONCES[ep], conn.last_seq);
        let tagged = Frame::Tagged {
            nonce,
            seq,
            frame: Box::new(frame),
        };
        conn.last_tagged = Some(tagged.clone());
        match self.classify(tagged) {
            ReactorStep::Offload {
                nonce: n,
                seq: s,
                call,
            } if (n, s) == (nonce, seq) => {
                self.jobs.push_back((ep, nonce, seq, call));
                self.fx.endpoints[ep].wire.pending = Some((seq, pending));
            }
            other => report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "{}: a fresh pipelineable call ({nonce:#x}, {seq}) must offload to the \
                     worker pool under its own id; the reactor answered {other:?}",
                    NAMES[ep]
                ),
            )),
        }
    }

    fn run_job(&mut self) {
        let Some((ep, nonce, seq, call)) = self.jobs.pop_front() else {
            return;
        };
        // Workers alternate, as the real pool's threads race: the same
        // connection's consecutive calls may execute on different worker
        // heaps.
        let worker = &self.fx.links[self.next_worker % self.fx.links.len()];
        self.next_worker += 1;
        let reply = worker.state().execute(nonce, seq, call);
        self.fx.expected += 1;
        self.fx.endpoints[ep].wire.inbox.push_back(reply);
    }

    fn retransmit(&mut self, ep: usize, report: &mut Report) {
        let Some(tagged) = self.fx.endpoints[ep].wire.last_tagged.clone() else {
            return;
        };
        match self.classify(tagged) {
            // Still queued or executing: the duplicate is dropped
            // unanswered and the client's next retransmission replays the
            // stored reply.
            ReactorStep::Ignore => {}
            // Executed: answered from the cache and routed like any reply;
            // a stale duplicate for an already-collected call just sits in
            // the inbox, as the client's demultiplexer discards it.
            step @ ReactorStep::Reply { .. } => {
                self.fx.endpoints[ep].wire.inbox.extend(step.into_replies());
            }
            other => report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "{}: a retransmitted call id must be ignored or answered from the \
                     reply cache, never {other:?} — that is a double execution",
                    NAMES[ep]
                ),
            )),
        }
    }

    fn collect(&mut self, ep: usize, report: &mut Report) {
        let conn = &mut self.fx.endpoints[ep].wire;
        let Some(&(seq, _)) = conn.pending.as_ref() else {
            return;
        };
        // The reply may not have been produced yet (job still queued):
        // leave the call pending, as the blocked client would.
        let Some(pos) = conn.inbox.iter().position(|f| {
            matches!(
                f,
                Frame::Tagged { seq: s, .. } | Frame::ReplyCached { seq: s, .. } if *s == seq
            )
        }) else {
            return;
        };
        let (nonce, inner) = match conn.inbox.remove(pos).expect("indexed") {
            Frame::Tagged { nonce, frame, .. } | Frame::ReplyCached { nonce, frame, .. } => {
                (nonce, *frame)
            }
            other => unreachable!("matched above: {other:?}"),
        };
        let fault = match inner {
            _ if nonce != NONCES[ep] => format!(
                "reply crossed connections: call id nonce {nonce:#x}, connection nonce {:#x}",
                NONCES[ep]
            ),
            Frame::CallReply { payload } => {
                let (_, pending) = conn.pending.take().expect("checked above");
                self.fx.apply(ep, 0, pending, &payload, report);
                return;
            }
            other => format!("call {seq} answered with {other:?}"),
        };
        report.push(Diagnostic::error(
            "NRMI-P010",
            format!("{}: {fault}", NAMES[ep]),
        ));
    }
}

/// Runs one reactor action sequence against a fresh world, returning
/// all violations (panics become `NRMI-P006`).
pub fn check_reactor_sequence(actions: &[ReactorAction]) -> Report {
    run_sequence::<ReactorWorld>(actions)
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

/// Bounds for one [`model_check`] run. Each world's own depth is a row of
/// the world table in [`model_check`].
#[derive(Clone, Debug)]
pub struct ModelCheckConfig {
    /// Caps every world's exhaustive depth: a world runs at the smaller
    /// of its own depth and this.
    pub max_depth: usize,
    /// Stop after this many error diagnostics (a broken invariant tends
    /// to fail thousands of sequences identically).
    pub max_errors: usize,
}

impl Default for ModelCheckConfig {
    /// Every world at its own depth: 67,282 sequences.
    fn default() -> Self {
        ModelCheckConfig {
            max_depth: usize::MAX,
            max_errors: 25,
        }
    }
}

/// Runs one action sequence against a fresh `W`, returning all
/// violations: stops at the first failing step and tags its findings
/// with the trace and the step; a panic inside the sequence is caught
/// and reported as `NRMI-P006` with the trace.
fn run_sequence<W: World>(actions: &[W::Action]) -> Report {
    let trace = actions
        .iter()
        .map(|a| format!("{a:?}"))
        .collect::<Vec<_>>()
        .join(" → ");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut world = W::new();
        let mut report = Report::new();
        for (i, &action) in actions.iter().enumerate() {
            world.step(action, &mut report);
            if report.has_errors() {
                return (report, Some(i));
            }
        }
        (report, None)
    }));
    match outcome {
        Ok((report, None)) => report,
        Ok((report, Some(i))) => report
            .diagnostics()
            .iter()
            .cloned()
            .map(|d| d.with("trace", &trace).with("failed_at_step", i))
            .collect(),
        Err(payload) => {
            let msg = panic_message(&payload);
            let mut report = Report::new();
            report.push(
                Diagnostic::error("NRMI-P006", format!("sequence panicked: {msg}"))
                    .with("trace", &trace),
            );
            report
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Exhaustively enumerates, for every row of the world table, every
/// action sequence of exactly the row's depth (capped by
/// `cfg.max_depth`) over its alphabet, each against a fresh world.
/// Checking full-depth sequences covers every shorter prefix, since each
/// sequence re-executes (and re-checks) its prefix from scratch. The
/// `NRMI-P000` note counts sequences per world.
pub fn model_check(cfg: &ModelCheckConfig) -> Report {
    let mut run = Enumeration {
        cfg: cfg.clone(),
        report: Report::new(),
        coverage: Vec::new(),
    };
    // Panics are expected to be absent; silence the default hook so a
    // genuine finding doesn't spray 46k backtraces, and restore it after.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The world table: name, alphabet, depth.
        run.all::<CoreWorld>("core", &CORE_ALPHABET, 6);
        run.all::<CoreWorld>("adversarial", &ADVERSARIAL_ALPHABET, 4);
        run.all::<ReliableWorld>("reliability", &RELIABILITY_ALPHABET, 4);
        run.all::<SharedWorld>("shared", &SHARED_ALPHABET, 5);
        run.all::<SharedGraphWorld>("shared-graph", &SHARED_GRAPH_ALPHABET, 4);
        run.all::<PipelinedWorld>("pipelined", &PIPELINED_ALPHABET, 4);
        run.all::<ReactorWorld>("reactor", &REACTOR_ALPHABET, 4);
    }));
    std::panic::set_hook(prev_hook);

    let mut report = run.report;
    if result.is_err() {
        report.push(Diagnostic::error(
            "NRMI-P006",
            "the enumerator itself panicked (checker bug)",
        ));
    }
    let (errors, _, _) = report.counts();
    if errors >= cfg.max_errors {
        report.push(Diagnostic::warning(
            "NRMI-P000",
            format!("stopped after {errors} errors; enumeration incomplete"),
        ));
    }
    let sequences: usize = run.coverage.iter().map(|&(_, _, n)| n).sum();
    let worlds = run
        .coverage
        .iter()
        .map(|(name, depth, n)| format!("{name} {n} at depth {depth}"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut note = Diagnostic::info(
        "NRMI-P000",
        format!(
            "protocol enumeration explored {sequences} sequences ({worlds}): {errors} violation(s)"
        ),
    )
    .with("sequences", sequences);
    for (name, _, n) in run.coverage {
        note = note.with(name, n);
    }
    report.push(note);
    report
}

/// The findings and per-world coverage of one [`model_check`] run.
struct Enumeration {
    cfg: ModelCheckConfig,
    report: Report,
    /// (world, depth run, sequences run), in table order.
    coverage: Vec<(&'static str, usize, usize)>,
}

impl Enumeration {
    /// Odometer-style enumeration of all `|alphabet|^depth` sequences,
    /// each run against a fresh `W`.
    fn all<W: World>(&mut self, name: &'static str, alphabet: &[W::Action], depth: usize) {
        let depth = depth.min(self.cfg.max_depth);
        let mut digits = vec![0usize; depth];
        let mut sequences = 0;
        while depth > 0 && self.report.counts().0 < self.cfg.max_errors {
            let actions: Vec<W::Action> = digits.iter().map(|&d| alphabet[d]).collect();
            self.report.merge(run_sequence::<W>(&actions));
            sequences += 1;
            // Advance the odometer; past the last sequence, stop.
            let Some(i) = digits.iter().position(|&d| d + 1 < alphabet.len()) else {
                break;
            };
            digits[i] += 1;
            digits[..i].fill(0);
        }
        self.coverage.push((name, depth, sequences));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_call_round_trips() {
        let report = check_sequence(&[Action::Call, Action::Call, Action::Call]);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn coherence_and_recovery_sequences_are_clean() {
        for seq in [
            vec![Action::Call, Action::MutateServer, Action::Call],
            vec![Action::Call, Action::Evict, Action::Call],
            vec![
                Action::Call,
                Action::Prune,
                Action::Call,
                Action::Graft,
                Action::Call,
            ],
            vec![
                Action::Graft,
                Action::Call,
                Action::StaleGeneration,
                Action::Call,
            ],
            vec![Action::Call, Action::GarbagePayload, Action::Call],
            vec![Action::UnknownCache, Action::Call, Action::UnknownCache],
        ] {
            let report = check_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn shallow_exhaustive_core_enumeration_is_clean() {
        // Depth 3 runs fast enough for debug builds; CI's
        // `tables -- check` job runs every world at its full depth in
        // release.
        let report = model_check(&ModelCheckConfig {
            max_depth: 3,
            max_errors: 25,
        });
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code("NRMI-P000"), "coverage note present");
    }

    #[test]
    fn coverage_note_counts_sequences_per_world() {
        // At depth 1 each world runs one sequence per action, so a world
        // dropped from the table (or an alphabet that lost an action)
        // shows up here instead of hiding in the total.
        let report = model_check(&ModelCheckConfig {
            max_depth: 1,
            max_errors: 25,
        });
        assert!(!report.has_errors(), "{}", report.render());
        let note = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "NRMI-P000")
            .expect("coverage note");
        let counts: Vec<(&str, &str)> = note
            .context
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            counts,
            [
                ("sequences", "46"),
                ("core", "6"),
                ("adversarial", "9"),
                ("reliability", "6"),
                ("shared", "6"),
                ("shared-graph", "7"),
                ("pipelined", "6"),
                ("reactor", "6"),
            ]
        );
    }

    #[test]
    fn reliability_fault_sequences_are_clean() {
        use ReliabilityAction as R;
        for seq in [
            vec![R::Call, R::Call],
            vec![R::DropReply, R::Call, R::Call],
            vec![R::DropRequest, R::Call, R::MutateClient, R::Call],
            vec![R::DuplicateRequest, R::Call, R::Call],
            vec![R::Disconnect, R::Call, R::Call],
            // Reply lost, then the connection too: the retransmission
            // crosses a reconnect and must be served from the cache.
            vec![R::Call, R::DropReply, R::Disconnect, R::Call],
            // Everything at once against a single call.
            vec![
                R::DropRequest,
                R::DropReply,
                R::DuplicateRequest,
                R::Disconnect,
                R::Call,
                R::Call,
            ],
        ] {
            let report = check_reliability_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn shared_two_connection_sequences_are_clean() {
        use SharedAction as S;
        for seq in [
            // Interleaved seeding: both connections seed against the
            // same shared server and stay independent.
            vec![S::CallA, S::CallB, S::CallA, S::CallB],
            // Dirty deltas cross the shared reply cache interleaved.
            vec![
                S::CallA,
                S::CallB,
                S::MutateA,
                S::MutateB,
                S::CallA,
                S::CallB,
            ],
            // One connection evicts mid-stream; the other must not care.
            vec![S::CallA, S::CallB, S::EvictA, S::CallB, S::CallA],
            // Eviction of a never-seeded session, then cross traffic.
            vec![S::EvictB, S::CallA, S::CallB],
        ] {
            let report = check_shared_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn shared_graph_coherence_sequences_are_clean() {
        use SharedGraphAction as G;
        for seq in [
            // Alternating calls: every call dirties the peer's leased
            // graph; every next call must see the CacheStale repair.
            vec![G::CallA, G::CallB, G::CallA, G::CallB],
            // An unshipped local write races the peer's out-of-band
            // poke: the positional merge must let the client win.
            vec![G::CallA, G::CallB, G::MutateA, G::CallA, G::CallB],
            // Both sides write locally, then both call: client-wins on
            // both roots, no repair patch may clobber either.
            vec![
                G::CallA,
                G::CallB,
                G::MutateA,
                G::MutateB,
                G::CallA,
                G::CallB,
            ],
            // A's teardown while B holds a leased session on the same
            // heap: B's objects must survive, A reconnects via miss.
            vec![G::CallA, G::CallB, G::DropA, G::CallB, G::CallA],
            // Teardown of a dirtied (incoherent) session, then reuse.
            vec![G::CallA, G::CallB, G::MutateA, G::DropA, G::CallA],
            // Eviction after the peer poked the evicted graph: the
            // incoherent entry must leak, not free, and B stays intact.
            vec![G::CallA, G::CallB, G::EvictA, G::CallB, G::CallA],
            // Teardown and eviction against never-seeded sessions.
            vec![G::DropA, G::EvictB, G::CallA, G::CallB],
        ] {
            let report = check_shared_graph_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn pipelined_reply_routing_sequences_are_clean() {
        use PipelinedAction as P;
        for seq in [
            // Plain pipelining: two in flight, collected in issue order.
            vec![P::IssueA, P::IssueB, P::CollectA, P::CollectB],
            // Collected in reverse: the demux resolves B first and
            // parks A's reply for its later collect.
            vec![P::IssueA, P::IssueB, P::CollectB, P::CollectA],
            // Replies cross on the wire: routing must follow call ids,
            // not arrival order.
            vec![
                P::IssueA,
                P::IssueB,
                P::SwapReplies,
                P::CollectA,
                P::CollectB,
            ],
            // A's reply is lost: its collect retransmits and replays
            // from the cache while B's reply sits queued behind it.
            vec![P::IssueA, P::IssueB, P::DropReply, P::CollectA, P::CollectB],
            // Collect with nothing in flight: the typed NoPendingCall
            // error, not a panic.
            vec![P::IssueA, P::CollectA, P::CollectA],
            // Back-to-back rounds reuse the slots with evolved values.
            vec![
                P::IssueA,
                P::CollectA,
                P::IssueB,
                P::IssueA,
                P::SwapReplies,
                P::CollectA,
                P::CollectB,
            ],
        ] {
            let report = check_pipelined_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn reactor_dispatch_sequences_are_clean() {
        use ReactorAction as R;
        for seq in [
            // One call through the whole offload path.
            vec![R::IssueA, R::RunJob, R::CollectA],
            // Both connections in flight; jobs drain in either order
            // relative to collects, replies route by connection.
            vec![
                R::IssueA,
                R::IssueB,
                R::RunJob,
                R::RunJob,
                R::CollectB,
                R::CollectA,
            ],
            // Collect before the job ran: a no-op, then the real thing.
            vec![R::IssueA, R::CollectA, R::RunJob, R::CollectA],
            // Retransmission of a queued call: ignored (in progress),
            // executed once, collected once.
            vec![R::IssueA, R::RetransmitA, R::RunJob, R::CollectA],
            // Retransmission of an executed call: answered from the
            // cache, and the cached reply satisfies the collect.
            vec![R::IssueA, R::RunJob, R::RetransmitA, R::CollectA],
            // Back-to-back rounds on one connection interleaved with
            // the other: consecutive calls land on different worker
            // heaps.
            vec![
                R::IssueA,
                R::RunJob,
                R::CollectA,
                R::IssueB,
                R::IssueA,
                R::RunJob,
                R::RunJob,
                R::CollectA,
                R::CollectB,
            ],
        ] {
            let report = check_reactor_sequence(&seq);
            assert!(
                !report.has_errors(),
                "sequence {seq:?} failed:\n{}",
                report.render()
            );
        }
    }

    /// Steps a fresh `W` through `actions` and returns its report with
    /// the number of service executions the world saw.
    fn executions_after<W: World>(
        actions: &[W::Action],
        fx: impl Fn(&W) -> &Arc<AtomicUsize>,
    ) -> (Report, usize) {
        let mut world = W::new();
        let mut report = Report::new();
        for &action in actions {
            world.step(action, &mut report);
        }
        let ran = fx(&world).load(Ordering::SeqCst);
        (report, ran)
    }

    #[test]
    fn reactor_world_replays_retransmissions_from_the_cache() {
        use ReactorAction as R;
        let (report, ran) = executions_after::<ReactorWorld>(
            &[
                R::IssueA,
                R::RetransmitA,
                R::RunJob,
                R::RetransmitA,
                R::CollectA,
            ],
            |w| &w.fx.executions,
        );
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            ran, 1,
            "two retransmissions around one execution must not re-execute"
        );
    }

    #[test]
    fn pipelined_world_counts_one_execution_per_issued_call() {
        use PipelinedAction as P;
        let (report, ran) = executions_after::<PipelinedWorld>(
            &[P::IssueA, P::IssueB, P::DropReply, P::CollectA, P::CollectB],
            |w| &w.fx.executions,
        );
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            ran, 2,
            "the dropped reply's retransmission must replay, not re-execute"
        );
    }

    #[test]
    fn shared_world_counts_executions_across_connections() {
        use SharedAction as S;
        let (report, ran) =
            executions_after::<SharedWorld>(&[S::CallA, S::CallB, S::CallA], |w| &w.fx.executions);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            ran, 3,
            "each connection's calls execute exactly once on the shared server"
        );
    }

    #[test]
    fn duplicate_without_reply_cache_would_be_caught() {
        // Sanity that the at-most-once counter is live: dispatching the
        // same tagged request twice directly at a fresh server must
        // execute once and replay once.
        use ReliabilityAction as R;
        let (report, ran) =
            executions_after::<ReliableWorld>(&[R::DuplicateRequest, R::Call], |w| {
                &w.fx.executions
            });
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(ran, 1, "the duplicated request must execute exactly once");
    }

    // -----------------------------------------------------------------------
    // Planted faults: every oracle code still fires
    // -----------------------------------------------------------------------

    /// Steps a fresh `W` cleanly through `before`, plants a fault in its
    /// fixture state, steps `after`, and returns what that step reported.
    fn planted<W: World>(
        before: &[W::Action],
        plant: impl FnOnce(&mut W),
        after: W::Action,
    ) -> Report {
        let mut world = W::new();
        let mut report = Report::new();
        for &action in before {
            world.step(action, &mut report);
        }
        assert!(!report.has_errors(), "clean prefix: {}", report.render());
        plant(&mut world);
        world.step(after, &mut report);
        report
    }

    /// Writes endpoint `ep`'s client root behind its twin's back.
    fn write_client_root<W>(fx: &mut Fixture<W>, ep: usize) {
        let e = &mut fx.endpoints[ep];
        bump(&mut e.client.state.heap, e.graphs[0].root, 1).expect("planted write");
    }

    /// Writes graph `g` of endpoint `ep` in the twin behind the client's
    /// back, so the oracle's next answer differs from the middleware's.
    fn write_twin_root<W>(fx: &mut Fixture<W>, ep: usize, g: usize) {
        let e = &mut fx.endpoints[ep];
        bump(&mut e.twin, e.graphs[g].twin_root, 1).expect("planted write");
    }

    #[test]
    fn p003_fires_when_the_client_graph_leaves_its_twin() {
        let report = planted::<CoreWorld>(
            &[Action::Call],
            |w| write_client_root(&mut w.fx, 0),
            Action::Call,
        );
        assert!(report.has_code("NRMI-P003"), "{}", report.render());
    }

    #[test]
    fn p007_fires_on_an_unaccounted_execution() {
        use ReliabilityAction as R;
        let report = planted::<ReliableWorld>(
            &[R::Call],
            |w| {
                w.fx.executions.fetch_add(1, Ordering::SeqCst);
            },
            R::Call,
        );
        assert!(report.has_code("NRMI-P007"), "{}", report.render());
    }

    #[test]
    fn p008_fires_when_one_connection_sees_a_torn_graph() {
        use SharedAction as S;
        let report = planted::<SharedWorld>(
            &[S::CallA, S::CallB],
            |w| write_client_root(&mut w.fx, 1),
            S::CallB,
        );
        assert!(report.has_code("NRMI-P008"), "{}", report.render());
    }

    #[test]
    fn p009_fires_when_a_collected_value_is_not_its_calls() {
        use PipelinedAction as P;
        let report = planted::<PipelinedWorld>(
            &[P::IssueA, P::IssueB],
            |w| write_twin_root(&mut w.fx, 0, 1),
            P::CollectB,
        );
        assert!(report.has_code("NRMI-P009"), "{}", report.render());
    }

    #[test]
    fn p010_fires_when_a_worker_reply_is_not_its_calls() {
        use ReactorAction as R;
        let report = planted::<ReactorWorld>(
            &[R::IssueA, R::RunJob],
            |w| write_twin_root(&mut w.fx, 0, 0),
            R::CollectA,
        );
        assert!(report.has_code("NRMI-P010"), "{}", report.render());
    }

    #[test]
    fn p011_fires_when_a_shared_graph_client_leaves_its_twin() {
        use SharedGraphAction as G;
        let report = planted::<SharedGraphWorld>(
            &[G::CallA, G::CallB],
            |w| write_client_root(&mut w.fx, 0),
            G::CallA,
        );
        assert!(report.has_code("NRMI-P011"), "{}", report.render());
    }

    #[test]
    fn p011_fires_when_a_leased_object_dies() {
        use SharedGraphAction as G;
        let report = planted::<SharedGraphWorld>(
            &[G::CallA, G::CallB],
            |w| {
                let (cache_id, _) = w.fx.session(1).expect("B holds a session");
                let link = w.fx.links[1].state();
                let leased = *link
                    .caches
                    .sync_ids_of(cache_id)
                    .expect("live")
                    .last()
                    .expect("synced");
                link.node
                    .lock()
                    .expect("poisoned")
                    .state
                    .heap
                    .free(leased)
                    .expect("planted free");
            },
            G::MutateA,
        );
        assert!(report.has_code("NRMI-P011"), "{}", report.render());
    }

    #[test]
    fn p011_fires_when_a_lease_is_miscounted() {
        use SharedGraphAction as G;
        let report = planted::<SharedGraphWorld>(
            &[G::CallA, G::CallB],
            |w| {
                // A teardown that forgets to release: A's caches are
                // replaced without giving their leases back.
                let mut link = w.fx.links[0].state();
                let leases = Arc::clone(&link.node.lock().expect("poisoned").leases);
                link.caches = WarmCaches::with_leases(leases);
            },
            G::MutateB,
        );
        assert!(report.has_code("NRMI-P011"), "{}", report.render());
        assert!(report.render().contains("lease table out of step"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-depth enumeration; run in release (CI check job)"
    )]
    fn full_depth_enumeration_is_clean() {
        let report = model_check(&ModelCheckConfig::default());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.render().contains("explored 67282 sequences"));
    }

    #[test]
    fn judge_rejects_stale_service() {
        // A reply to a stale generation is the canonical state-corruption
        // bug; the judge must flag it.
        let diag = judge_reply(
            ReplyContext::StaleGeneration,
            &Frame::CallReply { payload: vec![] },
        )
        .expect("must be flagged");
        assert_eq!(diag.code, "NRMI-P004");
        assert!(judge_reply(ReplyContext::StaleGeneration, &Frame::CacheMiss).is_none());
        assert!(judge_reply(
            ReplyContext::GarbagePayload,
            &Frame::CallReply { payload: vec![] }
        )
        .is_some());
        assert!(judge_reply(ReplyContext::SeedCall, &Frame::CacheMiss).is_some());
        assert!(
            judge_reply(ReplyContext::WarmInStep, &Frame::CacheMiss).is_none(),
            "in-step miss is legal (invalidation)"
        );
    }
}
