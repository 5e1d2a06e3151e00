//! Protocol model checker for the warm-call handshake (`NRMI-P00x`).
//!
//! The cold/warm/delta handshake is encoded as an explicit transition
//! system over [`Frame`] message types, and [`model_check`] exhaustively
//! enumerates every bounded sequence of protocol actions against the
//! **real** implementation: [`client_invoke_warm_with_stats`] on one
//! side, the serve core's [`Connection::step`] on the other, joined by
//! an in-process dispatch transport instead of threads. Each sequence runs
//! a fresh client/server pair from scratch, so every prefix of every
//! enumerated sequence is exercised.
//!
//! ## Action alphabet
//!
//! The *core* alphabet drives the protocol through its honest
//! transitions:
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
//! ## Invariants, checked after every action
//!
//! * `P001` / `P002` — client / server heap fails
//!   [`nrmi_heap::validate`] (the shared corruption oracle).
//! * `P003` — warm result diverges from the **local oracle twin**: a
//!   plain local heap holding the same graph, mutated by the same
//!   deterministic service logic with no middleware in between. After
//!   every `Call`, the warm return value must equal the twin's and the
//!   two graphs must be [`nrmi_heap::graph::isomorphic`]. Because the
//!   twin is exactly what a cold copy-restore call computes, warm ≡ twin
//!   subsumes warm ≡ cold.
//! * `P004` — an unexpected frame or transport outcome: a reply the
//!   state machine forbids ([`judge_reply`]), or a deadlock (the client
//!   blocks on a reply the server never produced, surfaced as a
//!   disconnect by the queue-backed transport).
//! * `P005` — generation lockstep broken: the client's next-generation
//!   counter disagrees with the server's for a live session.
//! * `P006` — a panic anywhere in the sequence (caught per sequence;
//!   the diagnostic carries the action trace and panic message).
//! * `P007` — at-most-once broken: the number of service executions
//!   disagrees with the number of completed calls, under faults (the
//!   reliability model) or across two connections sharing one reply
//!   cache (the shared model).
//! * `P008` — a reply observed a torn heap state: after any
//!   two-connection interleaving on the lock-split shared server, some
//!   client graph no longer matches its private oracle twin — another
//!   connection's call leaked into this one's restore.
//! * `P009` — reply routing broken: with several calls in flight on one
//!   multiplexed connection (the pipelined model), a reply resolved the
//!   wrong call — a collected value diverged from that call's private
//!   oracle, a consumed call id produced a ghost reply, or a call frame
//!   escaped the connection untagged.
//! * `P010` — the reactor dispatch discipline broken: enumerating the
//!   real [`nrmi_core::reactor_classify`] step function over two
//!   connections and an explicit job queue (the reactor model), a fresh
//!   pipelineable call failed to offload, a retransmitted call id
//!   offloaded a second execution, a reply reached the wrong
//!   connection, or a worker dispatch restored a graph its private
//!   oracle disowns (a torn heap) — each checked against
//!   per-connection oracle twins exactly as `P008`/`P009` are.
//! * `P011` — shared-graph coherence or lease safety broken: with two
//!   warm clients leased onto ONE server heap (the shared-graph model),
//!   each call writing the other's graph out-of-band, a client read
//!   stale state, a `CacheStale` repair clobbered an unshipped local
//!   write (the positional merge rule), or a connection teardown freed
//!   an object another connection's live session still synchronizes.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nrmi_core::ClientNode;
use nrmi_core::{
    client_apply_reply, client_evict_warm, client_invoke_warm_with_stats, client_marshal_call,
    CallOptions, Connection, FnService, NrmiError, PassMode, PendingCall, ReactorStep, ServerNode,
    WarmCaches,
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
// The dispatch transport: client and server joined without threads
// ---------------------------------------------------------------------------

/// A transport that swallows frames and never produces one; stands in
/// for the (unused) callback channel when the checker steps the server
/// directly.
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

/// The model's serial driver, minus the socket: runs `frame` through
/// the production [`Connection::step`] and returns what a driver would
/// write, in order. The model's links have no worker pool and no driver
/// above them, so an offload or a frame the step has no rule for is
/// answered with an error the checker will surface.
fn step_replies(node: &mut ServerNode, caches: &mut WarmCaches, frame: &Frame) -> Vec<Frame> {
    let mut conn = Connection::new(node, caches);
    match conn.step(&mut NullTransport, frame.clone()) {
        step @ (ReactorStep::Offload { .. } | ReactorStep::Escalate(_)) => {
            vec![Frame::CallError {
                message: format!("checker: unmodeled step {step:?}"),
            }]
        }
        step => step.into_replies().collect(),
    }
}

/// The server side of the model: a real [`ServerNode`] plus its warm
/// caches, exposed to the client as a [`Transport`]. `send` steps the
/// frame synchronously ([`step_replies`]) and queues the replies; `recv`
/// drains the queue. A recv on an empty queue means the
/// server produced no reply — the threaded deployment would deadlock —
/// and surfaces as [`TransportError::Disconnected`], which the checker
/// reports as `NRMI-P004`.
struct ServerSide {
    server: ServerNode,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
    faults: FaultFlags,
}

/// Single-shot fault counters the reliability alphabet arms; each is
/// consumed by the next frame it applies to.
#[derive(Default)]
struct FaultFlags {
    drop_requests: u32,
    drop_replies: u32,
    duplicate_requests: u32,
    disconnects: u32,
}

impl ServerSide {
    fn dispatch(&mut self, frame: &Frame) -> Vec<Frame> {
        step_replies(&mut self.server, &mut self.caches, frame)
    }
}

impl Transport for ServerSide {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let replies = self.dispatch(frame);
        self.replies.extend(replies);
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        // An empty queue is the no-reply deadlock, made finite.
        self.replies.pop_front().ok_or(TransportError::Disconnected)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }
}

// ---------------------------------------------------------------------------
// The world: real client + real server + local oracle twin
// ---------------------------------------------------------------------------

const SVC: &str = "svc";
const METHOD: &str = "run";

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

/// One fresh client/server/twin triple, re-created per enumerated
/// sequence.
struct World {
    client: ClientNode,
    link: ServerSide,
    root: ObjId,
    /// The oracle: a plain local heap holding the same graph, touched by
    /// the same logic with no middleware in between.
    twin: Heap,
    twin_root: ObjId,
    /// The server-side root of the cached session graph, leaked by the
    /// service body so `MutateServer` can poke it out-of-band.
    server_root: Arc<Mutex<Option<ObjId>>>,
    /// True when the client has written the root object since its last
    /// completed call. The coherence merge rule keys off this: a
    /// server-side poke of the root is only *visible* to the next call
    /// when the client's own request delta does not rewrite the root
    /// (client wins at object granularity when it does).
    client_wrote_root: bool,
    /// Counter for grafted nodes (also mirrored into the twin).
    next_data: i32,
}

impl WorldModel for World {
    type Action = Action;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        let server_root: Arc<Mutex<Option<ObjId>>> = Arc::new(Mutex::new(None));
        let leaked = Arc::clone(&server_root);
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a root reference"))?;
                *leaked.lock().expect("poisoned") = Some(root);
                service_logic(heap, root)
            })),
        );

        let root = build_tree(&mut client.state.heap, &registry);
        let mut twin = Heap::new(registry.clone());
        let twin_root = build_tree(&mut twin, &registry);

        World {
            client,
            link: ServerSide {
                server,
                caches: WarmCaches::new(),
                replies: VecDeque::new(),
                faults: FaultFlags::default(),
            },
            root,
            twin,
            twin_root,
            server_root,
            client_wrote_root: false,
            next_data: 100,
        }
    }

    /// Applies one action to the world, reporting violations into
    /// `report`.
    fn step(&mut self, action: Action, report: &mut Report) {
        match action {
            Action::Call => self.do_call(report),
            Action::MutateClient => self.do_mutate_client(report),
            Action::Graft => self.do_graft(report),
            Action::Prune => self.do_prune(report),
            Action::MutateServer => self.do_mutate_server(),
            Action::Evict => self.do_evict(report),
            Action::StaleGeneration => self.inject(ReplyContext::StaleGeneration, report),
            Action::UnknownCache => self.inject(ReplyContext::UnknownCache, report),
            Action::GarbagePayload => self.inject(ReplyContext::GarbagePayload, report),
        }
        self.check_heaps(report);
        self.check_lockstep(report);
    }
}

impl World {
    /// Mirrors the coherence merge rule into the twin: a `MutateServer`
    /// poke of the root becomes visible to the next call exactly when
    /// the warm session is live on both sides **and** the client has not
    /// written the root itself since its last call (otherwise the
    /// client's in-flight slots win and the poke is erased). When
    /// visible, the server's current root `data` is what the call will
    /// compute with, so the twin adopts it. When the server was never
    /// poked this is a no-op: between calls only pokes can make the
    /// server's root diverge from the twin's.
    fn sync_twin_with_visible_pokes(&mut self) {
        if self.client_wrote_root {
            return;
        }
        let Some(server_root) = *self.server_root.lock().expect("poisoned") else {
            return;
        };
        let (Some(cache_id), Some(client_gen)) = (
            self.client.warm.cache_id(SVC),
            self.client.warm.generation(SVC),
        ) else {
            return; // no client session: the next call reseeds wholesale
        };
        if self.link.caches.generation_of(cache_id) != Some(client_gen) {
            return; // server entry gone or out of step: reseed, not repair
        }
        if let Ok(Value::Int(d)) = self.link.server.state.heap.get_field(server_root, "data") {
            let _ = self.twin.set_field(self.twin_root, "data", Value::Int(d));
        }
    }

    fn do_call(&mut self, report: &mut Report) {
        self.sync_twin_with_visible_pokes();
        self.client_wrote_root = false;
        let warm = client_invoke_warm_with_stats(
            &mut self.client,
            &mut self.link,
            SVC,
            METHOD,
            &[Value::Ref(self.root)],
        );
        let oracle = service_logic(&mut self.twin, self.twin_root);
        match (warm, oracle) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(
                        Diagnostic::error(
                            "NRMI-P003",
                            format!(
                                "warm call diverged from the local oracle: warm returned \
                                 {got:?}, direct execution returned {want:?}"
                            ),
                        )
                        .with("warm", format!("{got:?}"))
                        .with("oracle", format!("{want:?}")),
                    );
                }
                match graph::isomorphic(
                    &self.client.state.heap,
                    self.root,
                    &self.twin,
                    self.twin_root,
                ) {
                    Ok(true) => {}
                    Ok(false) => report.push(Diagnostic::error(
                        "NRMI-P003",
                        "restored client graph is not isomorphic to the local oracle graph",
                    )),
                    Err(e) => report.push(Diagnostic::error(
                        "NRMI-P003",
                        format!("isomorphism comparison failed: {e}"),
                    )),
                }
            }
            (Err(e), Ok(_)) => report.push(
                Diagnostic::error(
                    "NRMI-P004",
                    format!("warm call failed where the oracle succeeded: {e}"),
                )
                .with("error", e.to_string()),
            ),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn do_mutate_client(&mut self, report: &mut Report) {
        for (heap, root) in [
            (&mut self.client.state.heap, self.root),
            (&mut self.twin, self.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let d = heap
                    .get_field(root, "data")?
                    .as_int()
                    .ok_or_else(|| NrmiError::app("data is not an int"))?;
                heap.set_field(root, "data", Value::Int(d.wrapping_add(10)))?;
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client mutation failed: {e}"),
                ));
            }
        }
        self.client_wrote_root = true;
    }

    fn do_graft(&mut self, report: &mut Report) {
        let data = self.next_data;
        self.next_data += 1;
        self.client_wrote_root = true; // root.left is rewritten below
        for (heap, root) in [
            (&mut self.client.state.heap, self.root),
            (&mut self.twin, self.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let class = heap.registry().by_name("Node").expect("registered");
                let old_left = heap.get_field(root, "left")?;
                let fresh = heap.alloc(class, vec![Value::Int(data), old_left, Value::Null])?;
                heap.set_field(root, "left", Value::Ref(fresh))?;
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client graft failed: {e}"),
                ));
            }
        }
    }

    fn do_prune(&mut self, report: &mut Report) {
        // A prune only writes the root when there is something to cut;
        // both heaps agree on that by lockstep construction.
        if matches!(self.client.state.heap.get_ref(self.root, "left"), Ok(Some(_))) {
            self.client_wrote_root = true;
        }
        for (heap, root) in [
            (&mut self.client.state.heap, self.root),
            (&mut self.twin, self.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let Some(left) = heap.get_ref(root, "left")? else {
                    return Ok(()); // nothing to prune
                };
                heap.set_field(root, "left", Value::Null)?;
                // The graph is a tree by construction, so the whole left
                // subtree is garbage once unlinked.
                for id in reachable_from(heap, left) {
                    heap.free(id)?;
                }
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client prune failed: {e}"),
                ));
            }
        }
    }

    fn do_mutate_server(&mut self) {
        // An out-of-band server-side write: another connection or a local
        // caller touching the cached graph. The version vector must keep
        // the next warm call from reading stale state — either a
        // `CacheStale` patch repairs the client's copy, or the client's
        // own in-flight write to the same object wins the merge.
        let root = *self.server_root.lock().expect("poisoned");
        if let Some(root) = root {
            let heap = &mut self.link.server.state.heap;
            if let Ok(Value::Int(d)) = heap.get_field(root, "data") {
                let _ = heap.set_field(root, "data", Value::Int(d.wrapping_add(1000)));
            }
        }
    }

    fn do_evict(&mut self, report: &mut Report) {
        if let Err(e) = client_evict_warm(&mut self.client, &mut self.link, SVC) {
            report.push(Diagnostic::error(
                "NRMI-P004",
                format!("eviction failed: {e}"),
            ));
        }
        // The eviction freed the server's session graph; the leaked root
        // no longer names anything MutateServer may touch.
        *self.server_root.lock().expect("poisoned") = None;
    }

    /// Builds and injects one hostile frame, judging the reply against
    /// the state machine.
    fn inject(&mut self, ctx: ReplyContext, report: &mut Report) {
        let mode = CallOptions::copy_restore_delta().to_wire();
        let frame = match ctx {
            ReplyContext::StaleGeneration => {
                let (Some(cache_id), Some(generation)) = (
                    self.client.warm.cache_id(SVC),
                    self.client.warm.generation(SVC),
                ) else {
                    return; // no session to be stale against
                };
                Frame::CallRequestWarm {
                    service: SVC.to_owned(),
                    method: METHOD.to_owned(),
                    mode,
                    cache_id,
                    generation: generation + 7,
                    payload: Vec::new(),
                }
            }
            ReplyContext::UnknownCache => Frame::CallRequestWarm {
                service: SVC.to_owned(),
                method: METHOD.to_owned(),
                mode,
                cache_id: u64::MAX,
                generation: 3,
                payload: Vec::new(),
            },
            ReplyContext::GarbagePayload => {
                let (Some(cache_id), Some(generation)) = (
                    self.client.warm.cache_id(SVC),
                    self.client.warm.generation(SVC),
                ) else {
                    return; // garbage against a live session or nothing
                };
                Frame::CallRequestWarm {
                    service: SVC.to_owned(),
                    method: METHOD.to_owned(),
                    mode,
                    cache_id,
                    generation,
                    payload: vec![0xFF, 0x00, 0x01],
                }
            }
            _ => unreachable!("inject only models adversarial contexts"),
        };
        // The call's own reply is the last frame the step answers with
        // (pushed invalidations travel ahead of it).
        match self.link.dispatch(&frame).pop() {
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
        // The injected frame consumed the server-side entry (dropped on
        // mismatch/garbage): the honest client is now out of sync by
        // design and recovers through CacheMiss → reseed on its next
        // call. That recovery is part of what the enumeration covers.
    }

    fn check_heaps(&mut self, report: &mut Report) {
        for (label, code, heap) in [
            ("client", "NRMI-P001", &self.client.state.heap),
            ("server", "NRMI-P002", &self.link.server.state.heap),
            ("oracle", "NRMI-P001", &self.twin),
        ] {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{label} heap corrupted: {v}"))
                        .with("heap", label),
                );
            }
        }
    }

    fn check_lockstep(&mut self, report: &mut Report) {
        let (Some(cache_id), Some(client_gen)) = (
            self.client.warm.cache_id(SVC),
            self.client.warm.generation(SVC),
        ) else {
            return;
        };
        // The server may legitimately have dropped the entry (coherence,
        // injection); lockstep only binds while both sides are live.
        if let Some(server_gen) = self.link.caches.generation_of(cache_id) {
            if server_gen != client_gen {
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
}

/// Allocates the initial three-node tree `root(1, left(2), right(3))`.
fn build_tree(heap: &mut Heap, registry: &nrmi_heap::SharedRegistry) -> ObjId {
    let class = registry.by_name("Node").expect("registered");
    let left = heap
        .alloc(class, vec![Value::Int(2), Value::Null, Value::Null])
        .expect("alloc");
    let right = heap
        .alloc(class, vec![Value::Int(3), Value::Null, Value::Null])
        .expect("alloc");
    heap.alloc(
        class,
        vec![Value::Int(1), Value::Ref(left), Value::Ref(right)],
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

// ---------------------------------------------------------------------------
// The reliability model: the real retry client against a lossy link
// ---------------------------------------------------------------------------

/// One action of the reliability alphabet, driving the real
/// [`ReliableTransport`](nrmi_core::ReliableTransport) client over a
/// lossy in-process link against the real server-side reply cache.
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

/// The lossy link: a handle on the shared [`ServerSide`] that consumes
/// the armed fault flags. Unlike the bare `ServerSide` transport (where
/// an empty queue is a deadlock), an empty queue here is a `Timeout` —
/// the client's retry loop, not the checker, decides what that means.
struct LossyLink(Arc<Mutex<ServerSide>>);

impl Transport for LossyLink {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut side = self.0.lock().expect("poisoned");
        let tagged = matches!(frame, Frame::Tagged { .. });
        if tagged && side.faults.drop_requests > 0 {
            side.faults.drop_requests -= 1;
            return Ok(()); // the request is lost in flight
        }
        let copies = if tagged && side.faults.duplicate_requests > 0 {
            side.faults.duplicate_requests -= 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            for reply in side.dispatch(frame) {
                if side.faults.drop_replies > 0 {
                    side.faults.drop_replies -= 1; // the reply is lost
                } else {
                    side.replies.push_back(reply);
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        let mut side = self.0.lock().expect("poisoned");
        if side.faults.disconnects > 0 {
            side.faults.disconnects -= 1;
            return Err(TransportError::Disconnected);
        }
        side.replies.pop_front().ok_or(TransportError::Timeout)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }

    fn reconnect(&mut self) -> nrmi_transport::Result<bool> {
        let mut side = self.0.lock().expect("poisoned");
        // A fresh connection: per-connection warm session graphs are
        // released (as serve_connection's teardown does) and queued
        // replies die with the old socket. The reply cache lives on the
        // node and survives — that is the property under test.
        let ServerSide { server, caches, .. } = &mut *side;
        caches.release_all(&mut server.state.heap);
        side.replies.clear();
        Ok(true)
    }
}

/// Fresh world per reliability sequence: the real warm client behind a
/// real [`ReliableTransport`](nrmi_core::ReliableTransport), the real
/// server + reply cache behind a [`LossyLink`], and the local oracle
/// twin. The service counts its executions so duplicate execution is
/// observable directly, not only through graph divergence.
struct ReliableWorld {
    client: ClientNode,
    transport: nrmi_core::ReliableTransport<LossyLink>,
    side: Arc<Mutex<ServerSide>>,
    root: ObjId,
    twin: Heap,
    twin_root: ObjId,
    executions: Arc<std::sync::atomic::AtomicUsize>,
    expected_executions: usize,
}

impl WorldModel for ReliableWorld {
    type Action = ReliabilityAction;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        let executions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a root reference"))?;
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                service_logic(heap, root)
            })),
        );

        let root = build_tree(&mut client.state.heap, &registry);
        let mut twin = Heap::new(registry.clone());
        let twin_root = build_tree(&mut twin, &registry);

        let side = Arc::new(Mutex::new(ServerSide {
            server,
            caches: WarmCaches::new(),
            replies: VecDeque::new(),
            faults: FaultFlags::default(),
        }));
        // Instant virtual time: the lossy link never blocks, so retries
        // are bounded by attempts, not wall clock.
        let policy = nrmi_core::RetryPolicy {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_millis(1),
            max_attempts: 16,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        };
        let transport = nrmi_core::ReliableTransport::with_nonce(
            LossyLink(Arc::clone(&side)),
            policy,
            0xC4_11_1D,
        );

        ReliableWorld {
            client,
            transport,
            side,
            root,
            twin,
            twin_root,
            executions,
            expected_executions: 0,
        }
    }

    fn step(&mut self, action: ReliabilityAction, report: &mut Report) {
        match action {
            ReliabilityAction::Call => self.do_call(report),
            ReliabilityAction::MutateClient => self.do_mutate_client(report),
            ReliabilityAction::DropRequest => {
                self.side.lock().expect("poisoned").faults.drop_requests += 1;
            }
            ReliabilityAction::DropReply => {
                self.side.lock().expect("poisoned").faults.drop_replies += 1;
            }
            ReliabilityAction::DuplicateRequest => {
                self.side
                    .lock()
                    .expect("poisoned")
                    .faults
                    .duplicate_requests += 1;
            }
            ReliabilityAction::Disconnect => {
                self.side.lock().expect("poisoned").faults.disconnects += 1;
            }
        }
        self.check_heaps(report);
        self.check_at_most_once(report);
    }
}

impl ReliableWorld {
    fn do_call(&mut self, report: &mut Report) {
        let warm = client_invoke_warm_with_stats(
            &mut self.client,
            &mut self.transport,
            SVC,
            METHOD,
            &[Value::Ref(self.root)],
        );
        let oracle = service_logic(&mut self.twin, self.twin_root);
        self.expected_executions += 1;
        match (warm, oracle) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(Diagnostic::error(
                        "NRMI-P003",
                        format!(
                            "reliable warm call diverged from the oracle: got {got:?}, \
                             want {want:?}"
                        ),
                    ));
                }
                match graph::isomorphic(
                    &self.client.state.heap,
                    self.root,
                    &self.twin,
                    self.twin_root,
                ) {
                    Ok(true) => {}
                    Ok(false) => report.push(Diagnostic::error(
                        "NRMI-P003",
                        "restored graph diverged from the oracle under faults \
                         (a retransmission re-applied the mutation?)",
                    )),
                    Err(e) => report.push(Diagnostic::error(
                        "NRMI-P003",
                        format!("isomorphism comparison failed: {e}"),
                    )),
                }
            }
            (Err(e), Ok(_)) => report.push(
                Diagnostic::error(
                    "NRMI-P004",
                    format!(
                        "reliable call failed where the oracle succeeded \
                         (the retry loop must mask single-shot faults): {e}"
                    ),
                )
                .with("error", e.to_string()),
            ),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn do_mutate_client(&mut self, report: &mut Report) {
        for (heap, root) in [
            (&mut self.client.state.heap, self.root),
            (&mut self.twin, self.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let d = heap
                    .get_field(root, "data")?
                    .as_int()
                    .ok_or_else(|| NrmiError::app("data is not an int"))?;
                heap.set_field(root, "data", Value::Int(d.wrapping_add(10)))?;
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client mutation failed: {e}"),
                ));
            }
        }
    }

    fn check_heaps(&mut self, report: &mut Report) {
        let side = self.side.lock().expect("poisoned");
        for (label, code, heap) in [
            ("client", "NRMI-P001", &self.client.state.heap),
            ("server", "NRMI-P002", &side.server.state.heap),
            ("oracle", "NRMI-P001", &self.twin),
        ] {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{label} heap corrupted: {v}"))
                        .with("heap", label),
                );
            }
        }
    }

    /// The tentpole invariant: under any drop/duplicate/disconnect
    /// schedule, the service body runs exactly once per completed call —
    /// never twice (`NRMI-P007`).
    fn check_at_most_once(&mut self, report: &mut Report) {
        let ran = self.executions.load(std::sync::atomic::Ordering::SeqCst);
        if ran != self.expected_executions {
            report.push(
                Diagnostic::error(
                    "NRMI-P007",
                    format!(
                        "at-most-once violated: {ran} service execution(s) for \
                         {} completed call(s)",
                        self.expected_executions
                    ),
                )
                .with("executions", ran)
                .with("calls", self.expected_executions),
            );
        }
    }
}

/// Runs one reliability action sequence against a fresh world, returning
/// all violations (panics become `NRMI-P006`, as in [`check_sequence`]).
pub fn check_reliability_sequence(actions: &[ReliabilityAction]) -> Report {
    run_sequence::<ReliableWorld>(actions)
}

// ---------------------------------------------------------------------------
// The shared world: two connections against one lock-split server
// ---------------------------------------------------------------------------

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

/// One modeled connection's server half: a per-connection node minted by
/// [`SharedServer::connection_node`] — carrying the *shared* reply cache —
/// and per-connection warm caches, stepped exactly as
/// `serve_connection_pooled` steps them. Implements [`Transport`] for
/// the client the same way [`ServerSide`] does: `send` steps
/// synchronously, `recv` drains the reply queue.
struct SharedLink {
    conn: ServerNode,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
}

impl Transport for SharedLink {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let replies = step_replies(&mut self.conn, &mut self.caches, frame);
        self.replies.extend(replies);
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        self.replies.pop_front().ok_or(TransportError::Disconnected)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }
}

/// One client endpoint of the shared world: the real warm client behind
/// a real [`ReliableTransport`](nrmi_core::ReliableTransport) (so every
/// request crosses the shared reply cache), plus its private oracle twin.
struct SharedEndpoint {
    client: ClientNode,
    transport: nrmi_core::ReliableTransport<SharedLink>,
    root: ObjId,
    twin: Heap,
    twin_root: ObjId,
    completed_calls: usize,
}

/// Fresh two-connection world per enumerated sequence: one
/// [`SharedServer`] (shared bindings + sharded reply cache), two
/// per-connection endpoints, and a shared execution counter for the
/// exactly-once audit.
struct SharedWorld {
    a: SharedEndpoint,
    b: SharedEndpoint,
    executions: Arc<std::sync::atomic::AtomicUsize>,
}

impl WorldModel for SharedWorld {
    type Action = SharedAction;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let executions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a root reference"))?;
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                service_logic(heap, root)
            })),
        );
        let shared = Arc::new(nrmi_core::SharedServer::from_node(server));

        let endpoint = |nonce_seed: u64| -> SharedEndpoint {
            let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
            let root = build_tree(&mut client.state.heap, &registry);
            let mut twin = Heap::new(registry.clone());
            let twin_root = build_tree(&mut twin, &registry);
            let link = SharedLink {
                conn: shared.connection_node(),
                caches: WarmCaches::new(),
                replies: VecDeque::new(),
            };
            // Instant virtual time, as in the reliability model.
            let policy = nrmi_core::RetryPolicy {
                deadline: Duration::from_secs(30),
                attempt_timeout: Duration::from_millis(1),
                max_attempts: 16,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                jitter: false,
            };
            SharedEndpoint {
                client,
                transport: nrmi_core::ReliableTransport::with_nonce(link, policy, nonce_seed),
                root,
                twin,
                twin_root,
                completed_calls: 0,
            }
        };

        SharedWorld {
            // Distinct nonce streams, as two real connections would draw
            // from `fresh_nonce`.
            a: endpoint(0xAAAA_1111),
            b: endpoint(0xBBBB_2222),
            executions,
        }
    }

    fn step(&mut self, action: SharedAction, report: &mut Report) {
        match action {
            SharedAction::CallA => Self::do_call(&mut self.a, "A", report),
            SharedAction::CallB => Self::do_call(&mut self.b, "B", report),
            SharedAction::MutateA => Self::do_mutate(&mut self.a, report),
            SharedAction::MutateB => Self::do_mutate(&mut self.b, report),
            SharedAction::EvictA => Self::do_evict(&mut self.a, "A", report),
            SharedAction::EvictB => Self::do_evict(&mut self.b, "B", report),
        }
        // The concurrency invariant, checked after EVERY action: no
        // endpoint ever observes a torn heap — both restored client
        // graphs stay isomorphic to their private oracles no matter how
        // the other connection's calls interleave (NRMI-P008), all four
        // server/client heaps stay structurally valid, and the service
        // ran exactly once per completed call across both connections.
        self.check_isolation(report);
        self.check_heaps(report);
        self.check_exactly_once(report);
    }
}

impl SharedWorld {
    fn do_call(ep: &mut SharedEndpoint, who: &str, report: &mut Report) {
        let warm = client_invoke_warm_with_stats(
            &mut ep.client,
            &mut ep.transport,
            SVC,
            METHOD,
            &[Value::Ref(ep.root)],
        );
        let oracle = service_logic(&mut ep.twin, ep.twin_root);
        ep.completed_calls += 1;
        match (warm, oracle) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(Diagnostic::error(
                        "NRMI-P003",
                        format!(
                            "connection {who}: warm call diverged from its oracle: \
                             got {got:?}, want {want:?}"
                        ),
                    ));
                }
            }
            (Err(e), Ok(_)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("connection {who}: warm call failed where the oracle succeeded: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn do_mutate(ep: &mut SharedEndpoint, report: &mut Report) {
        for (heap, root) in [
            (&mut ep.client.state.heap, ep.root),
            (&mut ep.twin, ep.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let d = heap
                    .get_field(root, "data")?
                    .as_int()
                    .ok_or_else(|| NrmiError::app("data is not an int"))?;
                heap.set_field(root, "data", Value::Int(d.wrapping_add(10)))?;
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client mutation failed: {e}"),
                ));
            }
        }
    }

    fn do_evict(ep: &mut SharedEndpoint, who: &str, report: &mut Report) {
        if let Err(e) = client_evict_warm(&mut ep.client, &mut ep.transport, SVC) {
            report.push(Diagnostic::error(
                "NRMI-P004",
                format!("connection {who}: eviction failed: {e}"),
            ));
        }
    }

    /// `NRMI-P008`: the lock-split server must keep each connection's
    /// view atomic per call — after any interleaving, each client graph
    /// equals what its own private oracle computed, untouched by the
    /// other connection.
    fn check_isolation(&mut self, report: &mut Report) {
        for (who, ep) in [("A", &self.a), ("B", &self.b)] {
            match graph::isomorphic(&ep.client.state.heap, ep.root, &ep.twin, ep.twin_root) {
                Ok(true) => {}
                Ok(false) => report.push(Diagnostic::error(
                    "NRMI-P008",
                    format!(
                        "connection {who}: client graph diverged from its private oracle — \
                         a reply observed state torn by the other connection"
                    ),
                )),
                Err(e) => report.push(Diagnostic::error(
                    "NRMI-P008",
                    format!("connection {who}: isomorphism comparison failed: {e}"),
                )),
            }
        }
    }

    fn check_heaps(&mut self, report: &mut Report) {
        for (label, code, heap) in [
            ("client A", "NRMI-P001", &self.a.client.state.heap),
            ("client B", "NRMI-P001", &self.b.client.state.heap),
            (
                "connection A",
                "NRMI-P002",
                &self.a.transport.inner().conn.state.heap,
            ),
            (
                "connection B",
                "NRMI-P002",
                &self.b.transport.inner().conn.state.heap,
            ),
            ("oracle A", "NRMI-P001", &self.a.twin),
            ("oracle B", "NRMI-P001", &self.b.twin),
        ] {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{label} heap corrupted: {v}"))
                        .with("heap", label),
                );
            }
        }
    }

    fn check_exactly_once(&mut self, report: &mut Report) {
        let ran = self.executions.load(std::sync::atomic::Ordering::SeqCst);
        let expected = self.a.completed_calls + self.b.completed_calls;
        if ran != expected {
            report.push(Diagnostic::error(
                "NRMI-P007",
                format!(
                    "shared reply cache broke exactly-once across connections: \
                     {ran} execution(s) for {expected} completed call(s)"
                ),
            ));
        }
    }
}

/// Runs one two-connection action sequence against a fresh shared world,
/// returning all violations (panics become `NRMI-P006`).
pub fn check_shared_sequence(actions: &[SharedAction]) -> Report {
    run_sequence::<SharedWorld>(actions)
}

// ---------------------------------------------------------------------------
// The shared-graph world: two warm clients leased onto one server heap
// ---------------------------------------------------------------------------

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

/// Name → server-side root of each endpoint's *live* session graph, as
/// the services see it. The MODEL maintains hygiene — entries leave at
/// eviction and teardown — because a freed root id can be recycled into
/// another session's graph, and poking a recycled id would be a checker
/// artifact, not a middleware bug (real out-of-band writers reach the
/// shared graph through live references, not saved ids).
type SgRegistry = Arc<Mutex<Vec<(&'static str, ObjId)>>>;

/// One endpoint's connection half: the shared [`ServerNode`] behind a
/// mutex (the model is sequential; the lock only shares ownership), this
/// connection's own lease-registered [`WarmCaches`], and a reply queue.
/// `send` steps synchronously like [`ServerSide`] — lock, step, queue:
/// the big-lock driver without the socket.
struct SgLink {
    server: Arc<Mutex<ServerNode>>,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
}

impl Transport for SgLink {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut server = self.server.lock().expect("poisoned");
        let replies = step_replies(&mut server, &mut self.caches, frame);
        self.replies.extend(replies);
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        self.replies.pop_front().ok_or(TransportError::Disconnected)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }
}

/// One client endpoint of the shared-graph world: the real warm client,
/// its connection link, and a private oracle twin with the
/// visible-pokes bookkeeping of the single-client [`World`].
struct SgEndpoint {
    /// The service this endpoint calls; its body knows the endpoint's
    /// name and pokes every OTHER registered root.
    svc: &'static str,
    name: &'static str,
    client: ClientNode,
    link: SgLink,
    root: ObjId,
    twin: Heap,
    twin_root: ObjId,
    /// True if this endpoint wrote its root since its last call: its
    /// next request delta carries the position, so the positional merge
    /// lets the client win and the peer's poke is erased (the twin must
    /// NOT adopt it).
    wrote_root: bool,
}

/// Fresh two-client shared-graph world per enumerated sequence: one
/// server heap, one lease table, two leased connections, one root
/// registry the services poke through.
struct SharedGraphWorld {
    server: Arc<Mutex<ServerNode>>,
    registry: SgRegistry,
    a: SgEndpoint,
    b: SgEndpoint,
}

/// How much a service call perturbs the OTHER endpoint's root `data` —
/// distinctive so a stale read stands out from the ×3+1 service values.
const SG_POKE: i32 = 100;

impl WorldModel for SharedGraphWorld {
    type Action = SharedGraphAction;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let roots: SgRegistry = Arc::new(Mutex::new(Vec::new()));
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        for (svc, name) in [("svc.a", "A"), ("svc.b", "B")] {
            let roots = Arc::clone(&roots);
            server.bind(
                svc,
                Box::new(FnService::new(move |_method, args, heap| {
                    let root = args[0]
                        .as_ref_id()
                        .ok_or_else(|| NrmiError::app("want a root reference"))?;
                    let mut reg = roots.lock().expect("poisoned");
                    // (Re-)register this endpoint's live root — a reseed
                    // materializes the graph at fresh ids.
                    match reg.iter_mut().find(|(n, _)| *n == name) {
                        Some(slot) => slot.1 = root,
                        None => reg.push((name, root)),
                    }
                    // The out-of-band write: perturb every OTHER live
                    // root. From the peer session's point of view this
                    // is exactly the coherence hazard — its server-side
                    // graph changed underneath its warm cache.
                    for &(other, id) in reg.iter().filter(|(n, _)| *n != name) {
                        let d = heap
                            .get_field(id, "data")?
                            .as_int()
                            .ok_or_else(|| NrmiError::app(format!("{other}: data not int")))?;
                        heap.set_field(id, "data", Value::Int(d.wrapping_add(SG_POKE)))?;
                    }
                    drop(reg);
                    service_logic(heap, root)
                })),
            );
        }
        let leases = Arc::clone(&server.leases);
        let server = Arc::new(Mutex::new(server));

        let endpoint = |svc: &'static str, name: &'static str| -> SgEndpoint {
            let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
            let root = build_tree(&mut client.state.heap, &registry);
            let mut twin = Heap::new(registry.clone());
            let twin_root = build_tree(&mut twin, &registry);
            SgEndpoint {
                svc,
                name,
                client,
                link: SgLink {
                    server: Arc::clone(&server),
                    caches: WarmCaches::with_leases(Arc::clone(&leases)),
                    replies: VecDeque::new(),
                },
                root,
                twin,
                twin_root,
                wrote_root: false,
            }
        };

        SharedGraphWorld {
            a: endpoint("svc.a", "A"),
            b: endpoint("svc.b", "B"),
            server,
            registry: roots,
        }
    }

    fn step(&mut self, action: SharedGraphAction, report: &mut Report) {
        match action {
            SharedGraphAction::CallA => self.do_call(true, report),
            SharedGraphAction::CallB => self.do_call(false, report),
            SharedGraphAction::MutateA => Self::do_mutate(&mut self.a, report),
            SharedGraphAction::MutateB => Self::do_mutate(&mut self.b, report),
            SharedGraphAction::EvictA => self.do_evict(true, report),
            SharedGraphAction::EvictB => self.do_evict(false, report),
            SharedGraphAction::DropA => self.do_drop_a(report),
        }
        // Checked after EVERY action: neither client ever reads stale
        // state or loses a write (graph ≡ its private oracle), every
        // live session's leased objects are still alive, and all heaps
        // stay structurally valid.
        self.check_coherence(report);
        self.check_lease_liveness(report);
        self.check_heaps(report);
    }
}

impl SharedGraphWorld {
    /// The oracle's visibility rule, as in the single-client [`World`]:
    /// a peer's poke becomes visible to this endpoint's next call iff
    /// its warm session is live in generation lockstep (the repair path
    /// reaches it) AND it has not written the root itself since its last
    /// call (else its delta wins positionally and the poke is erased).
    /// When visible, the twin adopts the server root's current data.
    fn sync_twin_with_visible_pokes(&mut self, a_side: bool) {
        let ep = if a_side { &mut self.a } else { &mut self.b };
        if ep.wrote_root {
            return;
        }
        let (Some(cache_id), Some(client_gen)) = (
            ep.client.warm.cache_id(ep.svc),
            ep.client.warm.generation(ep.svc),
        ) else {
            return;
        };
        if ep.link.caches.generation_of(cache_id) != Some(client_gen) {
            return;
        }
        let Some(server_root) = self
            .registry
            .lock()
            .expect("poisoned")
            .iter()
            .find(|(n, _)| *n == ep.name)
            .map(|&(_, id)| id)
        else {
            return;
        };
        let mut server = self.server.lock().expect("poisoned");
        if let Ok(Value::Int(d)) = server.state.heap.get_field(server_root, "data") {
            let _ = ep.twin.set_field(ep.twin_root, "data", Value::Int(d));
        }
    }

    fn do_call(&mut self, a_side: bool, report: &mut Report) {
        self.sync_twin_with_visible_pokes(a_side);
        let ep = if a_side { &mut self.a } else { &mut self.b };
        ep.wrote_root = false;
        let warm = client_invoke_warm_with_stats(
            &mut ep.client,
            &mut ep.link,
            ep.svc,
            METHOD,
            &[Value::Ref(ep.root)],
        );
        let oracle = service_logic(&mut ep.twin, ep.twin_root);
        let who = ep.name;
        match (warm, oracle) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(Diagnostic::error(
                        "NRMI-P003",
                        format!(
                            "endpoint {who}: warm call diverged from its oracle: \
                             got {got:?}, want {want:?}"
                        ),
                    ));
                }
            }
            (Err(e), Ok(_)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("endpoint {who}: warm call failed where the oracle succeeded: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn do_mutate(ep: &mut SgEndpoint, report: &mut Report) {
        for (heap, root) in [
            (&mut ep.client.state.heap, ep.root),
            (&mut ep.twin, ep.twin_root),
        ] {
            let r = (|| -> Result<(), NrmiError> {
                let d = heap
                    .get_field(root, "data")?
                    .as_int()
                    .ok_or_else(|| NrmiError::app("data is not an int"))?;
                heap.set_field(root, "data", Value::Int(d.wrapping_add(10)))?;
                Ok(())
            })();
            if let Err(e) = r {
                report.push(Diagnostic::error(
                    "NRMI-P001",
                    format!("client mutation failed: {e}"),
                ));
            }
        }
        ep.wrote_root = true;
    }

    fn do_evict(&mut self, a_side: bool, report: &mut Report) {
        let ep = if a_side { &mut self.a } else { &mut self.b };
        // The session graph is leaving the server (or leaking, if a
        // peer's poke made it incoherent); either way its root id stops
        // being a live out-of-band target.
        self.registry
            .lock()
            .expect("poisoned")
            .retain(|(n, _)| *n != ep.name);
        if let Err(e) = client_evict_warm(&mut ep.client, &mut ep.link, ep.svc) {
            report.push(Diagnostic::error(
                "NRMI-P004",
                format!("endpoint {}: eviction failed: {e}", ep.name),
            ));
        }
    }

    /// Connection teardown for A, exactly as the serve drivers run it
    /// (`Connection::release`): `release_all` on THIS connection's caches, then the
    /// connection state is gone. A's client keeps its (now dangling)
    /// warm session and must recover through `CacheMiss`; B's leased
    /// session must be untouched.
    fn do_drop_a(&mut self, _report: &mut Report) {
        self.registry
            .lock()
            .expect("poisoned")
            .retain(|(n, _)| *n != self.a.name);
        {
            let mut server = self.server.lock().expect("poisoned");
            self.a.link.caches.release_all(&mut server.state.heap);
            let leases = Arc::clone(&server.leases);
            self.a.link.caches = WarmCaches::with_leases(leases);
        }
        self.a.link.replies.clear();
    }

    /// `NRMI-P011` (stale read / lost write): after any interleaving,
    /// each client graph equals its private oracle under the
    /// visible-pokes rule — a divergence means a repair patch clobbered
    /// an unshipped client write, or a call read the shared graph stale.
    fn check_coherence(&mut self, report: &mut Report) {
        for ep in [&self.a, &self.b] {
            match graph::isomorphic(&ep.client.state.heap, ep.root, &ep.twin, ep.twin_root) {
                Ok(true) => {}
                Ok(false) => report.push(Diagnostic::error(
                    "NRMI-P011",
                    format!(
                        "endpoint {}: client graph diverged from its oracle — \
                         a stale read or a clobbered local write on the shared graph",
                        ep.name
                    ),
                )),
                Err(e) => report.push(Diagnostic::error(
                    "NRMI-P011",
                    format!("endpoint {}: isomorphism comparison failed: {e}", ep.name),
                )),
            }
        }
    }

    /// `NRMI-P011` (lease safety): every object a live warm session
    /// synchronizes is still alive on the shared heap — no teardown or
    /// eviction by the OTHER connection freed it out from under us.
    fn check_lease_liveness(&mut self, report: &mut Report) {
        let server = self.server.lock().expect("poisoned");
        for ep in [&self.a, &self.b] {
            let Some(cache_id) = ep.client.warm.cache_id(ep.svc) else {
                continue;
            };
            let Some(sync) = ep.link.caches.sync_ids_of(cache_id) else {
                continue;
            };
            for &id in sync {
                if server.state.heap.class_if_live(id).is_none() {
                    report.push(Diagnostic::error(
                        "NRMI-P011",
                        format!(
                            "endpoint {}: leased object {id:?} of live session \
                             {cache_id} was freed by another connection",
                            ep.name
                        ),
                    ));
                }
            }
        }
    }

    fn check_heaps(&mut self, report: &mut Report) {
        let server = self.server.lock().expect("poisoned");
        for (label, code, heap) in [
            ("client A", "NRMI-P001", &self.a.client.state.heap),
            ("client B", "NRMI-P001", &self.b.client.state.heap),
            ("shared server", "NRMI-P002", &server.state.heap),
            ("oracle A", "NRMI-P001", &self.a.twin),
            ("oracle B", "NRMI-P001", &self.b.twin),
        ] {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{label} heap corrupted: {v}"))
                        .with("heap", label),
                );
            }
        }
    }
}

/// Runs one two-client shared-graph action sequence against a fresh
/// world, returning all violations (panics become `NRMI-P006`).
pub fn check_shared_graph_sequence(actions: &[SharedGraphAction]) -> Report {
    run_sequence::<SharedGraphWorld>(actions)
}

// ---------------------------------------------------------------------------
// The pipelined world: two calls in flight on one multiplexed link
// ---------------------------------------------------------------------------

/// One action in the pipelined single-connection model: two call slots
/// (A and B, each owning a private graph) share one
/// [`ReliableTransport`](nrmi_core::ReliableTransport), and both may be
/// in flight at once through the split-phase client API
/// ([`client_marshal_call`] + `send_call`, collected later with
/// `recv_reply` + [`client_apply_reply`]). The adversary reorders and
/// drops queued replies; the request map must still route every reply to
/// the call that issued it.
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

/// The reorderable link: synchronous dispatch as in [`ServerSide`], but
/// an empty queue is a [`TransportError::Timeout`] (the retry loop's
/// concern, not a deadlock), and the checker permutes or drops queued
/// replies between actions.
struct PipeLink(Arc<Mutex<ServerSide>>);

impl Transport for PipeLink {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut side = self.0.lock().expect("poisoned");
        let replies = side.dispatch(frame);
        side.replies.extend(replies);
        Ok(())
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        self.0
            .lock()
            .expect("poisoned")
            .replies
            .pop_front()
            .ok_or(TransportError::Timeout)
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }
}

/// One call slot of the pipelined world: a private three-node tree, its
/// oracle twin root, and the in-flight state of its current call.
struct PipeSlot {
    root: ObjId,
    twin_root: ObjId,
    pending: Option<(u64, PendingCall)>,
    consumed_seq: Option<u64>,
}

/// Fresh world per pipelined sequence: one client with two disjoint
/// graphs, the real request-map client over a reorderable link, the real
/// server + reply cache, and a per-slot oracle twin. Each slot's values
/// depend on its own history (`data` starts 100 vs 200 and evolves as
/// `3d+1`), so a reply routed to the wrong call is observable both in
/// the returned sum and in the restored graph.
struct PipelinedWorld {
    client: ClientNode,
    transport: nrmi_core::ReliableTransport<PipeLink>,
    side: Arc<Mutex<ServerSide>>,
    twin: Heap,
    slots: [PipeSlot; 2],
    executions: Arc<std::sync::atomic::AtomicUsize>,
    issued: usize,
}

impl WorldModel for PipelinedWorld {
    type Action = PipelinedAction;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        let executions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a root reference"))?;
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                service_logic(heap, root)
            })),
        );

        let mut twin = Heap::new(registry.clone());
        let slot = |client: &mut ClientNode, twin: &mut Heap, seed: i32| -> PipeSlot {
            let root = build_tree(&mut client.state.heap, &registry);
            let twin_root = build_tree(twin, &registry);
            client
                .state
                .heap
                .set_field(root, "data", Value::Int(seed))
                .expect("seed slot");
            twin.set_field(twin_root, "data", Value::Int(seed))
                .expect("seed twin");
            PipeSlot {
                root,
                twin_root,
                pending: None,
                consumed_seq: None,
            }
        };
        let slot_a = slot(&mut client, &mut twin, 100);
        let slot_b = slot(&mut client, &mut twin, 200);

        let side = Arc::new(Mutex::new(ServerSide {
            server,
            caches: WarmCaches::new(),
            replies: VecDeque::new(),
            faults: FaultFlags::default(),
        }));
        // Instant virtual time, as in the reliability model: retries are
        // bounded by attempts, not wall clock.
        let policy = nrmi_core::RetryPolicy {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_millis(1),
            max_attempts: 16,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
        };
        let transport =
            nrmi_core::ReliableTransport::with_nonce(PipeLink(Arc::clone(&side)), policy, 0xF1F0);

        PipelinedWorld {
            client,
            transport,
            side,
            twin,
            slots: [slot_a, slot_b],
            executions,
            issued: 0,
        }
    }

    fn step(&mut self, action: PipelinedAction, report: &mut Report) {
        match action {
            PipelinedAction::IssueA => self.do_issue(0, "A", report),
            PipelinedAction::IssueB => self.do_issue(1, "B", report),
            PipelinedAction::SwapReplies => {
                let mut side = self.side.lock().expect("poisoned");
                if side.replies.len() >= 2 {
                    side.replies.swap(0, 1);
                }
            }
            PipelinedAction::DropReply => {
                self.side.lock().expect("poisoned").replies.pop_front();
            }
            PipelinedAction::CollectA => self.do_collect(0, "A", report),
            PipelinedAction::CollectB => self.do_collect(1, "B", report),
        }
        self.check_heaps(report);
        self.check_exactly_once(report);
    }
}

impl PipelinedWorld {
    fn do_issue(&mut self, which: usize, who: &str, report: &mut Report) {
        if self.slots[which].pending.is_some() {
            return;
        }
        let root = self.slots[which].root;
        let marshalled = client_marshal_call(
            &mut self.client,
            SVC,
            METHOD,
            &[Value::Ref(root)],
            CallOptions::forced(PassMode::CopyRestore),
        );
        let (frame, pending) = match marshalled {
            Ok(split) => split,
            Err(e) => {
                report.push(Diagnostic::error(
                    "NRMI-P004",
                    format!("slot {who}: marshal failed: {e}"),
                ));
                return;
            }
        };
        match self.transport.send_call(&frame) {
            Ok(Some(seq)) => {
                self.issued += 1;
                self.slots[which].pending = Some((seq, pending));
            }
            Ok(None) => report.push(Diagnostic::error(
                "NRMI-P009",
                format!("slot {who}: call frame passed through untagged — its reply can never be demultiplexed"),
            )),
            Err(e) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("slot {who}: pipelined issue failed: {e}"),
            )),
        }
    }

    fn do_collect(&mut self, which: usize, who: &str, report: &mut Report) {
        let Some((seq, pending)) = self.slots[which].pending.take() else {
            // Nothing in flight: collecting the already-consumed call id
            // must yield the typed error. (The `expect()` this replaced
            // panicked here; a ghost reply would mean a neighbor's reply
            // leaked out of the request map.)
            if let Some(stale) = self.slots[which].consumed_seq {
                match self.transport.recv_reply(stale) {
                    Err(TransportError::NoPendingCall { .. }) => {}
                    Ok(frame) => report.push(Diagnostic::error(
                        "NRMI-P009",
                        format!(
                            "slot {who}: consumed call {stale} produced a ghost reply {frame:?}"
                        ),
                    )),
                    Err(e) => report.push(Diagnostic::error(
                        "NRMI-P009",
                        format!(
                            "slot {who}: collecting consumed call {stale}: expected the typed \
                             NoPendingCall error, got {e}"
                        ),
                    )),
                }
            }
            return;
        };
        let reply = self.transport.recv_reply(seq);
        self.slots[which].consumed_seq = Some(seq);
        let payload = match reply {
            Ok(Frame::CallReply { payload }) => payload,
            Ok(other) => {
                report.push(Diagnostic::error(
                    "NRMI-P009",
                    format!("slot {who}: call {seq} answered with {other:?}"),
                ));
                return;
            }
            Err(e) => {
                report.push(Diagnostic::error(
                    "NRMI-P004",
                    format!("slot {who}: collect of call {seq} failed: {e}"),
                ));
                return;
            }
        };
        let twin_root = self.slots[which].twin_root;
        let got = client_apply_reply(&mut self.client, pending, &payload);
        let want = service_logic(&mut self.twin, twin_root);
        match (got, want) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(Diagnostic::error(
                        "NRMI-P009",
                        format!(
                            "slot {who}: reply routed to the wrong call: got {got:?}, \
                             want {want:?}"
                        ),
                    ));
                }
                match graph::isomorphic(
                    &self.client.state.heap,
                    self.slots[which].root,
                    &self.twin,
                    twin_root,
                ) {
                    Ok(true) => {}
                    Ok(false) => report.push(Diagnostic::error(
                        "NRMI-P008",
                        format!(
                            "slot {who}: restored graph diverged from its oracle — a \
                             neighboring in-flight call tore the restore"
                        ),
                    )),
                    Err(e) => report.push(Diagnostic::error(
                        "NRMI-P008",
                        format!("slot {who}: isomorphism comparison failed: {e}"),
                    )),
                }
            }
            (Err(e), _) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("slot {who}: restore failed: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn check_heaps(&mut self, report: &mut Report) {
        let side = self.side.lock().expect("poisoned");
        for (label, code, heap) in [
            ("client", "NRMI-P001", &self.client.state.heap),
            ("server", "NRMI-P002", &side.server.state.heap),
            ("oracle", "NRMI-P001", &self.twin),
        ] {
            for v in validate(heap) {
                report.push(
                    Diagnostic::error(code, format!("{label} heap corrupted: {v}"))
                        .with("heap", label),
                );
            }
        }
    }

    /// Every issued call executes exactly once, at dispatch; replays
    /// (after a dropped reply's retransmission) never re-execute.
    fn check_exactly_once(&mut self, report: &mut Report) {
        let ran = self.executions.load(std::sync::atomic::Ordering::SeqCst);
        if ran != self.issued {
            report.push(Diagnostic::error(
                "NRMI-P007",
                format!(
                    "pipelined at-most-once broken: {ran} execution(s) for {} issued call(s)",
                    self.issued
                ),
            ));
        }
    }
}

/// Runs one pipelined action sequence against a fresh world, returning
/// all violations (panics become `NRMI-P006`).
pub fn check_pipelined_sequence(actions: &[PipelinedAction]) -> Report {
    run_sequence::<PipelinedWorld>(actions)
}

// ---------------------------------------------------------------------------
// The reactor dispatch model: NRMI-P010
// ---------------------------------------------------------------------------

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

/// One client connection of the reactor model: its own real
/// [`ClientNode`] and private oracle twin (the reactor's workers share
/// heaps *across* calls of different connections, so a torn restore
/// shows up as client-vs-twin divergence), plus the in-flight state the
/// reactor tracks per connection.
struct ReactorConn {
    client: ClientNode,
    twin: Heap,
    root: ObjId,
    twin_root: ObjId,
    nonce: u64,
    next_seq: u64,
    pending: Option<(u64, PendingCall)>,
    /// The exact tagged frame last sent, for retransmission.
    last_tagged: Option<Frame>,
    /// Tagged replies routed back to this connection (the reactor's
    /// completion channel keyed by connection token).
    inbox: VecDeque<Frame>,
}

/// Fresh world per reactor sequence: one [`SharedServer`], two
/// connections with distinct session nonces, the shared job queue, and
/// two worker nodes built with [`SharedServer::connection_node`]
/// exactly as the reactor's pool builds them.
struct ReactorWorld {
    shared: Arc<nrmi_core::SharedServer>,
    conns: [ReactorConn; 2],
    /// Queued jobs: (connection index, nonce, seq, inner call frame).
    jobs: VecDeque<(usize, u64, u64, Frame)>,
    workers: Vec<(ServerNode, WarmCaches)>,
    next_worker: usize,
    executions: Arc<std::sync::atomic::AtomicUsize>,
    dispatched: usize,
}

impl WorldModel for ReactorWorld {
    type Action = ReactorAction;

    fn new() -> Self {
        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let registry = reg.snapshot();

        let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
        let executions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        server.bind(
            SVC,
            Box::new(FnService::new(move |_method, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a root reference"))?;
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                service_logic(heap, root)
            })),
        );
        let shared = Arc::new(nrmi_core::SharedServer::from_node(server));

        let conn = |nonce: u64, seed: i32| -> ReactorConn {
            let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
            let mut twin = Heap::new(registry.clone());
            let root = build_tree(&mut client.state.heap, &registry);
            let twin_root = build_tree(&mut twin, &registry);
            client
                .state
                .heap
                .set_field(root, "data", Value::Int(seed))
                .expect("seed conn");
            twin.set_field(twin_root, "data", Value::Int(seed))
                .expect("seed twin");
            ReactorConn {
                client,
                twin,
                root,
                twin_root,
                nonce,
                next_seq: 1,
                pending: None,
                last_tagged: None,
                inbox: VecDeque::new(),
            }
        };
        // Distinct nonces and histories: connection A's values evolve
        // from 100, B's from 200, so a reply executed on the wrong
        // state or routed to the wrong connection is observable.
        let conn_a = conn(0xAAAA_1111, 100);
        let conn_b = conn(0xBBBB_2222, 200);

        let workers = (0..2)
            .map(|_| (shared.connection_node(), WarmCaches::new()))
            .collect();

        ReactorWorld {
            shared,
            conns: [conn_a, conn_b],
            jobs: VecDeque::new(),
            workers,
            next_worker: 0,
            executions,
            dispatched: 0,
        }
    }

    fn step(&mut self, action: ReactorAction, report: &mut Report) {
        match action {
            ReactorAction::IssueA => self.do_issue(0, "A", report),
            ReactorAction::IssueB => self.do_issue(1, "B", report),
            ReactorAction::RunJob => self.do_run_job(report),
            ReactorAction::RetransmitA => self.do_retransmit(0, "A", report),
            ReactorAction::CollectA => self.do_collect(0, "A", report),
            ReactorAction::CollectB => self.do_collect(1, "B", report),
        }
        self.check_heaps(report);
        self.check_exactly_once(report);
    }
}

impl ReactorWorld {
    fn do_issue(&mut self, which: usize, who: &str, report: &mut Report) {
        if self.conns[which].pending.is_some() {
            return;
        }
        let root = self.conns[which].root;
        let marshalled = client_marshal_call(
            &mut self.conns[which].client,
            SVC,
            METHOD,
            &[Value::Ref(root)],
            CallOptions::forced(PassMode::CopyRestore),
        );
        let (frame, pending) = match marshalled {
            Ok(split) => split,
            Err(e) => {
                report.push(Diagnostic::error(
                    "NRMI-P004",
                    format!("conn {who}: marshal failed: {e}"),
                ));
                return;
            }
        };
        let seq = self.conns[which].next_seq;
        self.conns[which].next_seq += 1;
        let tagged = Frame::Tagged {
            nonce: self.conns[which].nonce,
            seq,
            frame: Box::new(frame),
        };
        self.conns[which].last_tagged = Some(tagged.clone());
        match nrmi_core::reactor_classify(&self.shared, true, tagged) {
            ReactorStep::Offload {
                nonce,
                seq: got_seq,
                call,
            } => {
                if nonce != self.conns[which].nonce || got_seq != seq {
                    report.push(Diagnostic::error(
                        "NRMI-P010",
                        format!(
                            "conn {who}: classify mangled the call id: sent \
                             ({:#x}, {seq}), offloaded ({nonce:#x}, {got_seq})",
                            self.conns[which].nonce
                        ),
                    ));
                    return;
                }
                self.jobs.push_back((which, nonce, got_seq, call));
                self.conns[which].pending = Some((seq, pending));
            }
            other => report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "conn {who}: a fresh pipelineable call must offload to the \
                     worker pool; the reactor answered {other:?}"
                ),
            )),
        }
    }

    fn do_run_job(&mut self, _report: &mut Report) {
        let Some((which, nonce, seq, call)) = self.jobs.pop_front() else {
            return;
        };
        // Workers alternate, as the real pool's threads race: the same
        // connection's consecutive calls may execute on different
        // worker heaps.
        let slot = self.next_worker % self.workers.len();
        self.next_worker += 1;
        let (node, warm) = &mut self.workers[slot];
        let mut conn = Connection::new(node, warm);
        let reply = conn.execute(&mut NullTransport, nonce, seq, call);
        self.dispatched += 1;
        self.conns[which].inbox.push_back(reply);
    }

    fn do_retransmit(&mut self, which: usize, who: &str, report: &mut Report) {
        let Some(tagged) = self.conns[which].last_tagged.clone() else {
            return;
        };
        match nrmi_core::reactor_classify(&self.shared, true, tagged) {
            // Still queued or executing: the duplicate is dropped
            // unanswered and the client's next retransmission replays
            // the stored reply.
            ReactorStep::Ignore => {}
            // Executed: answered from the cache. Route it to the
            // connection like any reply; a stale duplicate for an
            // already-collected call just sits in the inbox, exactly as
            // the client's demultiplexer discards unsolicited frames.
            step @ ReactorStep::Reply { .. } => self.conns[which].inbox.extend(step.into_replies()),
            other => report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "conn {who}: a retransmitted call id must be ignored or \
                     answered from the reply cache, never {other:?} — that is a \
                     double execution"
                ),
            )),
        }
    }

    fn do_collect(&mut self, which: usize, who: &str, report: &mut Report) {
        let Some(&(seq, _)) = self.conns[which].pending.as_ref() else {
            return;
        };
        let want_nonce = self.conns[which].nonce;
        // The reply may not have been produced yet (job still queued):
        // leave the call pending, as the blocked client would.
        let Some(pos) = self.conns[which].inbox.iter().position(|f| {
            matches!(
                f,
                Frame::Tagged { seq: s, .. } | Frame::ReplyCached { seq: s, .. } if *s == seq
            )
        }) else {
            return;
        };
        let frame = self.conns[which].inbox.remove(pos).expect("indexed");
        let (nonce, inner) = match frame {
            Frame::Tagged { nonce, frame, .. } | Frame::ReplyCached { nonce, frame, .. } => {
                (nonce, *frame)
            }
            other => unreachable!("matched above: {other:?}"),
        };
        if nonce != want_nonce {
            report.push(Diagnostic::error(
                "NRMI-P010",
                format!(
                    "conn {who}: reply crossed connections: call id nonce \
                     {nonce:#x}, connection nonce {want_nonce:#x}"
                ),
            ));
            return;
        }
        let payload = match inner {
            Frame::CallReply { payload } => payload,
            other => {
                report.push(Diagnostic::error(
                    "NRMI-P010",
                    format!("conn {who}: call {seq} answered with {other:?}"),
                ));
                return;
            }
        };
        let (_, pending) = self.conns[which].pending.take().expect("checked above");
        let twin_root = self.conns[which].twin_root;
        let got = client_apply_reply(&mut self.conns[which].client, pending, &payload);
        let want = service_logic(&mut self.conns[which].twin, twin_root);
        match (got, want) {
            (Ok((got, _stats)), Ok(want)) => {
                if got != want {
                    report.push(Diagnostic::error(
                        "NRMI-P010",
                        format!(
                            "conn {who}: reply routed to the wrong call or executed \
                             on torn state: got {got:?}, want {want:?}"
                        ),
                    ));
                }
                match graph::isomorphic(
                    &self.conns[which].client.state.heap,
                    self.conns[which].root,
                    &self.conns[which].twin,
                    twin_root,
                ) {
                    Ok(true) => {}
                    Ok(false) => report.push(Diagnostic::error(
                        "NRMI-P010",
                        format!(
                            "conn {who}: restored graph diverged from its oracle — \
                             another connection's call tore this worker dispatch"
                        ),
                    )),
                    Err(e) => report.push(Diagnostic::error(
                        "NRMI-P010",
                        format!("conn {who}: isomorphism comparison failed: {e}"),
                    )),
                }
            }
            (Err(e), _) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("conn {who}: restore failed: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "NRMI-P004",
                format!("local oracle itself failed (checker bug): {e}"),
            )),
        }
    }

    fn check_heaps(&mut self, report: &mut Report) {
        for (which, who) in [(0usize, "A"), (1, "B")] {
            for (label, code, heap) in [
                ("client", "NRMI-P001", &self.conns[which].client.state.heap),
                ("oracle", "NRMI-P001", &self.conns[which].twin),
            ] {
                for v in validate(heap) {
                    report.push(
                        Diagnostic::error(code, format!("conn {who} {label} heap corrupted: {v}"))
                            .with("heap", label),
                    );
                }
            }
        }
        for (i, (node, _)) in self.workers.iter().enumerate() {
            for v in validate(&node.state.heap) {
                report.push(
                    Diagnostic::error("NRMI-P002", format!("worker {i} heap corrupted: {v}"))
                        .with("heap", "worker"),
                );
            }
        }
    }

    /// Every offloaded job executes exactly once, when a `RunJob` pops
    /// it — retransmissions must never enqueue a second execution.
    fn check_exactly_once(&mut self, report: &mut Report) {
        let ran = self.executions.load(std::sync::atomic::Ordering::SeqCst);
        if ran != self.dispatched {
            report.push(Diagnostic::error(
                "NRMI-P007",
                format!(
                    "reactor at-most-once broken: {ran} service execution(s) for \
                     {} dispatched job(s)",
                    self.dispatched
                ),
            ));
        }
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

/// Bounds and alphabet for one [`model_check`] run.
#[derive(Clone, Debug)]
pub struct ModelCheckConfig {
    /// Exhaustive depth over [`CORE_ALPHABET`].
    pub core_depth: usize,
    /// Exhaustive depth over [`ADVERSARIAL_ALPHABET`].
    pub adversarial_depth: usize,
    /// Exhaustive depth over [`RELIABILITY_ALPHABET`] (the retry /
    /// duplicate-suppression / reconnect state machine).
    pub reliability_depth: usize,
    /// Exhaustive depth over [`SHARED_ALPHABET`] (two connections
    /// interleaved on one lock-split server).
    pub shared_depth: usize,
    /// Exhaustive depth over [`SHARED_GRAPH_ALPHABET`] (two warm clients
    /// leased onto ONE server heap, each call writing the other's graph
    /// out-of-band — the coherence/lease model).
    pub shared_graph_depth: usize,
    /// Exhaustive depth over [`PIPELINED_ALPHABET`] (two calls in flight
    /// on one multiplexed connection, replies reordered and dropped).
    pub pipelined_depth: usize,
    /// Exhaustive depth over [`REACTOR_ALPHABET`] (two connections
    /// multiplexed through the reactor's classify/offload/complete step
    /// function onto alternating worker nodes).
    pub reactor_depth: usize,
    /// Stop after this many error diagnostics (a broken invariant tends
    /// to fail thousands of sequences identically).
    pub max_errors: usize,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        // Depth 6 over the 6-action core alphabet: 46_656 sequences,
        // ~280k protocol actions; plus 9^4 = 6_561 adversarial sequences,
        // 6^4 = 1_296 reliability sequences, 6^5 = 7_776 two-connection
        // shared-server sequences, 7^4 = 2_401 shared-graph coherence
        // sequences, 6^4 = 1_296 pipelined reply-routing sequences, and
        // 6^4 = 1_296 reactor dispatch sequences.
        ModelCheckConfig {
            core_depth: 6,
            adversarial_depth: 4,
            reliability_depth: 4,
            shared_depth: 5,
            shared_graph_depth: 4,
            pipelined_depth: 4,
            reactor_depth: 4,
            max_errors: 25,
        }
    }
}

/// What the enumerator needs from a model: a fresh state, and one
/// transition per action that reports violations of the model's
/// invariants. Each world keeps its own state, oracle and alphabet;
/// sequencing, failure tagging and panic capture are [`run_sequence`]'s.
trait WorldModel: Sized {
    /// The world's alphabet.
    type Action: Copy + std::fmt::Debug;

    fn new() -> Self;

    /// Applies one action, reporting violations into `report`.
    fn step(&mut self, action: Self::Action, report: &mut Report);
}

/// Runs one action sequence against a fresh `W`, returning all
/// violations: stops at the first failing step and tags its findings
/// with the trace and the step; a panic inside the sequence is caught
/// and reported as `NRMI-P006` with the trace.
fn run_sequence<W: WorldModel>(actions: &[W::Action]) -> Report {
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

/// Runs one action sequence against a fresh core world, returning all
/// violations. Panics inside the sequence are caught and reported as
/// `NRMI-P006` with the action trace.
pub fn check_sequence(actions: &[Action]) -> Report {
    run_sequence::<World>(actions)
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

/// Exhaustively enumerates every action sequence of exactly
/// `cfg.core_depth` over the core alphabet and `cfg.adversarial_depth`
/// over the adversarial alphabet, running each against a fresh
/// client/server pair. Checking full-depth sequences covers every
/// shorter prefix, since each sequence re-executes (and re-checks) its
/// prefix from scratch.
pub fn model_check(cfg: &ModelCheckConfig) -> Report {
    let mut report = Report::new();
    let mut sequences = 0usize;

    // Panics are expected to be absent; silence the default hook so a
    // genuine finding doesn't spray 46k backtraces, and restore it after.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut run = Enumeration {
            max_errors: cfg.max_errors,
            report: Report::new(),
            sequences: 0,
        };
        run.all::<World>(&CORE_ALPHABET, cfg.core_depth);
        run.all::<World>(&ADVERSARIAL_ALPHABET, cfg.adversarial_depth);
        run.all::<ReliableWorld>(&RELIABILITY_ALPHABET, cfg.reliability_depth);
        run.all::<SharedWorld>(&SHARED_ALPHABET, cfg.shared_depth);
        run.all::<SharedGraphWorld>(&SHARED_GRAPH_ALPHABET, cfg.shared_graph_depth);
        run.all::<PipelinedWorld>(&PIPELINED_ALPHABET, cfg.pipelined_depth);
        run.all::<ReactorWorld>(&REACTOR_ALPHABET, cfg.reactor_depth);
        run
    }));
    std::panic::set_hook(prev_hook);

    match result {
        Ok(run) => {
            report.merge(run.report);
            sequences = run.sequences;
        }
        Err(_) => report.push(Diagnostic::error(
            "NRMI-P006",
            "the enumerator itself panicked (checker bug)",
        )),
    }

    let (errors, _, _) = report.counts();
    report.push(
        Diagnostic::info(
            "NRMI-P000",
            format!(
                "protocol enumeration explored {sequences} sequences \
                 (core depth {}, adversarial depth {}, reliability depth {}, \
                 shared depth {}, shared-graph depth {}, pipelined depth {}, \
                 reactor depth {}): {errors} violation(s)",
                cfg.core_depth,
                cfg.adversarial_depth,
                cfg.reliability_depth,
                cfg.shared_depth,
                cfg.shared_graph_depth,
                cfg.pipelined_depth,
                cfg.reactor_depth
            ),
        )
        .with("sequences", sequences),
    );
    report
}

/// The findings and sequence count of one [`model_check`] run.
struct Enumeration {
    max_errors: usize,
    report: Report,
    sequences: usize,
}

impl Enumeration {
    /// Odometer-style enumeration of all `|alphabet|^depth` sequences,
    /// each run against a fresh `W`.
    fn all<W: WorldModel>(&mut self, alphabet: &[W::Action], depth: usize) {
        if depth == 0 {
            return;
        }
        let mut digits = vec![0usize; depth];
        loop {
            let actions: Vec<W::Action> = digits.iter().map(|&d| alphabet[d]).collect();
            self.report.merge(run_sequence::<W>(&actions));
            self.sequences += 1;
            if self.report.counts().0 >= self.max_errors {
                self.report.push(Diagnostic::warning(
                    "NRMI-P000",
                    format!(
                        "stopped after {} errors; enumeration incomplete",
                        self.max_errors
                    ),
                ));
                return;
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                digits[i] += 1;
                if digits[i] < alphabet.len() {
                    break;
                }
                digits[i] = 0;
                i += 1;
                if i == depth {
                    return;
                }
            }
        }
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
        // Depth 3 over both alphabets runs fast enough for debug builds;
        // CI's `tables -- check` job runs the full depth-6 configuration
        // in release.
        let report = model_check(&ModelCheckConfig {
            core_depth: 3,
            adversarial_depth: 2,
            reliability_depth: 2,
            shared_depth: 3,
            shared_graph_depth: 3,
            pipelined_depth: 3,
            reactor_depth: 3,
            max_errors: 25,
        });
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code("NRMI-P000"), "coverage note present");
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
            vec![G::CallA, G::CallB, G::MutateA, G::MutateB, G::CallA, G::CallB],
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
            // error, not a panic (the regression the satellite fixed).
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

    #[test]
    fn reactor_world_replays_retransmissions_from_the_cache() {
        use ReactorAction as R;
        let mut world = ReactorWorld::new();
        let mut report = Report::new();
        for action in [
            R::IssueA,
            R::RetransmitA,
            R::RunJob,
            R::RetransmitA,
            R::CollectA,
        ] {
            world.step(action, &mut report);
        }
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            world.executions.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "two retransmissions around one execution must not re-execute"
        );
    }

    #[test]
    fn pipelined_world_counts_one_execution_per_issued_call() {
        use PipelinedAction as P;
        let mut world = PipelinedWorld::new();
        let mut report = Report::new();
        for action in [P::IssueA, P::IssueB, P::DropReply, P::CollectA, P::CollectB] {
            world.step(action, &mut report);
        }
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            world.executions.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "the dropped reply's retransmission must replay, not re-execute"
        );
    }

    #[test]
    fn shared_world_counts_executions_across_connections() {
        let mut world = SharedWorld::new();
        let mut report = Report::new();
        world.step(SharedAction::CallA, &mut report);
        world.step(SharedAction::CallB, &mut report);
        world.step(SharedAction::CallA, &mut report);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            world.executions.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "each connection's calls execute exactly once on the shared server"
        );
    }

    #[test]
    fn duplicate_without_reply_cache_would_be_caught() {
        // Sanity that the at-most-once counter is live: dispatching the
        // same tagged request twice directly at a fresh server must
        // execute once and replay once.
        let mut world = ReliableWorld::new();
        let mut report = Report::new();
        world.step(ReliabilityAction::DuplicateRequest, &mut report);
        world.step(ReliabilityAction::Call, &mut report);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(
            world.executions.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "the duplicated request must execute exactly once"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full-depth enumeration; run in release (CI check job)"
    )]
    fn full_depth_enumeration_is_clean() {
        let report = model_check(&ModelCheckConfig::default());
        assert!(!report.has_errors(), "{}", report.render());
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
