//! Property-based tests of warm-session coherence on a shared graph.
//!
//! Two families:
//!
//! * **warm ≡ cold** — any interleaving of calls and client-side graph
//!   edits produces, through the warm delta protocol, exactly the values
//!   and final graph that plain cold copy-restore calls produce.
//! * **writers vs. readers** — a reader's warm view of a shared server
//!   graph, perturbed by an interleaved writer session and by direct
//!   out-of-band writes, always matches the coherence model: pushed
//!   patches repair idle sessions, `CacheStale` replies repair in-flight
//!   ones, and the positional merge lets an unshipped client write win.
//!   Revalidation versions are monotone throughout.
//!
//! Plus directed edge cases the random walks would rarely hit: a
//! synchronized slot freed and recycled out-of-band must degrade to
//! `CacheMiss` + reseed (the allocation stamp, not the version number,
//! catches it), never a repair patch shipping a stranger object.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use nrmi_core::{
    client_evict_warm, client_invoke_warm_with_stats, ClientNode, Connection, FnService, NrmiError,
    RemoteService, ServerNode, Session, WarmCaches,
};
use nrmi_heap::graph::isomorphic;
use nrmi_heap::{ClassRegistry, Heap, HeapAccess, ObjId, SharedRegistry, Value};
use nrmi_transport::{Frame, MachineSpec, Transport, TransportError};

// ---------------------------------------------------------------------------
// warm ≡ cold
// ---------------------------------------------------------------------------

fn node_registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    reg.define("Node")
        .field_int("data")
        .field_ref("left")
        .field_ref("right")
        .restorable()
        .register();
    reg.snapshot()
}

/// The deterministic service: DFS, rewrite each `data` to `3·data + 1`,
/// return the sum of the old values.
fn walker() -> Box<dyn RemoteService> {
    Box::new(FnService::new(|_m, args, heap| {
        let root = args[0]
            .as_ref_id()
            .ok_or_else(|| NrmiError::app("want a root reference"))?;
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
    }))
}

/// A randomly shaped (≤ 4 node) tree seed.
#[derive(Clone, Debug)]
struct TreeSpec {
    root: i32,
    left: Option<i32>,
    right: Option<i32>,
    left_left: Option<i32>,
}

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    (
        -1000i32..1000,
        proptest::option::of(-1000i32..1000),
        proptest::option::of(-1000i32..1000),
        proptest::option::of(-1000i32..1000),
    )
        .prop_map(|(root, left, right, left_left)| TreeSpec {
            root,
            left,
            right,
            left_left,
        })
}

fn build_tree(heap: &mut Heap, registry: &SharedRegistry, spec: &TreeSpec) -> ObjId {
    let class = registry.by_name("Node").expect("registered");
    let alloc_leaf = |heap: &mut Heap, d: i32| {
        heap.alloc(class, vec![Value::Int(d), Value::Null, Value::Null])
            .expect("alloc")
    };
    let left = spec.left.map(|d| {
        let node = alloc_leaf(heap, d);
        if let Some(ll) = spec.left_left {
            let grand = alloc_leaf(heap, ll);
            heap.set_field(node, "left", Value::Ref(grand))
                .expect("live");
        }
        node
    });
    let right = spec.right.map(|d| alloc_leaf(heap, d));
    heap.alloc(
        class,
        vec![
            Value::Int(spec.root),
            left.map_or(Value::Null, Value::Ref),
            right.map_or(Value::Null, Value::Ref),
        ],
    )
    .expect("alloc")
}

/// One client-side edit between calls, applied identically to the warm
/// and the cold session's graphs.
#[derive(Clone, Debug)]
enum Edit {
    Call,
    MutateRoot(i32),
    MutateLeft(i32),
    PruneLeft,
    GraftLeft(i32),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        2 => Just(Edit::Call),
        1 => (-1000i32..1000).prop_map(Edit::MutateRoot),
        1 => (-1000i32..1000).prop_map(Edit::MutateLeft),
        1 => Just(Edit::PruneLeft),
        1 => (-1000i32..1000).prop_map(Edit::GraftLeft),
    ]
}

/// Frees `id` and everything reachable from it.
fn free_subtree(heap: &mut Heap, id: ObjId) {
    let mut stack = vec![id];
    let mut order = Vec::new();
    while let Some(id) = stack.pop() {
        order.push(id);
        for field in ["left", "right"] {
            if let Ok(Some(child)) = heap.get_ref(id, field) {
                stack.push(child);
            }
        }
    }
    for id in order {
        let _ = heap.free(id);
    }
}

fn apply_edit(heap: &mut Heap, registry: &SharedRegistry, root: ObjId, edit: &Edit) {
    match edit {
        Edit::Call => unreachable!("calls are handled by the driver"),
        Edit::MutateRoot(d) => {
            heap.set_field(root, "data", Value::Int(*d)).expect("live");
        }
        Edit::MutateLeft(d) => {
            if let Ok(Some(left)) = heap.get_ref(root, "left") {
                heap.set_field(left, "data", Value::Int(*d)).expect("live");
            }
        }
        Edit::PruneLeft => {
            if let Ok(Some(left)) = heap.get_ref(root, "left") {
                heap.set_field(root, "left", Value::Null).expect("live");
                free_subtree(heap, left);
            }
        }
        Edit::GraftLeft(d) => {
            let class = registry.by_name("Node").expect("registered");
            let old = heap.get_ref(root, "left").expect("live");
            let node = heap
                .alloc(
                    class,
                    vec![
                        Value::Int(*d),
                        old.map_or(Value::Null, Value::Ref),
                        Value::Null,
                    ],
                )
                .expect("alloc");
            heap.set_field(root, "left", Value::Ref(node))
                .expect("live");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of warm calls and client-side edits over a
    /// random graph returns the same values — and converges to the same
    /// graph — as cold copy-restore calls running the identical
    /// sequence.
    #[test]
    fn warm_calls_match_cold_calls_on_random_graphs(
        spec in tree_strategy(),
        edits in proptest::collection::vec(edit_strategy(), 1..14),
    ) {
        let registry = node_registry();
        let mut warm = Session::builder(registry.clone())
            .serve("svc", walker())
            .build();
        let mut cold = Session::builder(registry.clone())
            .serve("svc", walker())
            .build();
        let warm_root = build_tree(warm.heap(), &registry, &spec);
        let cold_root = build_tree(cold.heap(), &registry, &spec);

        for edit in &edits {
            if let Edit::Call = edit {
                let w = warm.call_warm("svc", "run", &[Value::Ref(warm_root)]).expect("warm");
                let c = cold.call("svc", "run", &[Value::Ref(cold_root)]).expect("cold");
                prop_assert_eq!(&w, &c, "return values diverged");
            } else {
                apply_edit(warm.heap(), &registry, warm_root, edit);
                apply_edit(cold.heap(), &registry, cold_root, edit);
            }
            let same = isomorphic(warm.heap(), warm_root, cold.heap(), cold_root)
                .expect("comparable");
            prop_assert!(same, "graphs diverged after {:?}", edit);
        }
    }
}

// ---------------------------------------------------------------------------
// Writers vs. readers on one shared server graph
// ---------------------------------------------------------------------------

/// Stands in for the (unused) callback channel of the dispatch.
struct Sink;

impl Transport for Sink {
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

/// Client and server joined in process through the serve core's step,
/// exactly the frame order the serve drivers produce.
struct Link {
    server: ServerNode,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
}

impl Transport for Link {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut conn = Connection::new(&mut self.server, &mut self.caches);
        let step = conn.step(&mut Sink, frame.clone());
        self.replies.extend(step.into_replies());
        Ok(())
    }
    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        self.replies.pop_front().ok_or(TransportError::Disconnected)
    }
    fn recv_timeout(&mut self, _timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.recv()
    }
}

/// The reader/writer world: service `read` returns its root's `data`
/// and leaks the server-side root id; service `write` adds `args[1]`…
/// no — adds a fixed amount routed through the shared handle. The test
/// keeps the handle to clear it when the reader's session goes away.
struct RwWorld {
    client: ClientNode,
    link: Link,
    read_root: ObjId,
    write_root: ObjId,
    leaked: Arc<Mutex<Option<ObjId>>>,
    poke_amount: Arc<Mutex<i32>>,
}

fn rw_world(initial: i32) -> RwWorld {
    let mut reg = ClassRegistry::new();
    let cell = reg.define("Cell").field_int("data").restorable().register();
    let registry = reg.snapshot();

    let leaked: Arc<Mutex<Option<ObjId>>> = Arc::new(Mutex::new(None));
    let poke_amount: Arc<Mutex<i32>> = Arc::new(Mutex::new(0));
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    {
        let leaked = Arc::clone(&leaked);
        server.bind(
            "read",
            Box::new(FnService::new(move |_m, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a ref"))?;
                *leaked.lock().expect("poisoned") = Some(root);
                Ok(heap.get_field(root, "data")?)
            })),
        );
    }
    {
        let leaked = Arc::clone(&leaked);
        let poke_amount = Arc::clone(&poke_amount);
        server.bind(
            "write",
            Box::new(FnService::new(move |_m, _args, heap| {
                if let Some(id) = *leaked.lock().expect("poisoned") {
                    let k = *poke_amount.lock().expect("poisoned");
                    let d = heap.get_field(id, "data")?.as_int().unwrap_or(0);
                    heap.set_field(id, "data", Value::Int(d.wrapping_add(k)))?;
                }
                Ok(Value::Null)
            })),
        );
    }
    let caches = WarmCaches::with_leases(Arc::clone(&server.leases));
    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let read_root = client
        .state
        .heap
        .alloc(cell, vec![Value::Int(initial)])
        .expect("alloc");
    let write_root = client
        .state
        .heap
        .alloc(cell, vec![Value::Int(0)])
        .expect("alloc");
    RwWorld {
        client,
        link: Link {
            server,
            caches,
            replies: VecDeque::new(),
        },
        read_root,
        write_root,
        leaked,
        poke_amount,
    }
}

/// One step of the reader/writer interleaving.
#[derive(Clone, Debug)]
enum RwAction {
    /// The reader's warm call: seeds, repairs, or runs in step.
    Read,
    /// The writer session's warm call: pokes the reader's server graph,
    /// pushing a repair patch at the reader in the same exchange.
    WriteThroughPeer(i32),
    /// A direct out-of-band server-side write — no push travels; the
    /// reader discovers it as a `CacheStale` reply on its next call.
    WriteDirect(i32),
    /// The reader edits its own root locally (unshipped write: the
    /// positional merge must let it win over any server-side write).
    MutateLocal(i32),
    /// The reader retires its session; the next read reseeds.
    Evict,
}

fn rw_strategy() -> impl Strategy<Value = RwAction> {
    prop_oneof![
        3 => Just(RwAction::Read),
        2 => (1i32..100).prop_map(RwAction::WriteThroughPeer),
        2 => (1i32..100).prop_map(RwAction::WriteDirect),
        2 => (1i32..100).prop_map(RwAction::MutateLocal),
        1 => Just(RwAction::Evict),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The reader's observed values and client graph always match the
    /// coherence model: no stale read survives a call, no unshipped
    /// local write is ever clobbered by a repair, and revalidation
    /// versions are monotone.
    #[test]
    fn reader_view_matches_coherence_model_under_interleaved_writes(
        initial in -1000i32..1000,
        actions in proptest::collection::vec(rw_strategy(), 1..20),
    ) {
        let mut w = rw_world(initial);

        // The model: what the reader's client and the server hold.
        let mut client_val = initial;
        let mut server_val = initial; // meaningful only while `live`
        let mut live = false;
        let mut wrote = false;
        let mut last_stale_version = 0u64;

        for action in &actions {
            match action {
                RwAction::Read => {
                    let (got, _stats) = client_invoke_warm_with_stats(
                        &mut w.client,
                        &mut w.link,
                        "read",
                        "run",
                        &[Value::Ref(w.read_root)],
                    )
                    .expect("read");
                    if !live {
                        server_val = client_val; // seed ships the client graph
                        live = true;
                        last_stale_version = 0;
                    } else if wrote {
                        server_val = client_val; // unshipped write wins
                    } else {
                        client_val = server_val; // repair (if any) adopted
                    }
                    wrote = false;
                    prop_assert_eq!(got, Value::Int(server_val), "stale read");
                }
                RwAction::WriteThroughPeer(k) => {
                    *w.poke_amount.lock().expect("poisoned") = *k;
                    client_invoke_warm_with_stats(
                        &mut w.client,
                        &mut w.link,
                        "write",
                        "run",
                        &[Value::Ref(w.write_root)],
                    )
                    .expect("write");
                    if live {
                        server_val = server_val.wrapping_add(*k);
                        if !wrote {
                            // The push repaired the idle reader inline.
                            client_val = server_val;
                        }
                    }
                }
                RwAction::WriteDirect(k) => {
                    if live {
                        if let Some(cache_id) = w.client.warm.cache_id("read") {
                            if let Some(sync) = w.link.caches.sync_ids_of(cache_id) {
                                let id = sync[0];
                                let d = w
                                    .link
                                    .server
                                    .state
                                    .heap
                                    .get_field(id, "data")
                                    .expect("live")
                                    .as_int()
                                    .expect("int");
                                w.link
                                    .server
                                    .state
                                    .heap
                                    .set_field(id, "data", Value::Int(d.wrapping_add(*k)))
                                    .expect("live");
                                server_val = server_val.wrapping_add(*k);
                            }
                        }
                    }
                }
                RwAction::MutateLocal(k) => {
                    client_val = client_val.wrapping_add(*k);
                    w.client
                        .state
                        .heap
                        .set_field(w.read_root, "data", Value::Int(client_val))
                        .expect("live");
                    wrote = true;
                }
                RwAction::Evict => {
                    client_evict_warm(&mut w.client, &mut w.link, "read").expect("evict");
                    *w.leaked.lock().expect("poisoned") = None;
                    live = false;
                }
            }

            // The reader's client graph never lies about its own state.
            prop_assert_eq!(
                w.client.state.heap.get_field(w.read_root, "data").expect("live"),
                Value::Int(client_val),
                "client view diverged from the model after {:?}", action
            );
            // Revalidation versions are monotone within a session.
            if live {
                if let Some(v) = w.client.warm.stale_version("read") {
                    prop_assert!(
                        v >= last_stale_version,
                        "stale_version went backwards: {} after {}",
                        v,
                        last_stale_version
                    );
                    last_stale_version = v;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Directed edge cases: recycled slots and version monotonicity
// ---------------------------------------------------------------------------

/// A synchronized object freed and its slot recycled out-of-band must
/// degrade to `CacheMiss` + reseed: the version number alone cannot tell
/// recycling from mutation, the allocation stamp can — and a repair
/// patch here would ship a stranger object under the session's id.
#[test]
fn recycled_slot_degrades_to_miss_and_reseed() {
    let mut w = rw_world(5);
    let (v, _) = client_invoke_warm_with_stats(
        &mut w.client,
        &mut w.link,
        "read",
        "run",
        &[Value::Ref(w.read_root)],
    )
    .expect("seed");
    assert_eq!(v, Value::Int(5));
    let first_id = w.client.warm.cache_id("read").expect("warm");

    // Free the synchronized server-side root and recycle its slot with
    // an innocent object of the same class.
    let server_root = w.link.caches.sync_ids_of(first_id).expect("live")[0];
    let class = w
        .link
        .server
        .state
        .heap
        .class_if_live(server_root)
        .expect("live");
    w.link.server.state.heap.free(server_root).expect("free");
    let recycled = w
        .link
        .server
        .state
        .heap
        .alloc(class, vec![Value::Int(777)])
        .expect("alloc");
    assert_eq!(recycled, server_root, "slot recycled in place");
    // The model's registry hygiene: the leaked id no longer belongs to
    // the session (a real out-of-band writer would have no path to it).
    *w.leaked.lock().expect("poisoned") = None;

    // The next read must reseed under a fresh id — and must NOT have
    // absorbed any repair patch built from the stranger object.
    let (v2, s2) = client_invoke_warm_with_stats(
        &mut w.client,
        &mut w.link,
        "read",
        "run",
        &[Value::Ref(w.read_root)],
    )
    .expect("reseed");
    assert_eq!(v2, Value::Int(5), "reseed shipped the client's graph");
    assert_eq!(s2.stale_patches, 0, "a recycled slot is never patched");
    let second_id = w.client.warm.cache_id("read").expect("warm");
    assert_ne!(first_id, second_id, "session reseeded under a fresh id");
    assert_eq!(
        w.client.warm.generation("read"),
        Some(1),
        "fresh session at generation 1"
    );
}

/// Back-to-back out-of-band writes each cost exactly one `CacheStale`
/// repair, with strictly increasing revalidation versions.
#[test]
fn stale_versions_increase_monotonically_across_repairs() {
    let mut w = rw_world(10);
    client_invoke_warm_with_stats(
        &mut w.client,
        &mut w.link,
        "read",
        "run",
        &[Value::Ref(w.read_root)],
    )
    .expect("seed");
    let cache_id = w.client.warm.cache_id("read").expect("warm");

    let mut seen = Vec::new();
    for round in 0..3 {
        let server_root = w.link.caches.sync_ids_of(cache_id).expect("live")[0];
        w.link
            .server
            .state
            .heap
            .set_field(server_root, "data", Value::Int(100 + round))
            .expect("live");
        let (v, s) = client_invoke_warm_with_stats(
            &mut w.client,
            &mut w.link,
            "read",
            "run",
            &[Value::Ref(w.read_root)],
        )
        .expect("read");
        assert_eq!(v, Value::Int(100 + round), "repaired view");
        assert_eq!(s.stale_patches, 1, "exactly one repair per write");
        seen.push(w.client.warm.stale_version("read").expect("warm"));
    }
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "versions must strictly increase: {seen:?}"
    );
}
