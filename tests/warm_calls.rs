//! End-to-end tests of the warm-call protocol: session caches, request
//! deltas, coherence invalidation, eviction, and fallback to cold.

use std::sync::{Arc, Mutex};
use std::thread;

use nrmi::core::{
    serve_connection, CallOptions, FnService, NrmiError, RemoteService, ServerNode, ServerPool,
    Session,
};
use nrmi::heap::tree::{self, TreeClasses};
use nrmi::heap::validate::assert_valid;
use nrmi::heap::{ClassRegistry, HeapAccess, ObjId, SharedRegistry, Value};
use nrmi::transport::{MachineSpec, TcpListenerTransport};

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    let _ = tree::register_tree_classes(&mut reg);
    reg.snapshot()
}

fn classes_of(session: &mut Session) -> TreeClasses {
    TreeClasses {
        tree: session.heap().registry_handle().by_name("Tree").unwrap(),
    }
}

/// A deterministic mutator: bumps the root's data and, when present, the
/// left child's, and returns the new root value.
fn bump_service() -> Box<dyn RemoteService> {
    Box::new(FnService::new(|_m, args, heap| {
        let root = args[0]
            .as_ref_id()
            .ok_or_else(|| NrmiError::app("want tree"))?;
        let v = heap.get_field(root, "data")?.as_int().unwrap_or(0);
        heap.set_field(root, "data", Value::Int(v + 1))?;
        if let Some(left) = heap.get_ref(root, "left")? {
            let lv = heap.get_field(left, "data")?.as_int().unwrap_or(0);
            heap.set_field(left, "data", Value::Int(lv + 10))?;
        }
        Ok(Value::Int(v + 1))
    }))
}

#[test]
fn warm_calls_restore_like_cold_and_ship_fewer_bytes() {
    const CALLS: usize = 6;
    const NODES: usize = 1_000;

    // Two identical worlds: one always-cold, one warm.
    let mut cold = Session::builder(registry())
        .serve("bump", bump_service())
        .build();
    let mut warm = Session::builder(registry())
        .serve("bump", bump_service())
        .build();
    let cold_classes = classes_of(&mut cold);
    let warm_classes = classes_of(&mut warm);
    let cold_root = tree::build_random_tree(cold.heap(), &cold_classes, NODES, 7).unwrap();
    let warm_root = tree::build_random_tree(warm.heap(), &warm_classes, NODES, 7).unwrap();

    let opts = CallOptions::copy_restore_delta();
    let mut cold_request_bytes = Vec::new();
    let mut warm_request_bytes = Vec::new();
    for i in 0..CALLS {
        let (cv, cs) = cold
            .call_with_stats("bump", "bump", &[Value::Ref(cold_root)], opts)
            .unwrap();
        let (wv, ws) = warm
            .call_warm_with_stats("bump", "bump", &[Value::Ref(warm_root)])
            .unwrap();
        assert_eq!(cv, wv, "call {i}: same return value");
        cold_request_bytes.push(cs.request_bytes);
        warm_request_bytes.push(ws.request_bytes);
        // Restores must leave both heaps structurally sound every round.
        assert_valid(cold.heap());
        assert_valid(warm.heap());
    }

    // The seed request marshals the same full graph as the cold request.
    assert_eq!(
        warm_request_bytes[0], cold_request_bytes[0],
        "seed payload matches the cold request size"
    );
    // Every later warm request is a small delta: the graph is ~1k nodes
    // but only 2 of them were dirtied per call.
    for (i, &bytes) in warm_request_bytes.iter().enumerate().skip(1) {
        assert!(
            bytes * 20 < cold_request_bytes[i],
            "warm call {i} shipped {bytes} bytes vs cold {}",
            cold_request_bytes[i]
        );
    }

    // Both clients converged to the same restored state.
    assert!(nrmi::heap::graph::isomorphic_multi(
        cold.heap(),
        &[cold_root],
        warm.heap(),
        &[warm_root]
    )
    .unwrap());
    assert_eq!(warm.warm_generation("bump"), Some(CALLS as u64));
}

#[test]
fn client_mutations_between_warm_calls_are_shipped() {
    let mut session = Session::builder(registry())
        .serve(
            "read",
            Box::new(FnService::new(|_m, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want tree"))?;
                Ok(heap.get_field(root, "data")?)
            })),
        )
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 64, 3).unwrap();

    session
        .heap()
        .set_field(root, "data", Value::Int(100))
        .unwrap();
    assert_eq!(
        session
            .call_warm("read", "read", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(100)
    );
    // Mutate between calls: the dirty slot must travel in the delta.
    session
        .heap()
        .set_field(root, "data", Value::Int(200))
        .unwrap();
    assert_eq!(
        session
            .call_warm("read", "read", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(200)
    );
    // An untouched graph ships nothing but still answers correctly.
    let (v, stats) = session
        .call_warm_with_stats("read", "read", &[Value::Ref(root)])
        .unwrap();
    assert_eq!(v, Value::Int(200));
    assert_eq!(
        stats.request_objects, 0,
        "clean graph: no dirty or new objects"
    );
    assert!(
        stats.request_bytes < 48,
        "clean request delta is tiny: {}",
        stats.request_bytes
    );
}

#[test]
fn structural_changes_ship_new_objects_and_frees() {
    let mut session = Session::builder(registry())
        .serve(
            "count",
            Box::new(FnService::new(|_m, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want tree"))?;
                // DFS through the HeapAccess interface (services see the
                // proxy, not the raw heap).
                let mut seen = std::collections::HashSet::new();
                let mut stack = vec![root];
                while let Some(id) = stack.pop() {
                    if !seen.insert(id) {
                        continue;
                    }
                    for slot in 0..heap.slot_count(id)? {
                        if let Some(child) = heap.get_field_raw(id, slot)?.as_ref_id() {
                            stack.push(child);
                        }
                    }
                }
                Ok(Value::Int(seen.len() as i32))
            })),
        )
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 32, 5).unwrap();
    let n0 = nrmi::heap::traverse::reachable_count(session.heap(), &[root]).unwrap();
    assert_eq!(
        session
            .call_warm("count", "count", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(n0 as i32)
    );

    // Graft a fresh chain under the root (new objects travel in the
    // request delta) …
    let heap = session.heap();
    let leaf = heap
        .alloc(classes.tree, vec![Value::Int(1), Value::Null, Value::Null])
        .unwrap();
    let mid = heap
        .alloc(
            classes.tree,
            vec![Value::Int(2), Value::Ref(leaf), Value::Null],
        )
        .unwrap();
    let old_left = heap.get_ref(root, "left").unwrap();
    heap.set_field(root, "left", Value::Ref(mid)).unwrap();
    // … and free the detached subtree (freed positions travel too).
    if let Some(old) = old_left {
        let doomed = nrmi::heap::LinearMap::build(heap, &[old]).unwrap();
        let keep = nrmi::heap::traverse::reachable_set(heap, &[root]).unwrap();
        for &id in doomed.order() {
            if !keep.contains(id) {
                heap.free(id).unwrap();
            }
        }
    }
    let n1 = nrmi::heap::traverse::reachable_count(session.heap(), &[root]).unwrap();
    assert_eq!(
        session
            .call_warm("count", "count", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(n1 as i32),
        "server-side cached graph tracks grafts and frees"
    );
    assert_eq!(session.warm_generation("count"), Some(2));
    assert_valid(session.heap());
}

#[test]
fn out_of_band_mutation_repairs_warm_cache() {
    // "keeper" serves warm calls over a cached graph and leaks the
    // server-side root id; "poker" mutates that cached object during an
    // unrelated (cold) call — the out-of-band write the coherence check
    // must catch. The server answers the next warm call with a targeted
    // `CacheStale` patch: the client's view is repaired in place (the
    // poked value becomes visible on both sides) and the session
    // survives at the same cadence — no cold reseed, and no stale read
    // of the pre-poke value from the cached graph.
    let stashed: Arc<Mutex<Option<ObjId>>> = Arc::new(Mutex::new(None));
    let stash_w = Arc::clone(&stashed);
    let stash_p = Arc::clone(&stashed);
    let mut session = Session::builder(registry())
        .serve(
            "keeper",
            Box::new(FnService::new(move |_m, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want tree"))?;
                *stash_w.lock().unwrap() = Some(root);
                Ok(heap.get_field(root, "data")?)
            })),
        )
        .serve(
            "poker",
            Box::new(FnService::new(move |_m, _args, heap| {
                let target = stash_p.lock().unwrap().expect("keeper ran first");
                heap.set_field(target, "data", Value::Int(666))?;
                Ok(Value::Null)
            })),
        )
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 16, 9).unwrap();
    session
        .heap()
        .set_field(root, "data", Value::Int(42))
        .unwrap();

    assert_eq!(
        session
            .call_warm("keeper", "get", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(42)
    );
    assert_eq!(
        session
            .call_warm("keeper", "get", &[Value::Ref(root)])
            .unwrap(),
        Value::Int(42)
    );
    assert_eq!(session.warm_generation("keeper"), Some(2));

    // Out-of-band: a cold call mutates the cached server-side graph.
    session.call("poker", "poke", &[]).unwrap();

    // The warm session is stale but repairable: the server patches the
    // dirty position back to the client and the re-issued call reads the
    // COHERENT (poked) value — never the stale pre-poke one from either
    // side's cache.
    let (v, _) = session
        .call_warm_with_stats("keeper", "get", &[Value::Ref(root)])
        .unwrap();
    assert_eq!(v, Value::Int(666), "out-of-band write visible, coherently");
    assert_eq!(
        session.heap().get_field(root, "data").unwrap(),
        Value::Int(666),
        "coherence patch repaired the client's copy in place"
    );
    assert_eq!(
        session.warm_generation("keeper"),
        Some(3),
        "session repaired, not reseeded (generation advanced normally)"
    );
    assert_valid(session.heap());
}

#[test]
fn eviction_reseeds_and_server_frees_cached_graphs() {
    let mut session = Session::builder(registry())
        .serve("bump", bump_service())
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 128, 11).unwrap();

    session.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    session.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    assert_eq!(session.warm_generation("bump"), Some(2));

    session.evict_warm("bump").unwrap();
    assert_eq!(session.warm_generation("bump"), None);
    // Evicting twice is a no-op.
    session.evict_warm("bump").unwrap();

    // The next call seeds a fresh session.
    session.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    assert_eq!(session.warm_generation("bump"), Some(1));

    // After shutdown every cached graph has been released: the server
    // heap holds no leaked session state — and what was freed was freed
    // cleanly (no survivors left dangling at freed neighbors).
    let server = session.shutdown().unwrap();
    assert_valid(&server.state.heap);
    assert_eq!(
        server.state.heap.live_count(),
        0,
        "warm caches freed on teardown"
    );
}

#[test]
fn remote_errors_retire_the_session() {
    let mut session = Session::builder(registry())
        .serve(
            "moody",
            Box::new(FnService::new(|method, args, heap| {
                if method == "boom" {
                    return Err(NrmiError::app("boom"));
                }
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want tree"))?;
                Ok(heap.get_field(root, "data")?)
            })),
        )
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 8, 13).unwrap();

    session
        .call_warm("moody", "get", &[Value::Ref(root)])
        .unwrap();
    assert_eq!(session.warm_generation("moody"), Some(1));
    let err = session
        .call_warm("moody", "boom", &[Value::Ref(root)])
        .unwrap_err();
    assert!(matches!(err, NrmiError::Remote(_)));
    assert_eq!(
        session.warm_generation("moody"),
        None,
        "error retires the session"
    );
    assert_valid(session.heap());
    // And the next call transparently reseeds.
    session
        .call_warm("moody", "get", &[Value::Ref(root)])
        .unwrap();
    assert_eq!(session.warm_generation("moody"), Some(1));
}

#[test]
fn warm_sessions_are_isolated_per_tcp_client() {
    const CLIENTS: usize = 3;
    const CALLS: usize = 4;
    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let server_registry = registry.clone();
    let server_thread = thread::spawn(move || {
        let mut server = ServerNode::new(server_registry, MachineSpec::fast());
        server.bind("bump", bump_service());
        ServerPool::new()
            .max_live_connections(CLIENTS)
            .max_total_connections(CLIENTS)
            .serve(server, listener)
            .join()
            .expect("serve")
    });

    let mut client_threads = Vec::new();
    for c in 0..CLIENTS {
        let registry = registry.clone();
        client_threads.push(thread::spawn(move || {
            let mut client = Session::connect_tcp(registry, addr).expect("connect");
            let classes = TreeClasses {
                tree: client.heap().registry_handle().by_name("Tree").unwrap(),
            };
            let root = tree::build_random_tree(client.heap(), &classes, 200, c as u64 + 1).unwrap();
            let base = client
                .heap()
                .get_field(root, "data")
                .unwrap()
                .as_int()
                .unwrap();
            for i in 1..=CALLS {
                let v = client
                    .call_warm("bump", "b", &[Value::Ref(root)])
                    .expect("warm call");
                // Each client's session is its own: the counter advances
                // by exactly one per call, never perturbed by peers.
                assert_eq!(v, Value::Int(base + i as i32), "client {c} call {i}");
            }
            assert_eq!(
                client.heap().get_field(root, "data").unwrap(),
                Value::Int(base + CALLS as i32)
            );
            client.close().expect("close");
        }));
    }
    for t in client_threads {
        t.join().expect("client thread");
    }
    let server = server_thread.join().expect("server thread");
    assert_valid(&server.state.heap);
    assert_eq!(
        server.state.heap.live_count(),
        0,
        "every client's cached session graph was released on disconnect"
    );
}

#[test]
fn warm_falls_back_to_cold_for_undeltable_graphs() {
    // A graph that grows a remote-marked object cannot travel as a
    // request delta; the client must transparently retire the session
    // and complete the call cold.
    let mut reg = ClassRegistry::new();
    let classes = tree::register_tree_classes(&mut reg);
    let printer = reg.define("Printer").remote().register();
    let registry = reg.snapshot();
    let mut session = Session::builder(registry)
        .serve(
            "read",
            Box::new(FnService::new(|_m, args, heap| {
                let root = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want tree"))?;
                Ok(heap.get_field(root, "data")?)
            })),
        )
        .build();
    let root = tree::build_random_tree(session.heap(), &classes, 8, 17).unwrap();
    session
        .heap()
        .set_field(root, "data", Value::Int(5))
        .unwrap();
    assert_eq!(
        session.call_warm("read", "r", &[Value::Ref(root)]).unwrap(),
        Value::Int(5)
    );
    assert_eq!(session.warm_generation("read"), Some(1));

    // Link a remote-marked object into the synchronized graph.
    let svc = session.heap().alloc_default(printer).unwrap();
    session
        .heap()
        .set_field(root, "left", Value::Ref(svc))
        .unwrap();
    assert_eq!(
        session.call_warm("read", "r", &[Value::Ref(root)]).unwrap(),
        Value::Int(5)
    );
    assert_eq!(
        session.warm_generation("read"),
        None,
        "undeltable graph retired the warm session and ran cold"
    );
    assert_valid(session.heap());
}

/// The open sanitizer finding, as a directed trace: `Call → Prune →
/// Graft → Call`. The graft's allocation recycles a slot the prune just
/// freed, for an object of the *same class*, so a sync record holding
/// only `(id, class, version)` takes the stranger for the pruned object
/// gone dirty and ships it under the dead object's position (reading it
/// through the stale handle: `NRMI-Z003` under `--features sanitize`).
/// The allocation stamp tells them apart: the position is freed and the
/// grafted node travels as new.
#[test]
fn pruned_slot_recycled_by_a_graft_is_freed_not_dirty() {
    let mut session = Session::builder(registry())
        .serve("bump", bump_service())
        .build();
    let classes = classes_of(&mut session);
    let root = tree::build_random_tree(session.heap(), &classes, 7, 3).unwrap();

    // A local twin: the same graph, touched by the same logic directly.
    let mut twin = nrmi::heap::Heap::new(registry());
    let twin_root = tree::build_random_tree(&mut twin, &classes, 7, 3).unwrap();
    let bump_locally = |heap: &mut nrmi::heap::Heap, root: ObjId| {
        let v = heap.get_field(root, "data").unwrap().as_int().unwrap();
        heap.set_field(root, "data", Value::Int(v + 1)).unwrap();
        if let Some(left) = heap.get_ref(root, "left").unwrap() {
            let lv = heap.get_field(left, "data").unwrap().as_int().unwrap();
            heap.set_field(left, "data", Value::Int(lv + 10)).unwrap();
        }
        Value::Int(v + 1)
    };
    // Prune the root's left subtree, then graft a fresh node in its
    // place. Returns the pruned handles and the grafted one.
    let prune_then_graft = |heap: &mut nrmi::heap::Heap, root: ObjId| {
        let left = heap.get_ref(root, "left").unwrap().expect("left subtree");
        heap.set_field(root, "left", Value::Null).unwrap();
        let pruned = tree::collect_nodes(heap, left).unwrap();
        for &id in &pruned {
            heap.free(id).unwrap();
        }
        let fresh = heap
            .alloc(
                classes.tree,
                vec![Value::Int(100), Value::Null, Value::Null],
            )
            .unwrap();
        heap.set_field(root, "left", Value::Ref(fresh)).unwrap();
        (pruned, fresh)
    };

    let got = session.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    assert_eq!(got, bump_locally(&mut twin, twin_root));

    let (pruned, fresh) = prune_then_graft(session.heap(), root);
    assert!(
        pruned.iter().any(|id| id.index() == fresh.index()),
        "the graft must recycle a pruned slot for this trace to bite"
    );
    prune_then_graft(&mut twin, twin_root);

    let got = session.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    assert_eq!(got, bump_locally(&mut twin, twin_root));
    assert_eq!(session.warm_generation("bump"), Some(2), "still warm");
    assert!(
        nrmi::heap::graph::isomorphic(session.heap(), root, &twin, twin_root).unwrap(),
        "the restored graph matches the local twin"
    );
    assert_valid(session.heap());
}

/// The merged client type gives a socket client the whole call surface:
/// `lookup`, `call_with_stats`, stub release, client-side GC and tracing
/// were reachable only from an in-process `Session` before.
#[test]
fn tcp_session_has_the_whole_call_surface() {
    let mut reg = ClassRegistry::new();
    let _ = tree::register_tree_classes(&mut reg);
    let token = reg.define("Token").field_int("n").remote().register();
    let registry = reg.snapshot();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind("bump", bump_service());
    server.bind(
        "mint",
        Box::new(FnService::new(move |_m, _args, heap| {
            Ok(Value::Ref(heap.alloc_raw(token, vec![Value::Int(1)])?))
        })),
    );
    server.bind_class(
        token,
        Box::new(FnService::new(|_m, args, heap| {
            let this = args[0]
                .as_ref_id()
                .ok_or_else(|| NrmiError::app("want receiver"))?;
            Ok(heap.get_field(this, "n")?)
        })),
    );
    // The serial driver serves the node itself, so its export table is
    // there to inspect afterwards.
    let server_thread = thread::spawn(move || {
        let mut transport = listener.accept().expect("accept");
        serve_connection(&mut server, &mut transport).expect("serve");
        server
    });

    let mut client = Session::connect_tcp(registry, addr).expect("connect");
    client.enable_tracing();
    assert!(client.lookup("bump").unwrap());
    assert!(!client.lookup("ghost").unwrap());

    let classes = TreeClasses {
        tree: client.heap().registry_handle().by_name("Tree").unwrap(),
    };
    let root = tree::build_random_tree(client.heap(), &classes, 16, 5).unwrap();
    let base = client
        .heap()
        .get_field(root, "data")
        .unwrap()
        .as_int()
        .unwrap();
    let (v, stats) = client
        .call_with_stats("bump", "b", &[Value::Ref(root)], CallOptions::auto())
        .unwrap();
    assert_eq!(v, Value::Int(base + 1));
    assert_eq!(stats.request_objects, 16);
    assert!(stats.restored_objects > 0);
    let v = client.call_warm("bump", "b", &[Value::Ref(root)]).unwrap();
    assert_eq!(v, Value::Int(base + 2));

    // Two remote objects: release one by hand, lose the other to GC.
    let kept = client.call("mint", "m", &[]).unwrap().as_ref_id().unwrap();
    let lost = client.call("mint", "m", &[]).unwrap().as_ref_id().unwrap();
    assert_eq!(client.call_on(kept, "n", &[]).unwrap(), Value::Int(1));
    client.release_stub(kept).unwrap();
    assert!(client.call_on(kept, "n", &[]).is_err(), "released");
    let (_, cleans) = client.collect_garbage(&[root]).unwrap();
    assert_eq!(cleans, 1, "the unrooted stub {lost} was cleaned");

    let traced: Vec<&str> = client
        .tracer()
        .entries()
        .iter()
        .map(|t| t.target.as_str())
        .collect();
    assert_eq!(traced[..2], ["bump.b", "bump.b"]);
    assert_eq!(
        traced.len(),
        6,
        "every call, failed one included: {traced:?}"
    );
    assert!(client.tracer().entries()[5].error.is_some());

    client.close().expect("close");
    let server = server_thread.join().expect("server thread");
    assert_eq!(server.state.exports.len(), 0, "both exports cleaned");
}
