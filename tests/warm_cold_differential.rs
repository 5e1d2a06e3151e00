//! Differential property test: a warm session (request deltas against a
//! cached server graph) must be observationally identical to a cold
//! session (full copy-restore each call) for *any* graph shape and any
//! schedule of client- and server-side mutations.
//!
//! Both worlds start from the same random (possibly cyclic, aliased)
//! graph, run the same deterministic mutator service for `k` calls, and
//! apply the same client-side edits between calls. After every call the
//! two client heaps must be isomorphic and the return values equal.

use std::collections::VecDeque;
use std::time::Duration;

use proptest::prelude::*;

use nrmi::core::{
    client_invoke_warm_with_stats, client_marshal_call, CallOptions, ClientNode, Connection,
    FnService, NrmiError, RemoteService, ServerNode, Session, WarmCaches, WorkCounts,
};
use nrmi::heap::graph::{first_difference, isomorphic_multi};
use nrmi::heap::{ClassRegistry, Heap, HeapAccess, ObjId, Value};
use nrmi::transport::{Frame, MachineSpec, Transport, TransportError};

/// One mutation, addressed by *preorder index* (not ObjId) so it means
/// the same thing on any isomorphic copy of the graph:
/// `(op, target_index, value)` with `op % 4` selecting
/// 0 = set data, 1 = unlink a child, 2 = alias to an existing node,
/// 3 = allocate a fresh node and link it in.
type Op = (u8, usize, i32);

#[derive(Clone, Debug)]
struct GraphSpec {
    data: Vec<i32>,
    edges: Vec<(usize, bool, usize)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (1usize..24).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<i32>(), n..=n),
            proptest::collection::vec((0usize..n, any::<bool>(), 0usize..n), 0..36),
        )
            .prop_map(|(data, edges)| GraphSpec { data, edges })
    })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0usize..64, -100i32..100), 0..5)
}

/// Per-call schedule: what the server does during the call, and what the
/// client does to its own graph after the call returns.
fn schedule() -> impl Strategy<Value = Vec<(Vec<Op>, Vec<Op>)>> {
    proptest::collection::vec((ops(), ops()), 1..5)
}

fn fresh_heap() -> Heap {
    let mut reg = ClassRegistry::new();
    reg.define("Node")
        .field_int("data")
        .field_ref("left")
        .field_ref("right")
        .restorable()
        .register();
    Heap::new(reg.snapshot())
}

fn build(heap: &mut Heap, spec: &GraphSpec) -> ObjId {
    let class = heap.registry_handle().by_name("Node").expect("Node");
    let nodes: Vec<ObjId> = spec
        .data
        .iter()
        .map(|&d| {
            heap.alloc(class, vec![Value::Int(d), Value::Null, Value::Null])
                .unwrap()
        })
        .collect();
    for &(from, left, to) in &spec.edges {
        let side = if left { "left" } else { "right" };
        heap.set_field(nodes[from], side, Value::Ref(nodes[to]))
            .unwrap();
    }
    nodes[0]
}

/// Deterministic preorder over `left` then `right` — the shared
/// coordinate system both worlds address mutations in.
fn preorder(heap: &mut dyn HeapAccess, root: ObjId) -> nrmi::heap::Result<Vec<ObjId>> {
    let mut order = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        order.push(id);
        // Push right first so left is visited first.
        for slot in [2usize, 1] {
            if let Some(child) = heap.get_field_raw(id, slot)?.as_ref_id() {
                stack.push(child);
            }
        }
    }
    Ok(order)
}

/// Applies one batch of ops to whatever heap (client's real heap or the
/// server's proxied one) — identical meaning on isomorphic graphs.
fn apply_ops(heap: &mut dyn HeapAccess, root: ObjId, ops: &[Op]) -> nrmi::heap::Result<()> {
    for &(op, idx, val) in ops {
        let order = preorder(heap, root)?;
        let target = order[idx % order.len()];
        let slot = 1 + (val.rem_euclid(2) as usize);
        match op % 4 {
            0 => heap.set_field_raw(target, 0, Value::Int(val))?,
            1 => heap.set_field_raw(target, slot, Value::Null)?,
            2 => {
                let other = order[(val.unsigned_abs() as usize) % order.len()];
                heap.set_field_raw(target, slot, Value::Ref(other))?;
            }
            3 => {
                let class = heap.class_of(target)?;
                let fresh =
                    heap.alloc_raw(class, vec![Value::Int(val), Value::Null, Value::Null])?;
                heap.set_field_raw(target, slot, Value::Ref(fresh))?;
            }
            _ => unreachable!(),
        }
    }
    Ok(())
}

/// Checksum of the reachable graph: order-sensitive fold over preorder
/// data fields, so any divergence in shape or values shows up.
fn checksum(heap: &mut dyn HeapAccess, root: ObjId) -> nrmi::heap::Result<i64> {
    let mut sum = 0i64;
    for (i, id) in preorder(heap, root)?.into_iter().enumerate() {
        let d = i64::from(heap.get_field_raw(id, 0)?.as_int().unwrap_or(0));
        sum = sum.wrapping_mul(31).wrapping_add(d ^ i as i64);
    }
    Ok(sum)
}

/// The server-side mutator: call `i` applies `schedule[i]` and returns
/// the post-mutation checksum.
fn mutator(schedule: Vec<Vec<Op>>) -> Box<dyn RemoteService> {
    Box::new(FnService::new(move |_m, args, heap| {
        let root = args[0]
            .as_ref_id()
            .ok_or_else(|| NrmiError::app("want graph"))?;
        let call = args[1]
            .as_int()
            .ok_or_else(|| NrmiError::app("want call index"))? as usize;
        let ops = schedule.get(call).cloned().unwrap_or_default();
        apply_ops(heap, root, &ops)?;
        Ok(Value::Int(checksum(heap, root)? as i32))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// warm ≡ cold: same graphs, same returns, call after call.
    #[test]
    fn warm_session_is_observationally_cold(
        spec in graph_spec(),
        plan in schedule(),
    ) {
        let server_side: Vec<Vec<Op>> = plan.iter().map(|(s, _)| s.clone()).collect();

        let mut reg = ClassRegistry::new();
        reg.define("Node")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        let mut cold = Session::builder(reg.snapshot())
            .serve("mutate", mutator(server_side.clone()))
            .build();
        let mut warm = Session::builder(reg.snapshot())
            .serve("mutate", mutator(server_side))
            .build();

        let cold_root = build(cold.heap(), &spec);
        let warm_root = build(warm.heap(), &spec);
        let opts = CallOptions::copy_restore_delta();

        for (i, (_, client_ops)) in plan.iter().enumerate() {
            let args = [Value::Ref(cold_root), Value::Int(i as i32)];
            let cv = cold.call_with_stats("mutate", "run", &args, opts).unwrap().0;
            let wargs = [Value::Ref(warm_root), Value::Int(i as i32)];
            let wv = warm.call_warm("mutate", "run", &wargs).unwrap();
            prop_assert_eq!(cv, wv, "call {}: same return value", i);

            prop_assert!(
                isomorphic_multi(cold.heap(), &[cold_root], warm.heap(), &[warm_root]).unwrap(),
                "call {}: client heaps diverged: {:?}",
                i,
                first_difference(cold.heap(), &[cold_root], warm.heap(), &[warm_root]).unwrap()
            );

            // Same client-side edits between calls in both worlds.
            apply_ops(cold.heap(), cold_root, client_ops).unwrap();
            apply_ops(warm.heap(), warm_root, client_ops).unwrap();
        }

        // The warm session really was warm the whole time.
        prop_assert_eq!(warm.warm_generation("mutate"), Some(plan.len() as u64));
    }
}

/// A directed (non-random) case covering the trickiest delta interaction:
/// the client unlinks a shared subtree (freed positions) while also
/// grafting new nodes, then the server re-aliases what is left.
#[test]
fn directed_free_then_alias_case() {
    let spec = GraphSpec {
        data: vec![1, 2, 3, 4, 5],
        edges: vec![
            (0, true, 1),
            (0, false, 2),
            (1, true, 3),
            (2, true, 3),
            (3, false, 4),
        ],
    };
    let server_side = vec![vec![(2u8, 0usize, 3i32)], vec![(0u8, 2usize, 77i32)]];
    let client_side: Vec<Op> = vec![(1, 1, 0), (3, 0, 9)];

    let mut cold = {
        let h = fresh_heap();
        Session::builder(h.registry_handle().clone())
            .serve("mutate", mutator(server_side.clone()))
            .build()
    };
    let mut warm = {
        let h = fresh_heap();
        Session::builder(h.registry_handle().clone())
            .serve("mutate", mutator(server_side))
            .build()
    };
    let cold_root = build(cold.heap(), &spec);
    let warm_root = build(warm.heap(), &spec);
    let opts = CallOptions::copy_restore_delta();

    for i in 0..2 {
        let cv = cold
            .call_with_stats(
                "mutate",
                "run",
                &[Value::Ref(cold_root), Value::Int(i)],
                opts,
            )
            .unwrap()
            .0;
        let wv = warm
            .call_warm("mutate", "run", &[Value::Ref(warm_root), Value::Int(i)])
            .unwrap();
        assert_eq!(cv, wv, "call {i}");
        assert!(
            isomorphic_multi(cold.heap(), &[cold_root], warm.heap(), &[warm_root]).unwrap(),
            "call {i} diverged"
        );
        apply_ops(cold.heap(), cold_root, &client_side).unwrap();
        apply_ops(warm.heap(), warm_root, &client_side).unwrap();
    }
    assert_eq!(warm.warm_generation("mutate"), Some(2));
}

// ---------------------------------------------------------------------------
// Pins on the one call pipeline: cold, seed and warm calls are the same
// steps, so they must agree wherever they overlap.
// ---------------------------------------------------------------------------

/// The callback channel of a step that makes no callbacks.
struct NoIo;

impl Transport for NoIo {
    fn send(&mut self, _frame: &Frame) -> Result<(), TransportError> {
        Ok(())
    }
    fn recv(&mut self) -> Result<Frame, TransportError> {
        Err(TransportError::Disconnected)
    }
    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
        Err(TransportError::Disconnected)
    }
}

/// Client and server joined in process through the production step,
/// keeping every request frame the client sent.
struct Wire {
    server: ServerNode,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
    sent: Vec<Frame>,
}

impl Transport for Wire {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.sent.push(frame.clone());
        let step =
            Connection::new(&mut self.server, &mut self.caches).step(&mut NoIo, frame.clone());
        self.replies.extend(step.into_replies());
        Ok(())
    }
    fn recv(&mut self) -> Result<Frame, TransportError> {
        self.replies.pop_front().ok_or(TransportError::Disconnected)
    }
    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, TransportError> {
        self.recv()
    }
}

/// The seed of a warm session is the cold `copy_restore_delta` request
/// in another envelope: same payload, byte for byte, same mode.
#[test]
fn seed_request_payload_is_the_cold_request_payload() {
    let spec = GraphSpec {
        data: (0..40).collect(),
        edges: (0..39)
            .map(|i| (i / 2, i % 2 == 0, i + 1))
            .chain([(7, true, 3), (12, false, 12), (30, true, 0)])
            .collect(),
    };
    let registry = fresh_heap().registry_handle().clone();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind("mutate", mutator(vec![vec![(0, 1, 5)]]));
    let mut wire = Wire {
        caches: WarmCaches::with_leases(server.leases.clone()),
        server,
        replies: VecDeque::new(),
        sent: Vec::new(),
    };

    let mut cold = ClientNode::new(registry.clone(), MachineSpec::fast());
    let cold_root = build(&mut cold.state.heap, &spec);
    let args = [Value::Ref(cold_root), Value::Int(0)];
    let opts = CallOptions::copy_restore_delta();
    let (cold_frame, _) = client_marshal_call(&mut cold, "mutate", "run", &args, opts).unwrap();

    let mut warm = ClientNode::new(registry, MachineSpec::fast());
    let warm_root = build(&mut warm.state.heap, &spec);
    let args = [Value::Ref(warm_root), Value::Int(0)];
    client_invoke_warm_with_stats(&mut warm, &mut wire, "mutate", "run", &args).unwrap();

    let Frame::CallRequest {
        mode: cold_mode,
        payload: cold_payload,
        ..
    } = cold_frame
    else {
        panic!("cold call marshalled as {cold_frame:?}");
    };
    let Frame::CallRequestWarm {
        mode,
        generation: 0,
        payload,
        ..
    } = &wire.sent[0]
    else {
        panic!("seed travelled as {:?}", wire.sent[0]);
    };
    assert_eq!(*mode, cold_mode);
    assert_eq!(*payload, cold_payload, "seed payload ≡ cold payload");
}

/// Schema and service for the full-reply fallbacks: when asked to, the
/// method links a remote-marked (server-owned) object into the caller's
/// restorable graph, which no delta can carry — the server must answer
/// the annotated full reply instead.
fn attach_world() -> (Session, ObjId) {
    let mut reg = ClassRegistry::new();
    let printer = reg.define("Printer").field_str("name").remote().register();
    let holder = reg
        .define("Holder")
        .field_int("calls")
        .field_ref("device")
        .field_ref("next")
        .restorable()
        .register();
    let mut session = Session::builder(reg.snapshot())
        .serve(
            "svc",
            Box::new(FnService::new(move |_m, args, heap| {
                let h = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want holder"))?;
                let calls = heap.get_field(h, "calls")?.as_int().unwrap_or(0) + 1;
                heap.set_field(h, "calls", Value::Int(calls))?;
                if args[1] == Value::Bool(true) {
                    let dev = heap.alloc_raw(printer, vec![Value::Str("lp0".into())])?;
                    heap.set_field(h, "device", Value::Ref(dev))?;
                    let next =
                        heap.alloc_raw(holder, vec![Value::Int(0), Value::Null, Value::Null])?;
                    heap.set_field(h, "next", Value::Ref(next))?;
                }
                Ok(Value::Int(calls))
            })),
        )
        .build();
    let tail = session
        .heap()
        .alloc(holder, vec![Value::Int(40), Value::Null, Value::Null])
        .unwrap();
    let head = session
        .heap()
        .alloc(holder, vec![Value::Int(0), Value::Null, Value::Ref(tail)])
        .unwrap();
    (session, head)
}

/// The work the client counted while running `call`, alongside its
/// result.
fn counted<R>(session: &mut Session, call: impl FnOnce(&mut Session) -> R) -> (R, WorkCounts) {
    let before = session.client().state.work;
    let result = call(session);
    let after = session.client().state.work;
    let work = WorkCounts {
        calls: after.calls - before.calls,
        dispatches: after.dispatches - before.dispatches,
        objects_serialized: after.objects_serialized - before.objects_serialized,
        objects_deserialized: after.objects_deserialized - before.objects_deserialized,
        bytes: after.bytes - before.bytes,
        linear_map_entries: after.linear_map_entries - before.linear_map_entries,
        objects_restored: after.objects_restored - before.objects_restored,
        owner_callbacks: after.owner_callbacks - before.owner_callbacks,
        proxy_callbacks: after.proxy_callbacks - before.proxy_callbacks,
    };
    (result, work)
}

/// The server's tally of a session's whole run.
fn server_work(session: Session) -> WorkCounts {
    session.shutdown().expect("clean shutdown").state.work
}

/// The server-side annotated full reply — one encoder for cold, seed and
/// warm — reached from each: same value, same restored graph, same
/// restore accounting and charges as the cold call, and the session is
/// retired (the server kept no cache).
#[test]
fn server_side_full_reply_fallback_is_the_same_from_cold_seed_and_warm() {
    let opts = CallOptions::copy_restore_delta();
    let args = |root: ObjId, attach: bool| [Value::Ref(root), Value::Bool(attach)];

    // Seed: the fallback on the session's first call.
    let (mut cold, cold_root) = attach_world();
    let (mut seed, seed_root) = attach_world();
    let ((cv, cs), cold_work) = counted(&mut cold, |s| {
        s.call_with_stats("svc", "run", &args(cold_root, true), opts)
            .unwrap()
    });
    let ((sv, ss), seed_work) = counted(&mut seed, |s| {
        s.call_warm_with_stats("svc", "run", &args(seed_root, true))
            .unwrap()
    });
    assert_eq!(
        cs.reply_objects, 3,
        "a full reply: both holders and the new one"
    );
    assert_eq!(
        (sv, ss),
        (cv, cs),
        "the seed is the cold call, statistics and all"
    );
    assert_eq!(
        seed_work, cold_work,
        "and charges what the cold call charges"
    );
    assert_eq!(seed.warm_generation("svc"), None, "no cache established");
    assert!(isomorphic_multi(cold.heap(), &[cold_root], seed.heap(), &[seed_root]).unwrap());
    assert_eq!(
        server_work(seed),
        server_work(cold),
        "on the server too: the seed's fallback is the cold call's"
    );

    // Generation ≥ 1: seed with a deltable call, then fall back.
    let (mut cold, cold_root) = attach_world();
    let (mut warm, warm_root) = attach_world();
    cold.call_with("svc", "run", &args(cold_root, false), opts)
        .unwrap();
    warm.call_warm("svc", "run", &args(warm_root, false))
        .unwrap();
    assert_eq!(warm.warm_generation("svc"), Some(1));
    let (cv, cs) = cold
        .call_with_stats("svc", "run", &args(cold_root, true), opts)
        .unwrap();
    let ((wv, ws), warm_work) = counted(&mut warm, |s| {
        s.call_warm_with_stats("svc", "run", &args(warm_root, true))
            .unwrap()
    });
    assert_eq!(wv, cv);
    assert_eq!(
        (ws.reply_objects, ws.restored_objects, ws.new_objects),
        (cs.reply_objects, cs.restored_objects, cs.new_objects)
    );
    // The warm request by warm's rules, its restore by cold's.
    let expected = WorkCounts {
        calls: 1,
        objects_serialized: ws.request_objects as u64,
        objects_deserialized: ws.reply_objects as u64,
        bytes: (ws.request_bytes + ws.reply_bytes) as u64,
        objects_restored: ws.restored_objects as u64,
        ..WorkCounts::default()
    };
    assert_eq!(warm_work, expected);
    assert_eq!(warm.warm_generation("svc"), None, "session retired");
    assert!(isomorphic_multi(cold.heap(), &[cold_root], warm.heap(), &[warm_root]).unwrap());

    // Retired, not broken: the next warm call reseeds.
    warm.call_warm("svc", "run", &args(warm_root, false))
        .unwrap();
    assert_eq!(warm.warm_generation("svc"), Some(1));
    cold.call_with("svc", "run", &args(cold_root, false), opts)
        .unwrap();

    // The server encoded the same three replies in both worlds — two
    // deltas and the annotated full reply — and dispatched three calls.
    let (warm_server, cold_server) = (server_work(warm), server_work(cold));
    assert_eq!(
        warm_server.objects_serialized,
        cold_server.objects_serialized
    );
    assert_eq!((warm_server.dispatches, cold_server.dispatches), (3, 3));
}

/// A seed is charged what the cold call it is charges — on the server
/// too, step 2's linear map included.
#[test]
fn seed_is_charged_like_the_cold_call_it_is() {
    let spec = GraphSpec {
        data: (0..30).collect(),
        edges: (0..29).map(|i| (i / 2, i % 2 == 0, i + 1)).collect(),
    };
    let work_of = |warm: bool| {
        let mut session = Session::builder(fresh_heap().registry_handle().clone())
            .serve("mutate", mutator(vec![vec![(0, 3, 9), (3, 1, 4)]]))
            .build();
        let root = build(session.heap(), &spec);
        let args = [Value::Ref(root), Value::Int(0)];
        if warm {
            session.call_warm("mutate", "run", &args).unwrap();
        } else {
            let opts = CallOptions::copy_restore_delta();
            session.call_with("mutate", "run", &args, opts).unwrap();
        }
        (session.client().state.work, server_work(session))
    };
    let (seed, cold) = (work_of(true), work_of(false));
    assert_eq!(seed, cold, "client and server tallies");
    let (client, server) = cold;
    assert_eq!((client.calls, server.dispatches), (1, 1));
    assert_eq!(
        server.linear_map_entries,
        2 * spec.data.len() as u64,
        "step 2's map of the 30-node graph, and the delta reply's order"
    );
}
