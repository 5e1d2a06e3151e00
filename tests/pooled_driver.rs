//! The pooled driver's thread and memory bounds. A depth-1 connection is
//! served on one thread and switches to the pipelined driver only once
//! the peer pipelines; a cold call's server-side copy dies with the call
//! on a connection node, while what outlives calls there — exported
//! objects, stubs for the client's objects, warm sessions' leased graphs
//! — survives it.

use std::collections::HashMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use nrmi::core::{
    client_apply_reply, client_invoke, client_invoke_on_object_with_stats,
    client_invoke_warm_with_stats, client_marshal_call, serve_connection, serve_connection_pooled,
    CallOptions, ClientNode, Connection, FnService, NrmiError, PassMode, PendingCall, ReactorStep,
    RemoteService, RetryPolicy, ServerNode, ServerPool, Session, SharedServer, WarmCaches,
};
use nrmi::heap::tree::{build_running_example, register_tree_classes};
use nrmi::heap::{ClassRegistry, HeapAccess, Value};
use nrmi::transport::{
    channel_pair, Frame, LinkSpec, MachineSpec, TcpListenerTransport, TcpTransport, Transport,
};

/// Threads named like this one: the test's own thread and every thread
/// it spawned, directly or not — Linux threads inherit their creator's
/// name — but none of the tests the harness runs alongside.
#[cfg(target_os = "linux")]
fn threads_of_this_test() -> usize {
    let comm = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap_or_default();
    let me = comm("/proc/thread-self/comm".into());
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|task| {
            task.as_ref()
                .is_ok_and(|task| comm(task.path().join("comm")) == me)
        })
        .count()
}

/// A depth-1 client costs its pooled connection exactly one server
/// thread: no writer, no worker pool, until the peer pipelines.
#[test]
#[cfg(target_os = "linux")]
fn depth1_pooled_connection_adds_one_server_thread() {
    let registry = ClassRegistry::new().snapshot();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind(
        "echo",
        Box::new(FnService::new(|_m, args, _h| {
            Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
        })),
    );
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = ServerPool::new().serve(server, listener);
    let baseline = threads_of_this_test();

    let mut session =
        Session::connect_tcp_reliable(registry, addr, RetryPolicy::default()).expect("connect");
    for i in 0..200 {
        let ret = session.call("echo", "inc", &[Value::Int(i)]).expect("call");
        assert_eq!(ret, Value::Int(i + 1));
    }
    assert_eq!(
        threads_of_this_test(),
        baseline + 1,
        "a depth-1 connection is served by its connection thread alone"
    );
    session.close().expect("close");
    handle.shutdown().expect("shutdown");
}

/// A gate a service call parks on: `entered` fires when the call starts,
/// and it returns once `open` fires.
struct Gate {
    entered: mpsc::Receiver<()>,
    open: mpsc::Sender<()>,
}

fn gated_service() -> (Box<dyn RemoteService>, Gate) {
    let (entered_tx, entered) = mpsc::channel();
    let (open, open_rx) = mpsc::channel();
    let service = FnService::new(move |_m, _args, _h| {
        entered_tx.send(()).map_err(|_| NrmiError::app("gate"))?;
        open_rx.recv().map_err(|_| NrmiError::app("gate"))?;
        Ok(Value::Null)
    });
    (Box::new(service), Gate { entered, open })
}

/// A train whose first request arrives alone and the rest in one later
/// read: the lone request is served serially, the train escalates the
/// connection, and its calls overlap on the pipelined driver's workers:
/// the slow call sees both fast calls finish while it runs.
#[test]
fn train_behind_a_lone_request_escalates_and_overlaps() {
    let registry = ClassRegistry::new().snapshot();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    let (gate_service, gate) = gated_service();
    server.bind("gate", gate_service);
    // The slow call returns how many fast calls finished while it ran,
    // waiting up to a generous bound for both: run serially, it would
    // run first and see none.
    let (fast_done, slow_sees) = mpsc::channel::<()>();
    server.bind(
        "slow",
        Box::new(FnService::new(move |_m, _args, _h| {
            let seen = (0..2)
                .take_while(|_| slow_sees.recv_timeout(Duration::from_secs(5)).is_ok())
                .count();
            Ok(Value::Int(seen as i32))
        })),
    );
    server.bind(
        "fast",
        Box::new(FnService::new(move |_m, args, _h| {
            let _ = fast_done.send(());
            Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
        })),
    );
    let shared = SharedServer::from_node(server);
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serving = thread::spawn(move || {
        let mut conn = listener.accept().expect("accept");
        serve_connection_pooled(&shared, &mut conn)
    });

    const NONCE: u64 = 0x7EA1;
    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let mut pending: HashMap<u64, PendingCall> = HashMap::new();
    let mut tagged = |client: &mut ClientNode, seq: u64, service: &str, arg: i32| {
        let (call, call_pending) = client_marshal_call(
            client,
            service,
            "run",
            &[Value::Int(arg)],
            CallOptions::auto(),
        )
        .expect("marshal");
        pending.insert(seq, call_pending);
        Frame::Tagged {
            nonce: NONCE,
            seq,
            frame: Box::new(call),
        }
    };
    let held = tagged(&mut client, 0, "gate", 0);
    let train = [
        tagged(&mut client, 1, "slow", 0),
        tagged(&mut client, 2, "fast", 10),
        tagged(&mut client, 3, "fast", 20),
    ];
    let mut wire = TcpTransport::connect(addr).expect("connect");
    wire.send(&held).expect("send held");
    gate.entered.recv().expect("held call started");
    wire.send_batch(&train.iter().collect::<Vec<_>>())
        .expect("send train");
    gate.open.send(()).expect("open gate");

    let mut arrival = Vec::new();
    let mut values = HashMap::new();
    while arrival.len() < 4 {
        let Frame::Tagged { seq, frame, .. } = wire.recv().expect("reply") else {
            panic!("replies travel under their call ids");
        };
        let Frame::CallReply { payload } = *frame else {
            panic!("call {seq} failed: {frame:?}");
        };
        let call_pending = pending.remove(&seq).expect("one reply per call");
        let (value, _) = client_apply_reply(&mut client, call_pending, &payload).expect("apply");
        arrival.push(seq);
        values.insert(seq, value);
    }
    assert_eq!(arrival[0], 0, "the held call answers first");
    assert_eq!(
        values[&1],
        Value::Int(2),
        "both fast calls finished during the slow one"
    );
    assert_eq!(values[&2], Value::Int(11));
    assert_eq!(values[&3], Value::Int(21));

    drop(wire);
    serving
        .join()
        .expect("serve thread")
        .expect("clean disconnect");
}

/// Runs the cold call `service.run(args)` through the connection's step
/// and returns the value restored into the client.
fn steps_one_call(
    conn: &mut Connection<'_>,
    io: &mut dyn Transport,
    client: &mut ClientNode,
    service: &str,
    args: &[Value],
) -> Value {
    let (call, pending) =
        client_marshal_call(client, service, "run", args, CallOptions::auto()).expect("marshal");
    match conn.step(io, call) {
        ReactorStep::Reply {
            reply: Frame::CallReply { payload },
            ..
        } => {
            client_apply_reply(client, pending, &payload)
                .expect("apply")
                .0
        }
        other => panic!("cold call answered {other:?}"),
    }
}

/// 10,000 cold tree calls on one connection node: the node's live object
/// count is back to where it was after every call, and the heap never
/// held more than two calls' worth of objects at once.
#[test]
fn cold_calls_on_a_connection_node_keep_its_heap_flat() {
    let mut reg = ClassRegistry::new();
    let classes = register_tree_classes(&mut reg);
    let registry = reg.snapshot();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    let tree = classes.tree;
    server.bind(
        "tree",
        Box::new(FnService::new(move |_m, args, heap| {
            // Replace the root's left child with a fresh copy (the old
            // one still travels home in the linear map), and leave one
            // unlinked temporary behind.
            let root = args[0].as_ref_id().ok_or_else(|| NrmiError::app("tree"))?;
            let left = heap
                .get_ref(root, "left")?
                .ok_or_else(|| NrmiError::app("left"))?;
            let data = heap.get_field(left, "data")?.as_int().unwrap_or(0);
            let fields = vec![
                Value::Int(data + 1),
                heap.get_field(left, "left")?,
                heap.get_field(left, "right")?,
            ];
            let fresh = heap.alloc_raw(tree, fields)?;
            heap.set_field(root, "left", Value::Ref(fresh))?;
            heap.alloc_raw(tree, vec![Value::Int(-1), Value::Null, Value::Null])?;
            Ok(Value::Int(data + 1))
        })),
    );
    let shared = SharedServer::from_node(server);
    let mut node = shared.connection_node();
    let mut warm = WarmCaches::with_leases(node.leases.clone());
    let mut conn = Connection::new(&mut node, &mut warm);
    let (mut io, _peer) = channel_pair(None, LinkSpec::free());

    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let ex = build_running_example(&mut client.state.heap, &classes).expect("tree");
    let args = [Value::Ref(ex.root)];

    let ret = steps_one_call(&mut conn, &mut io, &mut client, "tree", &args);
    assert_eq!(ret, Value::Int(4));
    let first = conn.node.state.heap.stats();
    let per_call = first.allocations;
    assert_eq!(first.live(), 0, "the call's copy died with it");

    const CALLS: i32 = 10_000;
    const WARM_UP: i32 = 100;
    let mut live_after_warm_up = None;
    for i in 2..=CALLS {
        let ret = steps_one_call(&mut conn, &mut io, &mut client, "tree", &args);
        assert_eq!(ret, Value::Int(3 + i));
        if i == WARM_UP {
            live_after_warm_up = Some(conn.node.state.heap.stats().live());
        }
    }
    let stats = conn.node.state.heap.stats();
    assert_eq!(stats.allocations, per_call * CALLS as u64);
    assert_eq!(
        Some(stats.live()),
        live_after_warm_up,
        "live objects flat after warm-up"
    );
    assert!(
        stats.peak_live <= 2 * per_call,
        "peak {} live objects against {per_call} per call",
        stats.peak_live
    );
    assert!(
        conn.node.state.heap.slot_limit() as u64 <= 2 * per_call,
        "freed slots are recycled"
    );
}

/// What outlives a cold call on a connection node: an exported factory
/// object (and the object it references), the stub the server holds for
/// a client object passed by reference, and a warm session's leased
/// graph. Churning cold calls between uses would recycle any of their
/// slots freed by mistake — under `--features sanitize` a use of such a
/// handle traps.
#[test]
fn exports_stubs_and_leases_outlive_cold_calls() {
    let mut reg = ClassRegistry::new();
    let cell = reg.define("Cell").field_int("v").restorable().register();
    let counter = reg
        .define("Counter")
        .field_int("n")
        .field_ref("next")
        .register();
    let registry = reg.snapshot();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind(
        "cell",
        Box::new(FnService::new(move |_m, args, heap| {
            let target = args[0].as_ref_id().ok_or_else(|| NrmiError::app("cell"))?;
            let v = heap.get_field(target, "v")?.as_int().unwrap_or(0) + 1;
            heap.set_field(target, "v", Value::Int(v))?;
            heap.alloc_raw(cell, vec![Value::Int(-v)])?;
            Ok(Value::Int(v))
        })),
    );
    server.bind(
        "touch",
        Box::new(FnService::new(|_m, args, heap| {
            let target = args[0].as_ref_id().ok_or_else(|| NrmiError::app("touch"))?;
            let v = heap.get_field(target, "v")?.as_int().unwrap_or(0) + 1;
            heap.set_field(target, "v", Value::Int(v))?;
            Ok(Value::Int(v))
        })),
    );
    server.bind(
        "factory",
        Box::new(FnService::new(move |_m, _args, heap| {
            let next = heap.alloc_raw(counter, vec![Value::Int(35), Value::Null])?;
            Ok(Value::Ref(heap.alloc_raw(
                counter,
                vec![Value::Int(7), Value::Ref(next)],
            )?))
        })),
    );
    server.bind(
        "peek",
        Box::new(FnService::new(|_m, args, heap| {
            let remote = args[0].as_ref_id().ok_or_else(|| NrmiError::app("peek"))?;
            Ok(heap.get_field(remote, "v")?)
        })),
    );
    server.bind_class(
        counter,
        Box::new(FnService::new(|_m, args, heap| {
            let this = args[0].as_ref_id().ok_or_else(|| NrmiError::app("this"))?;
            let next = heap
                .get_ref(this, "next")?
                .ok_or_else(|| NrmiError::app("next"))?;
            Ok(heap.get_field(next, "n")?)
        })),
    );
    let shared = SharedServer::from_node(server);
    let mut node = shared.connection_node();
    let (mut t, mut server_t) = channel_pair(None, LinkSpec::free());
    let serving = thread::spawn(move || {
        let result = serve_connection(&mut node, &mut server_t);
        (node, result)
    });

    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let heap = &mut client.state.heap;
    let warm_cell = heap.alloc(cell, vec![Value::Int(100)]).expect("alloc");
    let probe = heap.alloc(cell, vec![Value::Int(5)]).expect("alloc");
    let cold_cell = heap.alloc(cell, vec![Value::Int(0)]).expect("alloc");
    let by_ref = CallOptions::forced(PassMode::RemoteRef);

    let warm = |client: &mut ClientNode, t: &mut dyn Transport| {
        client_invoke_warm_with_stats(client, t, "touch", "inc", &[Value::Ref(warm_cell)])
            .expect("warm call")
            .0
    };
    let churn = |client: &mut ClientNode, t: &mut dyn Transport| {
        for _ in 0..20 {
            client_invoke(
                client,
                t,
                "cell",
                "inc",
                &[Value::Ref(cold_cell)],
                CallOptions::auto(),
            )
            .expect("cold call");
        }
    };

    assert_eq!(warm(&mut client, &mut t), Value::Int(101), "seed");
    let session = client.warm.cache_id("touch");
    let opened = client_invoke(&mut client, &mut t, "factory", "open", &[], by_ref).expect("open");
    let stub = opened.as_ref_id().expect("a remote reference");
    let peek = |client: &mut ClientNode, t: &mut dyn Transport| {
        client_invoke(client, t, "peek", "v", &[Value::Ref(probe)], by_ref).expect("peek")
    };
    assert_eq!(peek(&mut client, &mut t), Value::Int(5));

    churn(&mut client, &mut t);

    let (got, _) = client_invoke_on_object_with_stats(
        &mut client,
        &mut t,
        stub,
        "get",
        &[],
        CallOptions::forced(PassMode::Copy),
    )
    .expect("object call");
    assert_eq!(
        got,
        Value::Int(35),
        "the export and what it references survive"
    );
    client
        .state
        .heap
        .set_field(probe, "v", Value::Int(6))
        .expect("write");
    assert_eq!(
        peek(&mut client, &mut t),
        Value::Int(6),
        "the server's stub still reaches the client object"
    );
    assert_eq!(warm(&mut client, &mut t), Value::Int(102));
    assert_eq!(
        client.warm.cache_id("touch"),
        session,
        "the leased graph survived: a delta, not a reseed"
    );
    assert_eq!(
        client.state.heap.get_field(cold_cell, "v").expect("read"),
        Value::Int(20)
    );

    drop(t);
    let (node, result) = serving.join().expect("serve thread");
    result.expect("clean disconnect");
    assert_eq!(node.state.exports.len(), 1);
    assert_eq!(node.state.stubs.len(), 1);
    assert_eq!(
        node.state.heap.live_count(),
        3,
        "two exported counters and one stub; every call copy died"
    );
}
