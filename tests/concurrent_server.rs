//! Multi-client serving: several TCP clients hitting one shared server
//! concurrently (§4.1: "servers can always be multi-threaded and
//! accept requests from multiple client machines without sacrificing
//! network transparency").

use std::thread;

use nrmi::core::{FnService, NrmiError, ServerNode, ServerPool, Session};
use nrmi::heap::tree::{self};
use nrmi::heap::{ClassRegistry, SharedRegistry, Value};
use nrmi::transport::{MachineSpec, TcpListenerTransport};

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    let _ = tree::register_tree_classes(&mut reg);
    reg.snapshot()
}

#[test]
fn concurrent_clients_share_server_state() {
    const CLIENTS: usize = 4;
    const CALLS_PER_CLIENT: i32 = 25;

    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    let mut total = 0i32;
    server.bind(
        "accumulator",
        Box::new(FnService::new(move |_m, args, _h| {
            total += args[0].as_int().unwrap_or(0);
            Ok(Value::Int(total))
        })),
    );
    // No connection count and no dummy connection: the pool accepts
    // until `shutdown()` unblocks its accept loop.
    let handle = ServerPool::new().serve(server, listener);

    let mut client_threads = Vec::new();
    for c in 0..CLIENTS {
        let registry = registry.clone();
        client_threads.push(thread::spawn(move || {
            let mut client = Session::connect_tcp(registry, addr).expect("connect");
            for i in 0..CALLS_PER_CLIENT {
                let ret = client
                    .call("accumulator", "add", &[Value::Int(1)])
                    .expect("call");
                // The running total is monotone and at least our own
                // contribution so far.
                assert!(ret.as_int().unwrap() > i, "client {c}");
            }
            client.close().expect("close");
        }));
    }
    for t in client_threads {
        t.join().expect("client thread");
    }
    // All contributions arrived exactly once: a fresh connection reads
    // the final total with an add(0) and it must be exact — neither a
    // lost increment nor a double-counted one.
    let mut auditor = Session::connect_tcp(registry, addr).expect("connect auditor");
    let total = auditor
        .call("accumulator", "add", &[Value::Int(0)])
        .expect("audit call");
    assert_eq!(
        total.as_int().unwrap(),
        CLIENTS as i32 * CALLS_PER_CLIENT,
        "every increment must be applied exactly once"
    );
    auditor.close().expect("close auditor");
    let server = handle.shutdown().expect("shutdown");
    assert!(server.is_bound("accumulator"), "binding survives the pool");
}

#[test]
fn concurrent_copy_restore_calls_do_not_interfere() {
    const CLIENTS: usize = 3;
    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let server_registry = registry.clone();
    let server_thread = thread::spawn(move || {
        let mut server = ServerNode::new(server_registry, MachineSpec::fast());
        server.bind(
            "svc",
            Box::new(FnService::new(|_m, args, heap| {
                let root = args[0].as_ref_id().ok_or_else(|| NrmiError::app("tree"))?;
                tree::run_foo(heap, root)?;
                Ok(Value::Null)
            })),
        );
        ServerPool::new()
            .max_live_connections(CLIENTS)
            .max_total_connections(CLIENTS)
            .serve(server, listener)
            .join()
            .expect("serve")
    });

    let mut client_threads = Vec::new();
    for _ in 0..CLIENTS {
        let registry = registry.clone();
        client_threads.push(thread::spawn(move || {
            let mut client = Session::connect_tcp(registry, addr).expect("connect");
            let classes = tree::TreeClasses {
                tree: client.heap().registry_handle().by_name("Tree").unwrap(),
            };
            // Each client runs the running example several times on
            // fresh trees; every restore must be exact despite the
            // interleaving on the server.
            for _ in 0..5 {
                let ex = tree::build_running_example(client.heap(), &classes).unwrap();
                client
                    .call("svc", "foo", &[Value::Ref(ex.root)])
                    .expect("call");
                let violations = tree::figure2_violations(client.heap(), &ex).unwrap();
                assert!(violations.is_empty(), "{violations:?}");
            }
            client.close().expect("close");
        }));
    }
    for t in client_threads {
        t.join().expect("client thread");
    }
    let server = server_thread.join().expect("server thread");
    // Call copies live in per-connection heaps and are reclaimed when
    // the connection ends — the shared node no longer accumulates them.
    assert_eq!(
        server.state.heap.live_count(),
        0,
        "call copies are confined to connection heaps and freed on disconnect"
    );
}
