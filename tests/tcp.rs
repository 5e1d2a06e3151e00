//! The full protocol over real TCP sockets: genuine two-process-style
//! distribution (server on its own thread with its own heap, bytes on a
//! real socket).

use std::thread;

use nrmi::core::{
    serve_connection, CallOptions, FnService, NrmiError, PassMode, ServerNode, ServerPool, Session,
};
use nrmi::heap::tree::{self};
use nrmi::heap::{ClassRegistry, HeapAccess, SharedRegistry, Value};
use nrmi::transport::{MachineSpec, TcpListenerTransport};

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    let _ = tree::register_tree_classes(&mut reg);
    reg.snapshot()
}

/// Serves exactly one connection, then returns the node.
fn serve_one(server: ServerNode, listener: TcpListenerTransport) -> ServerNode {
    ServerPool::new()
        .max_live_connections(1)
        .max_total_connections(1)
        .serve(server, listener)
        .join()
        .expect("serve")
}

fn spawn_server(
    registry: SharedRegistry,
) -> (std::net::SocketAddr, thread::JoinHandle<ServerNode>) {
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        let mut server = ServerNode::new(registry, MachineSpec::fast());
        server.bind(
            "svc",
            Box::new(FnService::new(|method, args, heap| match method {
                "foo" => {
                    let root = args[0].as_ref_id().ok_or_else(|| NrmiError::app("tree"))?;
                    tree::run_foo(heap, root)?;
                    Ok(Value::Null)
                }
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "fail" => Err(NrmiError::app("tcp failure path")),
                other => Err(NrmiError::app(format!("no method {other}"))),
            })),
        );
        serve_one(server, listener)
    });
    (addr, handle)
}

#[test]
fn copy_restore_over_tcp_reproduces_figure_2() {
    let registry = registry();
    let (addr, server) = spawn_server(registry.clone());
    let mut client = Session::connect_tcp(registry, addr).expect("connect");
    let classes = tree::TreeClasses {
        tree: client.heap().registry_handle().by_name("Tree").unwrap(),
    };
    let ex = tree::build_running_example(client.heap(), &classes).unwrap();
    client
        .call("svc", "foo", &[Value::Ref(ex.root)])
        .expect("remote foo");
    let violations = tree::figure2_violations(client.heap(), &ex).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    client.close().expect("close");
    server.join().expect("server thread");
}

#[test]
fn remote_ref_callbacks_work_over_tcp() {
    let registry = registry();
    let (addr, server) = spawn_server(registry.clone());
    let mut client = Session::connect_tcp(registry, addr).expect("connect");
    let classes = tree::TreeClasses {
        tree: client.heap().registry_handle().by_name("Tree").unwrap(),
    };
    let ex = tree::build_running_example(client.heap(), &classes).unwrap();
    client
        .call_with(
            "svc",
            "foo",
            &[Value::Ref(ex.root)],
            CallOptions::forced(PassMode::RemoteRef),
        )
        .expect("remote-ref foo over tcp");
    // Mutations landed directly on the caller's objects.
    assert_eq!(
        client.heap().get_field(ex.alias1_target, "data").unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        client.heap().get_field(ex.alias2_target, "data").unwrap(),
        Value::Int(9)
    );
    client.close().expect("close");
    server.join().expect("server thread");
}

#[test]
fn errors_and_primitives_cross_the_socket() {
    let registry = registry();
    let (addr, server) = spawn_server(registry.clone());
    let mut client = Session::connect_tcp(registry, addr).expect("connect");
    let ret = client
        .call("svc", "echo", &[Value::Str("påylöad".into())])
        .expect("echo");
    assert_eq!(ret, Value::Str("påylöad".into()));
    let err = client.call("svc", "fail", &[]).unwrap_err();
    assert!(err.to_string().contains("tcp failure path"), "{err}");
    // Session still usable after a remote exception.
    let ret = client
        .call("svc", "echo", &[Value::Long(-9)])
        .expect("echo after error");
    assert_eq!(ret, Value::Long(-9));
    client.close().expect("close");
    server.join().expect("server thread");
}

#[test]
fn factory_pattern_works_over_tcp() {
    // First-class remote objects across a real socket: open an account
    // through the factory, then dispatch methods on the returned stub.
    let mut reg = ClassRegistry::new();
    let account = reg
        .define("Account")
        .field_long("cents")
        .remote()
        .register();
    let registry = reg.snapshot();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_registry = registry.clone();
    let server = thread::spawn(move || {
        let mut node = ServerNode::new(server_registry, MachineSpec::fast());
        node.bind(
            "bank",
            Box::new(FnService::new(move |_m, _a, heap| {
                Ok(Value::Ref(heap.alloc_raw(account, vec![Value::Long(0)])?))
            })),
        );
        node.bind_class(
            account,
            Box::new(FnService::new(|method, args, heap| {
                let this = args[0].as_ref_id().unwrap();
                match method {
                    "deposit" => {
                        let amount = args[1].as_long().unwrap_or(0);
                        let v = heap.get_field(this, "cents")?.as_long().unwrap_or(0);
                        heap.set_field(this, "cents", Value::Long(v + amount))?;
                        Ok(Value::Long(v + amount))
                    }
                    _ => Err(NrmiError::app("nope")),
                }
            })),
        );
        serve_one(node, listener);
    });

    let mut client = Session::connect_tcp(registry, addr).expect("connect");
    let stub = client
        .call("bank", "open", &[])
        .unwrap()
        .as_ref_id()
        .unwrap();
    assert!(client.heap().stub_key(stub).unwrap().is_some());
    assert_eq!(
        client
            .call_on(stub, "deposit", &[Value::Long(125)])
            .unwrap(),
        Value::Long(125)
    );
    assert_eq!(
        client.call_on(stub, "deposit", &[Value::Long(25)]).unwrap(),
        Value::Long(150)
    );
    client.close().expect("close");
    server.join().expect("server thread");
}

#[test]
fn sequential_clients_share_one_server() {
    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_registry = registry.clone();
    let handle = thread::spawn(move || {
        let mut server = ServerNode::new(server_registry, MachineSpec::fast());
        let mut counter = 0i32;
        server.bind(
            "counter",
            Box::new(FnService::new(move |_m, _a, _h| {
                counter += 1;
                Ok(Value::Int(counter))
            })),
        );
        // One node — heap and service state — across sequential
        // connections, like a single-threaded RMI dispatch queue.
        for _ in 0..3 {
            let mut transport = listener.accept().expect("accept");
            serve_connection(&mut server, &mut transport).expect("serve");
        }
    });
    for expected in 1..=3 {
        let mut client = Session::connect_tcp(registry.clone(), addr).expect("connect");
        let ret = client.call("counter", "tick", &[]).expect("tick");
        assert_eq!(
            ret,
            Value::Int(expected),
            "server state persists across connections"
        );
        client.close().expect("close");
    }
    handle.join().expect("server thread");
}
