//! At-most-once delivery under chaos: for ANY drop/duplicate/delay/
//! disconnect schedule, every call's observable server-side effect
//! happens exactly once, or the client gets a deadline error — never
//! twice, and never a hang past the deadline.
//!
//! The oracle is arithmetic: call `i` adds `3^i` to a server-side
//! accumulator, so the final total is a base-3 numeral whose `i`-th
//! digit counts how many times call `i` executed. Any digit ≥ 2 is a
//! double execution — the failure mode the reply cache exists to
//! prevent. A digit of 1 under a deadline error is legal ("executed,
//! reply lost"); a digit of 0 under success is the opposite corruption
//! (a lost effect) and equally fatal.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nrmi::core::{
    client_invoke, client_invoke_warm_with_stats, client_marshal_call, serve_connection,
    serve_connection_pooled, CallOptions, ClientNode, FnService, NrmiError, PassMode,
    PipelinedCall, ReliableTransport, ReplyCache, ReplyDecision, RetryPolicy, ServerNode,
    ServerPool, Session, SharedServer, REPLY_EVICTED,
};
use nrmi::heap::{ClassRegistry, HeapAccess, SharedRegistry, Value};
use nrmi::transport::{
    channel_pair, Fault, FaultPlan, FaultyTransport, Frame, LinkSpec, MachineSpec,
    TcpListenerTransport, TcpTransport, Transport, TransportError,
};

fn registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    reg.define("Cell").field_int("data").restorable().register();
    reg.snapshot()
}

/// Binds the digit accumulator: `tick` adds `3^i` for call index `i`,
/// `read` returns the accumulator untouched.
fn bind_digit_service(node: &mut ServerNode) {
    let mut total = 0i64;
    node.bind(
        "digits",
        Box::new(FnService::new(move |method, args, _h| {
            if method == "read" {
                return Ok(Value::Long(total));
            }
            let i = args[0].as_int().unwrap_or(0) as u32;
            total += 3i64.pow(i);
            Ok(Value::Long(total))
        })),
    );
}

fn test_policy() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(3),
        attempt_timeout: Duration::from_millis(60),
        max_attempts: 8,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter: false,
    }
}

fn chaos_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        5 => Just(Fault::Pass),
        2 => Just(Fault::DropFrame),
        2 => Just(Fault::Duplicate),
        1 => Just(Fault::Disconnect),
        1 => (1u64..30).prop_map(|ms| Fault::Delay(Duration::from_millis(ms))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_effect_happens_exactly_once_or_the_call_deadline_errors(
        sends in proptest::collection::vec(chaos_fault(), 0..8),
        recvs in proptest::collection::vec(chaos_fault(), 0..8),
    ) {
        const CALLS: usize = 6;
        let registry = registry();
        let (client_t, mut server_t) = channel_pair(None, LinkSpec::free());
        let server_registry = registry.clone();
        let server = thread::spawn(move || {
            let mut node = ServerNode::new(server_registry, MachineSpec::fast());
            bind_digit_service(&mut node);
            let _ = serve_connection(&mut node, &mut server_t);
        });

        let mut client = ClientNode::new(registry, MachineSpec::fast());
        let policy = test_policy();
        let faulty = FaultyTransport::new(client_t, FaultPlan { sends, recvs });
        let mut transport = ReliableTransport::new(faulty, policy);

        let mut succeeded = [false; CALLS];
        for (i, ok) in succeeded.iter_mut().enumerate() {
            let started = Instant::now();
            let result = client_invoke(
                &mut client,
                &mut transport,
                "digits",
                "tick",
                &[Value::Int(i as i32)],
                CallOptions::forced(PassMode::Copy),
            );
            prop_assert!(
                started.elapsed() < policy.deadline + Duration::from_secs(2),
                "call {i} hung past its deadline: {:?}",
                started.elapsed()
            );
            match result {
                Ok(_) => *ok = true,
                Err(NrmiError::Transport(TransportError::DeadlineExceeded { .. })) => {}
                Err(other) => prop_assert!(
                    false,
                    "call {i}: the only legal failure is a deadline error, got {other}"
                ),
            }
        }

        // The schedules are exhausted by now (≤ 8 faults a side); the
        // audit read runs clean.
        let total = client_invoke(
            &mut client,
            &mut transport,
            "digits",
            "read",
            &[Value::Int(-1)],
            CallOptions::forced(PassMode::Copy),
        )
        .expect("audit read")
        .as_long()
        .expect("long total");

        for (i, &ok) in succeeded.iter().enumerate() {
            let digit = (total / 3i64.pow(i as u32)) % 3;
            prop_assert!(
                digit <= 1,
                "call {i} executed {digit} times (total {total}): at-most-once violated"
            );
            if ok {
                prop_assert_eq!(
                    digit, 1,
                    "call {} reported success but its effect is missing (total {})", i, total
                );
            }
        }
        prop_assert!(total < 3i64.pow(CALLS as u32), "effects beyond the last call");

        let _ = transport.send(&Frame::Shutdown);
        drop(transport);
        server.join().expect("server thread");
    }
}

#[test]
fn tcp_reconnect_retransmits_and_executes_exactly_once() {
    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_registry = registry.clone();
    let server = thread::spawn(move || {
        let mut node = ServerNode::new(server_registry, MachineSpec::fast());
        bind_digit_service(&mut node);
        ServerPool::new()
            .max_live_connections(2)
            .max_total_connections(2)
            .serve(node, listener)
            .join()
            .expect("serve")
    });

    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let transport = TcpTransport::connect(addr).expect("connect");
    let mut transport = ReliableTransport::new(transport, test_policy());

    let call = |client: &mut ClientNode,
                transport: &mut ReliableTransport<TcpTransport>,
                i: i32|
     -> Result<Value, NrmiError> {
        client_invoke(
            client,
            transport,
            "digits",
            "tick",
            &[Value::Int(i)],
            CallOptions::forced(PassMode::Copy),
        )
    };

    assert_eq!(
        call(&mut client, &mut transport, 0).unwrap(),
        Value::Long(1)
    );

    // An orderly Shutdown ends connection 1 on the server; the next
    // call's request lands on a dead socket, and the client must
    // re-dial and retransmit — landing on connection 2, where the
    // shared reply cache still guards against double execution.
    transport.send(&Frame::Shutdown).expect("shutdown conn 1");
    assert_eq!(
        call(&mut client, &mut transport, 1).unwrap(),
        Value::Long(4),
        "3^0 + 3^1: both calls executed exactly once across the reconnect"
    );
    assert!(
        transport.stats().reconnects >= 1,
        "the second call crossed a reconnect: {:?}",
        transport.stats()
    );

    // Under `--features lockcheck`, every scenario above doubles as a
    // lock-discipline audit of the real server (DESIGN.md §3i).
    #[cfg(feature = "lockcheck")]
    nrmi::check::assert_discipline_clean("reliability: tcp reconnect retransmit");
    transport.send(&Frame::Shutdown).expect("shutdown conn 2");
    drop(transport);
    server.join().expect("server thread");
}

#[test]
fn warm_sessions_fall_back_to_a_cold_reseed_across_reconnect() {
    // Warm sessions cache the argument graph per CONNECTION; a reconnect
    // loses them. The client must recover by falling back to a cold
    // (seed) call that rebuilds the server cache — transparently, with
    // the same answer a never-disconnected session would give.
    let registry = registry();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_registry = registry.clone();
    let server = thread::spawn(move || {
        let mut node = ServerNode::new(server_registry, MachineSpec::fast());
        node.bind(
            "svc",
            Box::new(FnService::new(|_m, args, heap| {
                let cell = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a cell"))?;
                let d = heap.get_field(cell, "data")?.as_int().unwrap_or(0);
                heap.set_field(cell, "data", Value::Int(3 * d + 1))?;
                Ok(Value::Long(i64::from(d)))
            })),
        );
        ServerPool::new()
            .max_live_connections(2)
            .max_total_connections(2)
            .serve(node, listener)
            .join()
            .expect("serve")
    });

    let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
    let cell_class = registry.by_name("Cell").expect("registered");
    let cell = client
        .state
        .heap
        .alloc(cell_class, vec![Value::Int(1)])
        .expect("alloc");
    let transport = TcpTransport::connect(addr).expect("connect");
    let mut transport = ReliableTransport::new(transport, test_policy());

    // Seed the warm session on connection 1: returns the old value 1,
    // restores 4 into the client's cell.
    let (v1, _) = client_invoke_warm_with_stats(
        &mut client,
        &mut transport,
        "svc",
        "bump",
        &[Value::Ref(cell)],
    )
    .expect("warm call 1");
    assert_eq!(v1, Value::Long(1));
    assert_eq!(
        client.state.heap.get_field(cell, "data").unwrap(),
        Value::Int(4)
    );

    // Kill connection 1. The client's warm cache now names a session
    // generation the server lost with the connection.
    transport.send(&Frame::Shutdown).expect("shutdown conn 1");

    // The next warm call reconnects, gets CacheMiss for the orphaned
    // session, and reseeds — the observable result is exactly one more
    // application of the mutation.
    let (v2, _) = client_invoke_warm_with_stats(
        &mut client,
        &mut transport,
        "svc",
        "bump",
        &[Value::Ref(cell)],
    )
    .expect("warm call 2");
    assert_eq!(v2, Value::Long(4), "the old value, applied exactly once");
    assert_eq!(
        client.state.heap.get_field(cell, "data").unwrap(),
        Value::Int(13),
        "3*4 + 1, not a double application"
    );
    assert!(transport.stats().reconnects >= 1, "{:?}", transport.stats());

    transport.send(&Frame::Shutdown).expect("shutdown conn 2");
    drop(transport);
    server.join().expect("server thread");
}

#[test]
fn evicted_reply_racing_a_pipelined_retransmit_reports_not_reexecutes() {
    // Two calls pipelined on one connection, both replies lost, and a
    // reply cache so tight that storing the second reply evicts the
    // first. The retransmissions must resolve deterministically: the
    // evicted call gets the definite REPLY_EVICTED error, the cached
    // call gets its stored reply replayed — and neither executes twice.
    // The test thread plays the server inline over a channel pair, so
    // every interleaving step is explicit.
    let registry = registry();
    let (client_t, mut server_t) = channel_pair(None, LinkSpec::free());
    let mut client = ClientNode::new(registry, MachineSpec::fast());
    let mut transport = ReliableTransport::new(client_t, test_policy());

    let marshal = |client: &mut ClientNode, i: i32| {
        let (frame, _pending) = client_marshal_call(
            client,
            "digits",
            "tick",
            &[Value::Int(i)],
            CallOptions::forced(PassMode::Copy),
        )
        .expect("marshal");
        frame
    };
    let f0 = marshal(&mut client, 0);
    let f1 = marshal(&mut client, 1);
    let seq0 = transport.send_call(&f0).expect("send 0").expect("tagged");
    let seq1 = transport.send_call(&f1).expect("send 1").expect("tagged");
    assert_eq!(transport.pending_calls(), 2);

    // Server, fresh pass: execute both, store both replies — the 1-byte
    // cap means storing the second evicts the first — and "lose" both
    // replies (send nothing).
    let mut cache = ReplyCache::with_limits(1, 8);
    let mut executions = 0usize;
    for _ in 0..2 {
        let frame = server_t.recv().expect("fresh request");
        let Frame::Tagged { nonce, seq, frame } = frame else {
            panic!("pipelined call escaped the connection untagged: {frame:?}");
        };
        assert!(matches!(*frame, Frame::CallRequest { .. }));
        assert_eq!(cache.begin(nonce, seq), ReplyDecision::Fresh);
        executions += 1;
        cache.store(
            nonce,
            seq,
            &Frame::CallError {
                message: format!("stored-{seq}"),
            },
        );
    }

    // Client: the poll window closes after the attempt timeout, so both
    // calls go back on the wire before it returns.
    assert!(matches!(
        transport.recv_reply_timeout(seq0, Duration::from_millis(200)),
        Err(TransportError::Timeout)
    ));

    // Server, retransmission pass: the duplicates must classify as
    // Evicted/Replay — a Fresh here would be a re-execution.
    let mut answered = std::collections::HashSet::new();
    while answered.len() < 2 {
        let frame = server_t
            .recv_timeout(Duration::from_secs(2))
            .expect("retransmission");
        let Frame::Tagged { nonce, seq, .. } = frame else {
            panic!("expected a tagged retransmission, got {frame:?}");
        };
        let reply = match cache.decision(nonce, seq) {
            ReplyDecision::Evicted => {
                assert_eq!(seq, seq0, "the LRU entry (the first call) was evicted");
                Frame::CallError {
                    message: REPLY_EVICTED.into(),
                }
            }
            ReplyDecision::Replay(cached) => {
                assert_eq!(seq, seq1);
                cached
            }
            other => panic!("retransmission of call {seq} classified {other:?}"),
        };
        if answered.insert(seq) {
            server_t
                .send(&Frame::ReplyCached {
                    nonce,
                    seq,
                    frame: Box::new(reply),
                })
                .expect("send reply");
        }
    }
    assert_eq!(executions, 2, "each call executed exactly once");

    // Client: the evicted call resolves to the definite error, the
    // cached call to its replayed reply — routed by call id, in any
    // collection order.
    match transport.recv_reply(seq0).expect("evicted outcome") {
        Frame::CallError { message } => assert_eq!(message, REPLY_EVICTED),
        other => panic!("evicted call resolved to {other:?}"),
    }
    match transport.recv_reply(seq1).expect("replayed outcome") {
        Frame::CallError { message } => assert_eq!(message, format!("stored-{seq1}")),
        other => panic!("cached call resolved to {other:?}"),
    }
    assert_eq!(transport.pending_calls(), 0);
    assert!(transport.stats().retries >= 2, "{:?}", transport.stats());
}

#[test]
fn pipelined_tcp_batch_overlaps_execution_and_collects_in_issue_order() {
    // End to end over TCP against the pooled serve loop: a slow call
    // issued first and two fast calls issued behind it. The fast calls
    // must execute while the slow one sleeps (their count is read by
    // the slow service as it wakes), which forces the slow reply to be
    // the LAST on the wire — and the client must still deliver it in
    // slot 0, reordered by call id.
    let registry = registry();
    let fast_done = Arc::new(AtomicUsize::new(0));
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut node = ServerNode::new(registry.clone(), MachineSpec::fast());
    let slow_sees = fast_done.clone();
    node.bind(
        "slow",
        Box::new(FnService::new(move |_m, _args, _h| {
            thread::sleep(Duration::from_millis(150));
            Ok(Value::Int(slow_sees.load(Ordering::SeqCst) as i32))
        })),
    );
    let fast_ticks = fast_done.clone();
    node.bind(
        "fast",
        Box::new(FnService::new(move |_m, args, _h| {
            fast_ticks.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
        })),
    );
    let shared = Arc::new(SharedServer::from_node(node));
    let server = {
        let shared = shared.clone();
        thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            serve_connection_pooled(&shared, &mut conn).expect("serve");
        })
    };

    let mut session =
        Session::connect_tcp_reliable(registry, addr, RetryPolicy::default()).expect("connect");
    let batch = [
        PipelinedCall::new("slow", "probe", vec![Value::Null]),
        PipelinedCall::new("fast", "inc", vec![Value::Int(10)]),
        PipelinedCall::new("fast", "inc", vec![Value::Int(20)]),
    ];
    let results = session.call_pipelined(&batch).expect("pipelined batch");
    assert_eq!(
        results[0].as_ref().expect("slow"),
        &Value::Int(2),
        "both fast calls must have executed while the slow call slept"
    );
    assert_eq!(results[1].as_ref().expect("fast 1"), &Value::Int(11));
    assert_eq!(results[2].as_ref().expect("fast 2"), &Value::Int(21));

    let _ = session.close();
    server.join().expect("server thread");
}

/// A transport whose first connection dies right after the request goes
/// out: `recv` reports `Disconnected` until `reconnect` swaps in the
/// standby connection. This makes the reconnect-mid-execution race
/// deterministic — the retransmission always lands on a second server
/// connection while the first is still executing.
struct SwitchTransport {
    active: TcpTransport,
    standby: Option<TcpTransport>,
}

impl Transport for SwitchTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.active.send(frame)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        if self.standby.is_some() {
            return Err(TransportError::Disconnected);
        }
        self.active.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        if self.standby.is_some() {
            return Err(TransportError::Disconnected);
        }
        self.active.recv_timeout(timeout)
    }

    fn reconnect(&mut self) -> Result<bool, TransportError> {
        match self.standby.take() {
            Some(fresh) => {
                self.active = fresh;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[test]
fn duplicate_on_second_connection_mid_execution_runs_once() {
    // A client disconnects after sending a warm SEED call, reconnects,
    // and retransmits the same call id on a new connection while the
    // original execution is still running on the first. The warm path
    // decides and stores under separate lock scopes, so the duplicate
    // must be held off by the reply cache's executing marker — without
    // it, the duplicate reads Fresh and the seed executes twice.
    let registry = registry();
    let executions = Arc::new(AtomicUsize::new(0));
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_registry = registry.clone();
    let server_executions = executions.clone();
    let server = thread::spawn(move || {
        let mut node = ServerNode::new(server_registry, MachineSpec::fast());
        node.bind(
            "slow",
            Box::new(FnService::new(move |_m, args, heap| {
                // Slow enough that the retransmission arrives while this
                // execution is still in flight.
                thread::sleep(Duration::from_millis(150));
                server_executions.fetch_add(1, Ordering::SeqCst);
                let cell = args[0]
                    .as_ref_id()
                    .ok_or_else(|| NrmiError::app("want a cell"))?;
                let d = heap.get_field(cell, "data")?.as_int().unwrap_or(0);
                heap.set_field(cell, "data", Value::Int(d + 1))?;
                Ok(Value::Long(i64::from(d)))
            })),
        );
        ServerPool::new()
            .max_live_connections(2)
            .max_total_connections(2)
            .serve(node, listener)
            .join()
            .expect("serve")
    });

    let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
    let cell_class = registry.by_name("Cell").expect("registered");
    let cell = client
        .state
        .heap
        .alloc(cell_class, vec![Value::Int(0)])
        .expect("alloc");

    let conn1 = TcpTransport::connect(addr).expect("connect 1");
    let conn2 = TcpTransport::connect(addr).expect("connect 2");
    let mut transport = ReliableTransport::new(
        SwitchTransport {
            active: conn1,
            standby: Some(conn2),
        },
        test_policy(),
    );

    let (v, _) = client_invoke_warm_with_stats(
        &mut client,
        &mut transport,
        "slow",
        "bump",
        &[Value::Ref(cell)],
    )
    .expect("warm seed call across the reconnect");
    assert_eq!(v, Value::Long(0));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "the seed call executed more than once: duplicate suppression \
         failed across connections"
    );
    assert_eq!(
        client.state.heap.get_field(cell, "data").unwrap(),
        Value::Int(1),
        "the restore must be applied exactly once"
    );
    assert!(transport.stats().reconnects >= 1, "{:?}", transport.stats());
    assert!(transport.stats().retries >= 1, "{:?}", transport.stats());

    // Under `--features lockcheck`, every scenario above doubles as a
    // lock-discipline audit of the real server (DESIGN.md §3i).
    #[cfg(feature = "lockcheck")]
    nrmi::check::assert_discipline_clean("reliability: duplicate across connections");
    transport.send(&Frame::Shutdown).expect("shutdown conn 2");
    drop(transport);
    server.join().expect("server thread");
}
