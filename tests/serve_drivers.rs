//! Cross-driver differential: the serve core is one step function with
//! thin drivers, so one scripted frame sequence must draw the *same*
//! reply frames and leave the *same* server-visible effects whichever
//! driver carries it — the serial driver (`serve_connection`), the
//! pooled driver (`serve_connection_pooled` over a splitting transport:
//! serial until the script starts pipelining, pipelined after), and the
//! reactor (`ServerPool::serve_reactor` over TCP loopback, which
//! escalates mid-script). Drift between serve paths — the kind that once
//! had to be repaired by hand in four warm arms — is a failing test here.
//!
//! The script is synchronous (every frame that has an answer is awaited
//! before the next is sent) except for one two-request train, sent
//! while a held call keeps the server busy, so the transcript is
//! deterministic without a single sleep.

#![cfg(unix)]

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use nrmi::core::{
    client_apply_reply, client_evict_warm, client_invoke_warm_with_stats, client_marshal_call,
    serve_connection, serve_connection_pooled, CallOptions, ClientNode, FnService, NrmiError,
    PassMode, ServerNode, ServerPool, SharedServer,
};
use nrmi::heap::{ClassId, ClassRegistry, HeapAccess, SharedRegistry, Value};
use nrmi::transport::{
    channel_pair, decode_rvals, Frame, LinkSpec, MachineSpec, RVal, TcpListenerTransport,
    TcpTransport, Transport, TransportError,
};

/// What the services did, in execution order — the server-visible
/// effects the three drivers must agree on.
type EffectLog = Arc<Mutex<Vec<String>>>;

struct World {
    registry: SharedRegistry,
    cell: ClassId,
    log: EffectLog,
    gate: Gate,
    server: ServerNode,
}

/// The client's end of the `gate` service: `entered` fires when a `hold`
/// call starts executing, and the call returns once `open` fires.
struct Gate {
    entered: mpsc::Receiver<()>,
    open: mpsc::Sender<()>,
}

/// One schema with no remote-marked classes (so pooled and reactor
/// drivers offload tagged cold calls to their workers), one
/// copy-restore service, a service that holds its call until the client
/// opens a gate, and a factory whose returned object is called through
/// the export table.
fn world() -> World {
    let mut reg = ClassRegistry::new();
    let cell = reg.define("Cell").field_int("v").restorable().register();
    let counter = reg.define("Counter").field_int("n").register();
    let registry = reg.snapshot();

    let log: EffectLog = Arc::default();
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    let (entered_tx, entered) = mpsc::channel();
    let (open, open_rx) = mpsc::channel();
    {
        let log = Arc::clone(&log);
        server.bind(
            "gate",
            Box::new(FnService::new(move |method, _args, _heap| {
                entered_tx.send(()).map_err(|_| NrmiError::app("gate"))?;
                open_rx.recv().map_err(|_| NrmiError::app("gate"))?;
                log.lock().unwrap().push(format!("gate.{method}"));
                Ok(Value::Null)
            })),
        );
    }
    {
        let log = Arc::clone(&log);
        server.bind(
            "cell",
            Box::new(FnService::new(move |method, args, heap| {
                let cell = args[0].as_ref_id().ok_or_else(|| NrmiError::app("cell"))?;
                let v = heap.get_field(cell, "v")?.as_int().unwrap_or(0) + 1;
                heap.set_field(cell, "v", Value::Int(v))?;
                log.lock().unwrap().push(format!("cell.{method} -> {v}"));
                Ok(Value::Int(v))
            })),
        );
    }
    {
        let log = Arc::clone(&log);
        server.bind(
            "factory",
            Box::new(FnService::new(move |method, _args, heap| {
                log.lock().unwrap().push(format!("factory.{method}"));
                Ok(Value::Ref(heap.alloc_raw(counter, vec![Value::Int(7)])?))
            })),
        );
    }
    {
        let log = Arc::clone(&log);
        server.bind_class(
            counter,
            Box::new(FnService::new(move |method, args, heap| {
                let this = args[0].as_ref_id().ok_or_else(|| NrmiError::app("this"))?;
                log.lock().unwrap().push(format!("Counter.{method}"));
                Ok(heap.get_field(this, "n")?)
            })),
        );
    }
    World {
        registry,
        cell,
        log,
        gate: Gate { entered, open },
        server,
    }
}

/// Records every frame the server sends back.
struct Tap<'a> {
    inner: &'a mut dyn Transport,
    received: Vec<Frame>,
}

impl Tap<'_> {
    fn ask(&mut self, frame: &Frame) -> Frame {
        self.send(frame).expect("send");
        self.recv().expect("reply")
    }
}

impl Transport for Tap<'_> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.inner.send(frame)
    }
    fn send_batch(&mut self, frames: &[&Frame]) -> Result<(), TransportError> {
        self.inner.send_batch(frames)
    }
    fn recv(&mut self) -> Result<Frame, TransportError> {
        let frame = self.inner.recv()?;
        self.received.push(frame.clone());
        Ok(frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, TransportError> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.received.push(frame.clone());
        Ok(frame)
    }
}

fn is_unknown_service(reply: &Frame) -> bool {
    matches!(reply, Frame::CallError { message } if message.contains("no service bound"))
}

/// Drives the scripted sequence over `io` and returns every frame the
/// server answered with, in order. Assertions here are about the
/// protocol's meaning; equality across drivers is the caller's.
fn run_script(
    io: &mut dyn Transport,
    registry: &SharedRegistry,
    cell: ClassId,
    gate: &Gate,
) -> Vec<Frame> {
    const NONCE: u64 = 0xD1FF;
    let mut tap = Tap {
        inner: io,
        received: Vec::new(),
    };
    let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
    let cold_cell = client.state.heap.alloc(cell, vec![Value::Int(10)]).unwrap();
    let warm_cell = client.state.heap.alloc(cell, vec![Value::Int(20)]).unwrap();

    // Lookup, hit and miss. (Reactor: answered on the event loop.)
    let lookup = |tap: &mut Tap<'_>, name: &str| match tap.ask(&Frame::Lookup { name: name.into() })
    {
        Frame::LookupReply { found } => found,
        other => panic!("lookup answered with {other:?}"),
    };
    assert!(lookup(&mut tap, "cell"));
    assert!(!lookup(&mut tap, "ghost"));

    // The peer starts pipelining: two lookups go out in one train while
    // an untagged call is held in its service. Nothing sits behind the
    // held call when it arrives, so the pooled driver serves it
    // serially; the train is buffered behind the next request it reads,
    // so it switches to the pipelined driver for the rest of the script.
    // (Reactor: the held call escalates the connection.)
    let (held, _) =
        client_marshal_call(&mut client, "gate", "hold", &[], CallOptions::auto()).unwrap();
    tap.send(&held).unwrap();
    gate.entered.recv().expect("held call started");
    tap.send_batch(&[
        &Frame::Lookup {
            name: "cell".into(),
        },
        &Frame::Lookup {
            name: "ghost".into(),
        },
    ])
    .unwrap();
    gate.open.send(()).unwrap();
    assert!(matches!(tap.recv().unwrap(), Frame::CallReply { .. }));
    assert_eq!(tap.recv().unwrap(), Frame::LookupReply { found: true });
    assert_eq!(tap.recv().unwrap(), Frame::LookupReply { found: false });

    // A tagged cold call, then its retransmission: executed once,
    // replayed once. (Pooled and reactor: offloaded to a worker.)
    let (call, pending) = client_marshal_call(
        &mut client,
        "cell",
        "inc",
        &[Value::Ref(cold_cell)],
        CallOptions::auto(),
    )
    .unwrap();
    let tagged = Frame::Tagged {
        nonce: NONCE,
        seq: 1,
        frame: Box::new(call),
    };
    let Frame::Tagged { seq: 1, frame, .. } = tap.ask(&tagged) else {
        panic!("tagged call must be answered under its own id");
    };
    let Frame::CallReply { payload } = *frame else {
        panic!("cold call failed: {frame:?}");
    };
    let (ret, _) = client_apply_reply(&mut client, pending, &payload).unwrap();
    assert_eq!(ret, Value::Int(11));
    assert_eq!(
        client.state.heap.get_field(cold_cell, "v").unwrap(),
        Value::Int(11),
        "restored onto the caller's object"
    );
    let replay = tap.ask(&tagged);
    assert!(
        matches!(&replay, Frame::ReplyCached { seq: 1, frame, .. }
            if **frame == Frame::CallReply { payload: payload.clone() }),
        "a duplicate replays the recorded reply: {replay:?}"
    );

    // A tagged frame that is not a call: an in-band error under its id,
    // so a retry loop terminates. (Reactor: escalates here.)
    let not_a_call = tap.ask(&Frame::Tagged {
        nonce: NONCE,
        seq: 2,
        frame: Box::new(Frame::Lookup {
            name: "cell".into(),
        }),
    });
    assert!(
        matches!(&not_a_call, Frame::Tagged { seq: 2, frame, .. }
            if matches!(**frame, Frame::CallError { .. })),
        "{not_a_call:?}"
    );

    // Lookup answers from the bindings dispatch runs against: a name is
    // found exactly when calling it does not fail as unknown.
    for name in ["cell", "ghost"] {
        let (call, _) = client_marshal_call(
            &mut client,
            name,
            "inc",
            &[Value::Ref(cold_cell)],
            CallOptions::forced(PassMode::Copy),
        )
        .unwrap();
        let dispatched = !is_unknown_service(&tap.ask(&call));
        assert_eq!(lookup(&mut tap, name), dispatched, "service {name:?}");
    }

    // Warm session: seed, one delta call, evict — after which the old
    // session id must miss.
    for expected in [21, 22] {
        let (ret, _) = client_invoke_warm_with_stats(
            &mut client,
            &mut tap,
            "cell",
            "inc",
            &[Value::Ref(warm_cell)],
        )
        .unwrap();
        assert_eq!(ret, Value::Int(expected));
    }
    let cache_id = client.warm.cache_id("cell").expect("session seeded");
    let generation = client.warm.generation("cell").expect("session seeded");
    client_evict_warm(&mut client, &mut tap, "cell").unwrap();
    let after_evict = tap.ask(&Frame::CallRequestWarm {
        service: "cell".into(),
        method: "inc".into(),
        mode: CallOptions::copy_restore_delta().to_wire(),
        cache_id,
        generation,
        payload: Vec::new(),
    });
    assert_eq!(after_evict, Frame::CacheMiss, "evicted session is gone");

    // A first-class remote object: open through the factory (by
    // reference, so the server exports it), call it, DGC-clean it, call
    // it again — the export must be gone.
    let (open, _) = client_marshal_call(
        &mut client,
        "factory",
        "open",
        &[],
        CallOptions::forced(PassMode::RemoteRef),
    )
    .unwrap();
    let Frame::CallReply { payload } = tap.ask(&open) else {
        panic!("factory.open failed");
    };
    let [RVal::Remote {
        owned_by_sender: true,
        key,
    }] = decode_rvals(&payload).unwrap()[..]
    else {
        panic!("factory.open must return a server-owned reference");
    };
    let (Frame::CallRequest { mode, payload, .. }, _) = client_marshal_call(
        &mut client,
        "",
        "get",
        &[],
        CallOptions::forced(PassMode::Copy),
    )
    .unwrap() else {
        unreachable!("named calls marshal as CallRequest");
    };
    let get = Frame::CallObject {
        key,
        method: "get".into(),
        mode,
        payload,
    };
    assert!(matches!(tap.ask(&get), Frame::CallReply { .. }));
    tap.send(&Frame::DgcClean { key }).unwrap();
    assert!(
        matches!(tap.ask(&get), Frame::CallError { message } if message.contains("unknown export")),
        "a cleaned export no longer dispatches"
    );

    // A frame no serve path has a rule for ends the connection.
    tap.send(&Frame::LookupReply { found: true }).unwrap();
    assert!(tap.recv().is_err(), "the server hangs up");
    tap.received
}

/// (reply transcript, effect log) of the script under one driver.
type Outcome = (Vec<Frame>, Vec<String>);

fn outcome(transcript: Vec<Frame>, log: &EffectLog) -> Outcome {
    (transcript, log.lock().unwrap().clone())
}

fn assert_ended_on_unexpected_frame(result: Result<(), NrmiError>) {
    let err = result.expect_err("the script ends on an unexpected frame");
    assert!(err.to_string().contains("unexpected frame"), "{err}");
}

fn serial() -> Outcome {
    let World {
        registry,
        cell,
        log,
        gate,
        mut server,
    } = world();
    let (mut client_t, mut server_t) = channel_pair(None, LinkSpec::free());
    let serving = thread::spawn(move || serve_connection(&mut server, &mut server_t));
    let transcript = run_script(&mut client_t, &registry, cell, &gate);
    assert_ended_on_unexpected_frame(serving.join().expect("serve thread"));
    outcome(transcript, &log)
}

fn pooled() -> Outcome {
    let World {
        registry,
        cell,
        log,
        gate,
        server,
    } = world();
    let shared = SharedServer::from_node(server);
    // A channel transport splits, so this is the serial driver until the
    // script's train, then the pipelined one: reader, writer thread, and
    // workers for the tagged cold call.
    let (mut client_t, mut server_t) = channel_pair(None, LinkSpec::free());
    let serving = thread::spawn(move || serve_connection_pooled(&shared, &mut server_t));
    let transcript = run_script(&mut client_t, &registry, cell, &gate);
    assert_ended_on_unexpected_frame(serving.join().expect("serve thread"));
    outcome(transcript, &log)
}

fn reactor() -> Outcome {
    let World {
        registry,
        cell,
        log,
        gate,
        server,
    } = world();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = ServerPool::new()
        .serve_reactor(server, listener)
        .expect("serve_reactor");
    let mut client_t = TcpTransport::connect(addr).expect("connect");
    let transcript = run_script(&mut client_t, &registry, cell, &gate);
    drop(client_t);
    handle.shutdown().expect("shutdown");
    outcome(transcript, &log)
}

#[test]
fn every_driver_answers_the_script_identically() {
    let (serial_replies, serial_effects) = serial();
    assert_eq!(
        serial_effects,
        [
            "gate.hold",
            "cell.inc -> 11",
            "cell.inc -> 12",
            "cell.inc -> 21",
            "cell.inc -> 22",
            "factory.open",
            "Counter.get",
        ],
        "each call executed exactly once, in script order"
    );
    for (driver, (replies, effects)) in [("pooled", pooled()), ("reactor", reactor())] {
        assert_eq!(replies, serial_replies, "{driver}: reply frames diverged");
        assert_eq!(effects, serial_effects, "{driver}: effects diverged");
    }
}
