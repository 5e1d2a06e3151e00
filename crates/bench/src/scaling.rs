//! Multi-client scaling ablation: the pooled server vs the big lock.
//!
//! The hazard this measures is not CPU parallelism (the CI box may well
//! have one core) but *lock-held blocking*: the big-lock baseline
//! ([`serve_big_lock`]) holds its node lock across the mid-call
//! callback round trip of remote-reference calls, so while one client
//! thinks about a `GetField` answer, every other connection — even ones
//! using completely independent services — is frozen. The pooled
//! [`ServerPool`] server overlaps those waits: a callback parks only its
//! own connection's worker.
//!
//! Two measurements, both over real TCP:
//!
//! * **throughput** — N clients (1/2/4/8), each hammering its own
//!   service with remote-ref calls whose callback answer takes
//!   ~[`CALLBACK_TURNAROUND`] of client-side time. The big lock
//!   serializes the turnarounds; the pool overlaps them.
//! * **stall latency** — one client parks mid-call for [`STALL`] while a
//!   second client probes an independent service; we record the probe's
//!   worst-case latency under both servers.
//!
//! A third axis measures **in-flight depth** on a single connection:
//! one client issues [`PIPELINE_TOTAL_CALLS`] copy-mode calls in batches
//! of 1/4/16/64 through [`RemoteSession::call_pipelined`]'s request-map
//! multiplexing against the pooled serve loop (serial at depth 1,
//! pipelined from the first batch on). Depth 1 pays one network round
//! trip per call; deeper batches amortize it, so depth 16 must beat
//! depth 1 by at least 2x or the gate fails.
//!
//! A fourth axis isolates the **batched wire path**: the same pipelined
//! workload against *instant* echo services, measured once over the
//! bench-side [`PerWriteTcp`] baseline (a `write` per frame) and once
//! over the production wire (one `writev` per frame train). With no
//! service time in the way, the cell measures framing and syscalls
//! themselves; at depth [`BATCHED_WIRE_DEPTHS`] the train must pay at
//! least [`BATCHED_WIRE_MIN_SPEEDUP`].
//!
//! A fifth axis measures **shared-graph contention**: N warm readers
//! each hold a leased [`CONTENTION_GRAPH_NODES`]-node chain on one
//! server heap while a writer dirties a few nodes of every leased graph
//! between reads. Targeted invalidation repairs each reader with a
//! `CacheStale` patch covering only the dirty positions; the baseline
//! is what the pre-lease protocol could do — treat any cross-session
//! write as total, evict, and reseed the full graph. The cell counts
//! wire bytes per steady-state call under both policies *and* audits
//! coherence: with targeted patches every read must see the writer's
//! values ([`ContentionPoint::stale_reads`] stays 0), while the reseed
//! baseline demonstrably clobbers peer writes
//! ([`ContentionPoint::lost_writes`]). This axis runs in process over
//! [`Connection::step`] — it measures bytes and coherence, not
//! syscalls — so the numbers are deterministic.
//!
//! `tables -- scaling` renders the tables and emits `BENCH_scaling.json`;
//! the gate fails when the pool stops beating the serialized baseline,
//! a stalled client blocks the probe again, pipelining stops paying,
//! batched trains stop beating per-call writes, or targeted
//! invalidation stops beating the evict-and-reseed baseline (in bytes
//! or in coherence).

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use nrmi_core::{
    allow_blocking, client_evict_warm, client_invoke, client_invoke_warm_with_stats,
    serve_connection_pooled, CallOptions, ClientNode, Connection, FnService, LockClass, NrmiError,
    PassMode, PipelinedCall, ReactorStep, ReliableTransport, RemoteSession, ServerNode, Session,
    SharedServer, TrackedMutex, WarmCaches,
};
use nrmi_heap::{ClassId, ClassRegistry, HeapAccess, ObjId, SharedRegistry, Value};
use nrmi_transport::{
    Frame, MachineSpec, TcpListenerTransport, TcpTransport, Transport, TransportError,
};

use crate::per_write::{tcp_loopback_pair, PerWriteTcp};

/// Client counts swept for the throughput measurement.
pub const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// In-flight call depths swept on one pipelined connection.
pub const PIPELINE_DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// Calls issued per pipeline cell (spread over batches of the depth).
pub const PIPELINE_TOTAL_CALLS: usize = 256;

/// Service time per pipelined call. Depth 1 pays round trip + service
/// time serially for every call; deeper batches overlap the service
/// times across the serve loop's worker pool — that overlap (plus the
/// amortized round trips) is the speedup under test.
pub const PIPELINE_SERVICE_TIME: Duration = Duration::from_micros(500);

/// Remote-ref calls each client issues per throughput cell.
pub const CALLS_PER_CLIENT: usize = 10;

/// Calls per batched-wire measurement (per wire). The services
/// are instant echoes: with no service time in the way, what the cell
/// measures is the wire path itself — marshal, syscalls, and framing.
pub const BATCHED_WIRE_CALLS: usize = 4096;

/// Measurement repetitions per wire; the cell keeps the best
/// run of each. Throughput noise on a shared machine is one-sided (a
/// scheduler preemption only ever *subtracts* calls/sec), so best-of-N
/// is the estimator that converges on the workload's real rate instead
/// of the machine's worst moment.
pub const BATCHED_WIRE_REPS: usize = 3;

/// Depths measured for the batched wire path: depth 1 as the control (a
/// train of one frame takes the plain path, so batching must cost
/// nothing there) and depth 16 as the gated cell.
pub const BATCHED_WIRE_DEPTHS: [usize; 2] = [1, 16];

/// The depth-16 batched train must beat per-call writes by this factor
/// on one connection, or `tables -- scaling` fails.
///
/// Calibration: batching eliminates nearly all wire syscalls (measured
/// ~8.0 → ~0.5 syscalls per call at depth 16), but both wires
/// share the RPC stack's dispatch cost — marshal, request-map
/// bookkeeping, worker-pool handoffs — which bounds the end-to-end
/// ratio below the raw syscall ratio. Release builds (how `tables --
/// scaling` runs, locally and in CI) measure 2.1–2.3x; the gate's
/// margin under that band absorbs machine noise without ever accepting
/// a regression to the per-write wire (1.0x). Debug builds compress
/// the ratio toward ~1.4x because unoptimized dispatch dominates —
/// gate-relevant measurements are release only.
pub const BATCHED_WIRE_MIN_SPEEDUP: f64 = 1.5;

/// Connection counts swept for the mostly-idle fleet axis. A fourth
/// point at 10,000 joins the sweep when `NRMI_SCALING_10K` is set in
/// the environment (it needs a generous fd limit and a minute of
/// patience on small machines).
pub const CONNECTION_COUNTS: [usize; 3] = [1, 100, 1000];

/// Opt-in 10k fleet point (environment variable name).
pub const TEN_K_ENV: &str = "NRMI_SCALING_10K";

/// At 1000 connections the reactor must beat the thread-per-connection
/// pool by this factor, or `tables -- scaling` fails. See [`FLEET_NOTES`]
/// for how it was derived.
pub const FLEET_MIN_SPEEDUP: f64 = 2.5;

/// Why [`FLEET_MIN_SPEEDUP`] is what it is, recorded in
/// `BENCH_scaling.json`.
pub const FLEET_NOTES: &str = "fleet gate: reactor >= 2.5x pooled at 1000 connections. \
It was 4x while a pooled depth-1 connection cost six threads (reader, writer, four \
workers); since a connection stays serial until its peer pipelines, the 992 idle \
connections cost one thread each. Six alternating runs per commit on a 2-CPU Linux \
box: pooled 1749-2163 -> 3641-4849 calls/s, reactor unchanged (10326-16736 -> \
11274-16061 calls/s), ratio 4.83-8.50x -> 3.10-4.17x. The threshold sits under the \
lowest ratio observed and well above the ~1x a reactor that paid a thread per idle \
connection would show.";

/// Busy clients inside the fleet (the rest of the connections are
/// parked idle — the realistic shape the reactor is built for).
pub const CONN_BUSY_CLIENTS: usize = 8;

/// Tagged copy-mode calls each busy client completes per fleet cell.
pub const CONN_CALLS_PER_BUSY: usize = 64;

/// In-flight depth each busy client pipelines at.
pub const CONN_PIPELINE_DEPTH: usize = 16;

/// Warm reader counts swept for the shared-graph contention axis.
pub const CONTENTION_READER_COUNTS: [usize; 3] = [1, 2, 4];

/// Nodes in each reader's leased chain. This is what a full reseed
/// re-ships and what a targeted patch must *not* re-ship.
pub const CONTENTION_GRAPH_NODES: usize = 64;

/// Writer rounds per contention cell; every round dirties each reader's
/// leased graph and then every reader calls once.
pub const CONTENTION_ROUNDS: usize = 16;

/// Nodes the writer dirties per leased graph per round — the size of
/// the coherence patch, against [`CONTENTION_GRAPH_NODES`] for a reseed.
pub const CONTENTION_DIRTY_PER_ROUND: usize = 2;

/// A steady-state reseed call must cost at least this many times the
/// bytes of a targeted-patch call, or `tables -- scaling` fails: the
/// whole point of the lease table is that a cross-session write
/// invalidates positions, not sessions.
pub const CONTENTION_MIN_BYTES_RATIO: f64 = 2.0;

/// Simulated client-side "think time" before answering each `GetField`
/// callback. This is the blocking the big lock serializes.
pub const CALLBACK_TURNAROUND: Duration = Duration::from_millis(2);

/// How long the stalling client parks mid-call in the latency probe.
pub const STALL: Duration = Duration::from_millis(300);

/// Probe calls timed while the other client is stalled.
pub const STALL_PROBE_CALLS: usize = 5;

/// One throughput cell: N clients against one server flavor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Total calls completed across all clients.
    pub calls: usize,
    /// Wall-clock time for the whole cell, in milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate throughput, calls per second.
    pub calls_per_sec: f64,
}

/// One pipeline cell: a fixed call budget at one in-flight depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelinePoint {
    /// Calls in flight per batch.
    pub depth: usize,
    /// Total calls completed.
    pub calls: usize,
    /// Wall-clock time for the whole cell, in milliseconds.
    pub elapsed_ms: f64,
    /// Throughput, calls per second.
    pub calls_per_sec: f64,
}

/// One batched-wire cell: the same pipelined workload measured twice —
/// once over the per-write baseline (every frame pays its own `write`)
/// and once over the production wire's vectored frame trains — on one
/// TCP connection against instant echo services.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchedPoint {
    /// Calls in flight per train.
    pub depth: usize,
    /// Calls completed per wire.
    pub calls: usize,
    /// Throughput with a `write` syscall per frame.
    pub per_write_calls_per_sec: f64,
    /// Throughput with one `writev` per frame train.
    pub batched_calls_per_sec: f64,
}

impl BatchedPoint {
    /// Batched over per-call-write throughput.
    pub fn speedup(&self) -> f64 {
        self.batched_calls_per_sec / self.per_write_calls_per_sec.max(1e-9)
    }
}

/// One fleet cell: `connections` total connections, of which `busy`
/// run tagged pipelined calls while the rest sit parked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectionPoint {
    /// Total connections held open (busy + idle).
    pub connections: usize,
    /// Clients actually issuing calls.
    pub busy: usize,
    /// Total calls completed across the busy clients.
    pub calls: usize,
    /// Wall-clock for the cell — connect storm included, since paying a
    /// thread per idle connection is exactly the cost under test — in
    /// milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate throughput, calls per second.
    pub calls_per_sec: f64,
}

/// One contention cell: N warm readers leased on one server heap, a
/// writer dirtying every leased graph between reads, measured under
/// targeted invalidation and under the evict-and-reseed baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentionPoint {
    /// Warm reader sessions sharing the server heap.
    pub readers: usize,
    /// Writer rounds (each reader calls once per round).
    pub rounds: usize,
    /// Steady-state reader calls measured per policy.
    pub calls: usize,
    /// Reads that missed the writer's values under targeted
    /// invalidation — the reply value or the repaired client graph
    /// disagreeing with the oracle. Must be zero.
    pub stale_reads: usize,
    /// Peer writes the reseed baseline clobbered (the reseed ships the
    /// client's stale graph back over the writer's values). Nonzero by
    /// construction — it is why "just reseed" was never a fix.
    pub lost_writes: usize,
    /// Mean wire bytes per steady-state call with `CacheStale` patches.
    pub patched_bytes_per_call: f64,
    /// Mean wire bytes per steady-state call evicting and reseeding.
    pub reseed_bytes_per_call: f64,
}

impl ContentionPoint {
    /// Reseed over targeted-patch bytes per call.
    pub fn bytes_ratio(&self) -> f64 {
        self.reseed_bytes_per_call / self.patched_bytes_per_call.max(1e-9)
    }
}

/// The probe client's latency while the other client is stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallPoint {
    /// Probe calls issued.
    pub probe_calls: usize,
    /// Mean probe latency, microseconds.
    pub mean_us: u64,
    /// Worst probe latency, microseconds.
    pub max_us: u64,
}

/// The full ablation: throughput sweep plus the stall probe, both modes.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingReport {
    /// Calls per client per throughput cell.
    pub calls_per_client: usize,
    /// Callback turnaround per call, microseconds.
    pub turnaround_us: u64,
    /// Throughput under the serialized big-lock server.
    pub biglock: Vec<ScalingPoint>,
    /// Throughput under the pooled server.
    pub pooled: Vec<ScalingPoint>,
    /// Stall duration for the latency probe, milliseconds.
    pub stall_ms: u64,
    /// Probe latency under the big lock (head-of-line blocking).
    pub stall_biglock: StallPoint,
    /// Probe latency under the pool (bounded).
    pub stall_pooled: StallPoint,
    /// Single-connection throughput per in-flight depth.
    pub pipeline: Vec<PipelinePoint>,
    /// Vectored frame trains vs per-call writes, instant services.
    pub batched: Vec<BatchedPoint>,
    /// Mostly-idle fleet throughput, thread-per-connection server.
    pub connections_pooled: Vec<ConnectionPoint>,
    /// Mostly-idle fleet throughput, reactor server.
    pub connections_reactor: Vec<ConnectionPoint>,
    /// Shared-graph contention: targeted invalidation vs full reseed.
    pub contention: Vec<ContentionPoint>,
}

/// Which serve loop a cell runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerFlavor {
    /// [`serve_big_lock`] behind one `Mutex<ServerNode>`.
    BigLock,
    /// `serve_connection_pooled` / per-connection state.
    Pooled,
}

struct Schema {
    registry: SharedRegistry,
    cell: ClassId,
}

fn schema() -> Schema {
    let mut reg = ClassRegistry::new();
    // class Cell extends UnicastRemoteObject { int v; } — the remote-ref
    // argument whose reads call back to the client mid-call.
    let cell = reg.define("Cell").field_int("v").remote().register();
    Schema {
        registry: reg.snapshot(),
        cell,
    }
}

/// Builds the server: one independent service per potential client, plus
/// the stall pair ("slow" with a callback, "probe" without).
fn build_server(registry: &SharedRegistry) -> ServerNode {
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    let read_cell = || {
        FnService::new(|_m, args, heap| {
            let cell = args[0].as_ref_id().ok_or_else(|| NrmiError::app("cell"))?;
            let v = heap.get_field(cell, "v")?.as_int().unwrap_or(0);
            Ok(Value::Int(v + 1))
        })
    };
    for i in 0..CLIENT_COUNTS[CLIENT_COUNTS.len() - 1] {
        server.bind(format!("svc{i}"), Box::new(read_cell()));
    }
    server.bind("slow", Box::new(read_cell()));
    server.bind(
        "probe",
        Box::new(FnService::new(|_m, args, _h| {
            Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
        })),
    );
    server
}

/// The serialized baseline the pooled server is measured against: every
/// connection thread runs the production step against ONE node behind
/// one mutex — `recv; lock; step; send`. The lock is held across call
/// execution *including mid-call callback traffic to the client*, so a
/// client that stalls inside a callback blocks every other connection;
/// that head-of-line blocking is exactly what the cells measure.
fn serve_big_lock(server: &TrackedMutex<ServerNode>, transport: &mut dyn Transport) {
    // Designed-in hold (DESIGN.md §3i): the witness records the
    // transport waits under the node lock as accepted, not as NRMI-L002.
    let _allow = allow_blocking("big-lock baseline holds the node lock across callback I/O");
    // Warm caches stay per connection even over a shared node; evictions
    // go through the node's lease table.
    let mut warm = WarmCaches::with_leases(server.lock().leases.clone());
    while let Ok(frame) = transport.recv() {
        let mut node = server.lock();
        let mut conn = Connection::new(&mut node, &mut warm);
        let step = conn.step(transport, frame);
        drop(node);
        // `Close` or a frame with no rule ends the connection; so does
        // a failed write.
        if matches!(step, ReactorStep::Close | ReactorStep::Escalate(_))
            || step
                .into_replies()
                .any(|reply| transport.send(&reply).is_err())
        {
            break;
        }
    }
    warm.release_all(&mut server.lock().state.heap);
}

/// Client-side transport that sleeps for `delay` after receiving each
/// callback, modelling the caller computing the answer. The server-side
/// cost of that think time is what differs between the two serve loops.
struct CallbackThinkTime {
    inner: TcpTransport,
    delay: Duration,
    /// When set, only the FIRST callback is delayed (the stall probe).
    once: bool,
    fired: bool,
}

impl Transport for CallbackThinkTime {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> nrmi_transport::Result<Frame> {
        let frame = self.inner.recv()?;
        if matches!(frame, Frame::GetField { .. } | Frame::SetField { .. })
            && (!self.once || !self.fired)
        {
            self.fired = true;
            thread::sleep(self.delay);
        }
        Ok(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> nrmi_transport::Result<Frame> {
        self.inner.recv_timeout(timeout)
    }
}

/// Runs `clients` workers against a freshly served node of the given
/// flavor; returns when every client finished its calls.
fn throughput_cell(flavor: ServerFlavor, clients: usize) -> ScalingPoint {
    let schema = schema();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = build_server(&schema.registry);

    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut client_threads = Vec::new();
    for i in 0..clients {
        let registry = schema.registry.clone();
        let cell_cls = schema.cell;
        let barrier = Arc::clone(&barrier);
        client_threads.push(thread::spawn(move || {
            let mut transport = CallbackThinkTime {
                inner: TcpTransport::connect(addr).expect("connect"),
                delay: CALLBACK_TURNAROUND,
                once: false,
                fired: false,
            };
            let mut client = ClientNode::new(registry, MachineSpec::fast());
            let cell = client
                .state
                .heap
                .alloc_raw(cell_cls, vec![Value::Int(i as i32)])
                .expect("alloc");
            let service = format!("svc{i}");
            barrier.wait();
            for _ in 0..CALLS_PER_CLIENT {
                client_invoke(
                    &mut client,
                    &mut transport,
                    &service,
                    "read",
                    &[Value::Ref(cell)],
                    CallOptions::forced(PassMode::RemoteRef),
                )
                .expect("scaling call");
            }
            let _ = transport.send(&Frame::Shutdown);
        }));
    }

    let elapsed = match flavor {
        ServerFlavor::BigLock => {
            let shared = Arc::new(TrackedMutex::new(LockClass::NodeHeap, server));
            let mut workers = Vec::new();
            for _ in 0..clients {
                let mut conn = listener.accept().expect("accept");
                let shared = Arc::clone(&shared);
                workers.push(thread::spawn(move || {
                    serve_big_lock(&shared, &mut conn);
                }));
            }
            barrier.wait();
            let started = Instant::now();
            for t in client_threads {
                t.join().expect("client");
            }
            let elapsed = started.elapsed();
            for w in workers {
                w.join().expect("worker");
            }
            elapsed
        }
        ServerFlavor::Pooled => {
            let shared = Arc::new(SharedServer::from_node(server));
            let mut workers = Vec::new();
            for _ in 0..clients {
                let mut conn = listener.accept().expect("accept");
                let shared = Arc::clone(&shared);
                workers.push(thread::spawn(move || {
                    let _ = serve_connection_pooled(&shared, &mut conn);
                }));
            }
            barrier.wait();
            let started = Instant::now();
            for t in client_threads {
                t.join().expect("client");
            }
            let elapsed = started.elapsed();
            for w in workers {
                w.join().expect("worker");
            }
            elapsed
        }
    };

    let calls = clients * CALLS_PER_CLIENT;
    let secs = elapsed.as_secs_f64();
    ScalingPoint {
        clients,
        calls,
        elapsed_ms: secs * 1e3,
        calls_per_sec: calls as f64 / secs.max(1e-9),
    }
}

/// One client parks mid-call for [`STALL`]; a probe client times its own
/// calls on an independent service meanwhile.
fn stall_cell(flavor: ServerFlavor) -> StallPoint {
    let schema = schema();
    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = build_server(&schema.registry);

    // Two connections, accepted up front so both flavors pay identical
    // accept costs.
    let serve = |conns: Vec<TcpTransport>| -> Vec<thread::JoinHandle<()>> {
        match flavor {
            ServerFlavor::BigLock => {
                let shared = Arc::new(TrackedMutex::new(LockClass::NodeHeap, server));
                conns
                    .into_iter()
                    .map(|mut conn| {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || {
                            serve_big_lock(&shared, &mut conn);
                        })
                    })
                    .collect()
            }
            ServerFlavor::Pooled => {
                let shared = Arc::new(SharedServer::from_node(server));
                conns
                    .into_iter()
                    .map(|mut conn| {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || {
                            let _ = serve_connection_pooled(&shared, &mut conn);
                        })
                    })
                    .collect()
            }
        }
    };

    let registry = schema.registry.clone();
    let cell_cls = schema.cell;
    let (in_call_tx, in_call_rx) = mpsc::channel();
    let staller = thread::spawn(move || {
        let mut transport = CallbackThinkTime {
            inner: TcpTransport::connect(addr).expect("connect"),
            delay: STALL,
            once: true,
            fired: false,
        };
        let mut client = ClientNode::new(registry, MachineSpec::fast());
        let cell = client
            .state
            .heap
            .alloc_raw(cell_cls, vec![Value::Int(7)])
            .expect("alloc");
        in_call_tx.send(()).unwrap();
        client_invoke(
            &mut client,
            &mut transport,
            "slow",
            "read",
            &[Value::Ref(cell)],
            CallOptions::forced(PassMode::RemoteRef),
        )
        .expect("stalled call");
        let _ = transport.send(&Frame::Shutdown);
    });

    let mut probe_conn = TcpTransport::connect(addr).expect("connect probe");
    let staller_conn = listener.accept().expect("accept staller");
    let probe_srv_conn = listener.accept().expect("accept probe");
    let workers = serve(vec![staller_conn, probe_srv_conn]);

    in_call_rx.recv().expect("staller started");
    // Give the stalling call time to reach the server and park on its
    // callback before the probe starts timing.
    thread::sleep(Duration::from_millis(50));

    let registry = schema.registry;
    let mut probe = ClientNode::new(registry, MachineSpec::fast());
    let mut latencies = Vec::with_capacity(STALL_PROBE_CALLS);
    for i in 0..STALL_PROBE_CALLS {
        let started = Instant::now();
        client_invoke(
            &mut probe,
            &mut probe_conn,
            "probe",
            "echo",
            &[Value::Int(i as i32)],
            CallOptions::forced(PassMode::Copy),
        )
        .expect("probe call");
        latencies.push(started.elapsed());
    }
    let _ = probe_conn.send(&Frame::Shutdown);

    staller.join().expect("staller thread");
    for w in workers {
        w.join().expect("worker");
    }

    let max = latencies.iter().max().copied().unwrap_or_default();
    let total: Duration = latencies.iter().sum();
    StallPoint {
        probe_calls: STALL_PROBE_CALLS,
        mean_us: (total / STALL_PROBE_CALLS as u32).as_micros() as u64,
        max_us: max.as_micros() as u64,
    }
}

/// Service bindings the pipeline cell spreads its calls across. Each
/// binding is its own mutex on the server, so this — matched to the
/// serve loop's worker pool — is what lets in-flight calls execute
/// concurrently; calls to one service stay mutually exclusive by
/// design (services may hold state).
const PIPELINE_SERVICES: usize = 4;

/// One client, one TCP connection, [`PIPELINE_TOTAL_CALLS`] copy-mode
/// calls in batches of `depth` through the request-map client against
/// the pooled serve loop, round-robined over
/// [`PIPELINE_SERVICES`] bindings. The registry carries no
/// remote-marked classes, so the server's worker pool is eligible and
/// replies may complete out of order; the reliable client reorders
/// them by call id.
fn pipeline_cell(depth: usize) -> PipelinePoint {
    let mut reg = ClassRegistry::new();
    // Copy-only schema: no remote classes, so calls are pipelineable
    // end to end (remote-ref callbacks would force exclusive dispatch).
    reg.define("Payload")
        .field_int("v")
        .serializable()
        .register();
    let registry = reg.snapshot();

    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    for s in 0..PIPELINE_SERVICES {
        server.bind(
            format!("echo{s}"),
            Box::new(FnService::new(|_m, args, _h| {
                thread::sleep(PIPELINE_SERVICE_TIME);
                Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
            })),
        );
    }
    let shared = Arc::new(SharedServer::from_node(server));
    let server_thread = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let mut conn = listener.accept().expect("accept");
            let _ = serve_connection_pooled(&shared, &mut conn);
        })
    };

    let mut session =
        Session::connect_tcp_reliable(registry, addr, nrmi_core::RetryPolicy::default())
            .expect("connect");
    // Warm up the connection (and the server's worker pool) off-clock.
    let warmup = [PipelinedCall::new("echo0", "inc", vec![Value::Int(-1)])];
    session.call_pipelined(&warmup).expect("warmup");

    let started = Instant::now();
    let mut done = 0usize;
    while done < PIPELINE_TOTAL_CALLS {
        let batch: Vec<PipelinedCall> = (0..depth.min(PIPELINE_TOTAL_CALLS - done))
            .map(|j| {
                PipelinedCall::new(
                    format!("echo{}", (done + j) % PIPELINE_SERVICES),
                    "inc",
                    vec![Value::Int((done + j) as i32)],
                )
            })
            .collect();
        let results = session.call_pipelined(&batch).expect("pipelined batch");
        for (j, slot) in results.into_iter().enumerate() {
            let got = slot.expect("pipelined call");
            assert_eq!(
                got,
                Value::Int((done + j) as i32 + 1),
                "reply routed to the wrong slot at depth {depth}"
            );
        }
        done += batch.len();
    }
    let elapsed = started.elapsed();
    let _ = session.close();
    server_thread.join().expect("server thread");

    let secs = elapsed.as_secs_f64();
    PipelinePoint {
        depth,
        calls: PIPELINE_TOTAL_CALLS,
        elapsed_ms: secs * 1e3,
        calls_per_sec: PIPELINE_TOTAL_CALLS as f64 / secs.max(1e-9),
    }
}

/// One run of the batched-wire workload: [`BATCHED_WIRE_CALLS`] calls
/// at `depth` through the request-map client against the pooled serve
/// loop, services answering instantly, over the connected pair
/// `(client, server)`. On [`PerWriteTcp`] every request and reply frame
/// pays its own `write`; on the production wire the client flushes each
/// train with one `writev` and the server's reply writer drains its
/// queue into vectored trains.
fn batched_wire_run<T: Transport + 'static>(
    depth: usize,
    (client, mut server_conn): (T, T),
) -> f64 {
    let mut reg = ClassRegistry::new();
    reg.define("Payload")
        .field_int("v")
        .serializable()
        .register();
    let registry = reg.snapshot();

    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    for s in 0..PIPELINE_SERVICES {
        server.bind(
            format!("echo{s}"),
            Box::new(FnService::new(|_m, args, _h| {
                Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
            })),
        );
    }
    let shared = SharedServer::from_node(server);
    let server_thread = thread::spawn(move || {
        let _ = serve_connection_pooled(&shared, &mut server_conn);
    });

    let mut session = RemoteSession::over(
        registry,
        ReliableTransport::new(client, nrmi_core::RetryPolicy::default()),
    );
    let warmup = [PipelinedCall::new("echo0", "inc", vec![Value::Int(-1)])];
    session.call_pipelined(&warmup).expect("warmup");

    let started = Instant::now();
    let mut done = 0usize;
    while done < BATCHED_WIRE_CALLS {
        let batch: Vec<PipelinedCall> = (0..depth.min(BATCHED_WIRE_CALLS - done))
            .map(|j| {
                PipelinedCall::new(
                    format!("echo{}", (done + j) % PIPELINE_SERVICES),
                    "inc",
                    vec![Value::Int((done + j) as i32)],
                )
            })
            .collect();
        let results = session.call_pipelined(&batch).expect("batched-wire batch");
        for (j, slot) in results.into_iter().enumerate() {
            assert_eq!(
                slot.expect("batched-wire call"),
                Value::Int((done + j) as i32 + 1),
                "reply routed to the wrong slot at depth {depth}"
            );
        }
        done += batch.len();
    }
    let elapsed = started.elapsed();
    let _ = session.close();
    server_thread.join().expect("server thread");

    BATCHED_WIRE_CALLS as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// One batched-wire cell: per-call-write baseline, then the vectored
/// train, same depth and budget — best of [`BATCHED_WIRE_REPS`] runs
/// per wire.
fn batched_wire_cell(depth: usize) -> BatchedPoint {
    let best = |run: &dyn Fn() -> f64| (0..BATCHED_WIRE_REPS).map(|_| run()).fold(0.0, f64::max);
    let per_write = best(&|| batched_wire_run(depth, PerWriteTcp::loopback_pair().0));
    let batched = best(&|| batched_wire_run(depth, tcp_loopback_pair()));
    BatchedPoint {
        depth,
        calls: BATCHED_WIRE_CALLS,
        per_write_calls_per_sec: per_write,
        batched_calls_per_sec: batched,
    }
}

/// Which server core a fleet cell runs against — both through
/// [`ServerPool`], differing only in the serve mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreFlavor {
    /// [`ServerPool::serve`]: a thread per connection (several once a
    /// connection goes pipelined).
    PooledThreads,
    /// [`ServerPool::serve_reactor`]: one event loop plus a fixed
    /// worker pool for every connection.
    Reactor,
}

/// The connection counts for this run: the static sweep, plus 10k when
/// [`TEN_K_ENV`] is set.
pub fn connection_counts() -> Vec<usize> {
    let mut counts = CONNECTION_COUNTS.to_vec();
    if std::env::var_os(TEN_K_ENV).is_some() {
        counts.push(10_000);
    }
    counts
}

/// One fleet cell: hold `connections` open with [`CONN_BUSY_CLIENTS`]
/// of them running pipelined tagged calls. The clock covers the connect
/// storm and the calls; idle connections send nothing, which is
/// precisely what makes them nearly free on the reactor and a thread
/// each on the pooled server.
fn connection_cell(flavor: CoreFlavor, connections: usize) -> ConnectionPoint {
    use nrmi_core::ServerPool;

    let mut reg = ClassRegistry::new();
    // Copy-only schema: calls are pipelineable end to end, so the
    // reactor offloads them to its worker pool instead of escalating.
    reg.define("Payload")
        .field_int("v")
        .serializable()
        .register();
    let registry = reg.snapshot();

    let listener = TcpListenerTransport::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    for s in 0..PIPELINE_SERVICES {
        server.bind(
            format!("echo{s}"),
            Box::new(FnService::new(|_m, args, _h| {
                Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
            })),
        );
    }
    let busy = CONN_BUSY_CLIENTS.min(connections);
    let idle = connections - busy;
    let pool = ServerPool::new().max_live_connections(connections + 8);
    let handle = match flavor {
        CoreFlavor::PooledThreads => pool.serve(server, listener),
        CoreFlavor::Reactor => pool.serve_reactor(server, listener).expect("serve_reactor"),
    };

    // Flow-controlled connect storm: chunks small enough to stay inside
    // the listener's accept backlog, waiting for the server to take each
    // chunk before sending the next. Real clients back off the same way;
    // without it the cell measures kernel SYN-retransmission timeouts
    // (a dropped SYN costs ~1s) instead of the server's accept-and-hold
    // capacity — which is the cost under test, and which stays on the
    // clock: the pooled server pays a thread per accepted connection,
    // the reactor a registration.
    const STORM_CHUNK: usize = 64;
    let started = Instant::now();
    let mut idle_conns: Vec<std::net::TcpStream> = Vec::with_capacity(idle);
    while idle_conns.len() < idle {
        let next = (idle_conns.len() + STORM_CHUNK).min(idle);
        while idle_conns.len() < next {
            let i = idle_conns.len();
            idle_conns.push(
                std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle {i}: {e}")),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.live_connections() < idle_conns.len() {
            assert!(
                Instant::now() < deadline,
                "accept stalled at {} of {}",
                handle.live_connections(),
                idle_conns.len()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    let mut busy_threads = Vec::new();
    for c in 0..busy {
        let registry = registry.clone();
        busy_threads.push(thread::spawn(move || {
            let mut session =
                Session::connect_tcp_reliable(registry, addr, nrmi_core::RetryPolicy::default())
                    .expect("connect busy");
            let mut done = 0usize;
            while done < CONN_CALLS_PER_BUSY {
                let batch: Vec<PipelinedCall> = (0..CONN_PIPELINE_DEPTH
                    .min(CONN_CALLS_PER_BUSY - done))
                    .map(|j| {
                        PipelinedCall::new(
                            format!("echo{}", (done + j) % PIPELINE_SERVICES),
                            "inc",
                            vec![Value::Int((done + j) as i32)],
                        )
                    })
                    .collect();
                let results = session.call_pipelined(&batch).expect("fleet batch");
                for (j, slot) in results.into_iter().enumerate() {
                    assert_eq!(
                        slot.expect("fleet call"),
                        Value::Int((done + j) as i32 + 1),
                        "client {c}: reply routed to the wrong slot"
                    );
                }
                done += batch.len();
            }
            let _ = session.close();
        }));
    }
    for t in busy_threads {
        t.join().expect("busy client");
    }
    let elapsed = started.elapsed();

    // Idle clients must disconnect before shutdown: the pooled server
    // joins per-connection workers, which exit on client disconnect.
    drop(idle_conns);
    handle.shutdown().expect("shutdown");

    let calls = busy * CONN_CALLS_PER_BUSY;
    let secs = elapsed.as_secs_f64();
    ConnectionPoint {
        connections,
        busy,
        calls,
        elapsed_ms: secs * 1e3,
        calls_per_sec: calls as f64 / secs.max(1e-9),
    }
}

/// Stands in for the dispatch's (unused) callback channel.
struct NullWire;

impl Transport for NullWire {
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

/// One reader's connection to the shared server: `send` steps the frame
/// against the one server node (pushed invalidations queued ahead of
/// the reply exactly as the serve drivers write them); `recv` drains
/// the queue. Each reader has its own
/// [`WarmCaches`], all built over the node's one lease table — the
/// per-connection shape of the real servers.
struct WarmLink {
    server: Arc<Mutex<ServerNode>>,
    caches: WarmCaches,
    replies: VecDeque<Frame>,
}

impl Transport for WarmLink {
    fn send(&mut self, frame: &Frame) -> nrmi_transport::Result<()> {
        let mut server = self.server.lock().expect("server");
        let mut conn = Connection::new(&mut server, &mut self.caches);
        let step = conn.step(&mut NullWire, frame.clone());
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

/// One warm reader: its client node, its connection, its chain's client
/// root, and the oracle mirror of what the chain must hold.
struct WarmReader {
    client: ClientNode,
    link: WarmLink,
    root: ObjId,
    oracle: Vec<i32>,
}

const CONTENTION_SVC: &str = "sum";

/// The chain's `data` values in link order, read from `heap`.
fn chain_values(heap: &mut dyn HeapAccess, root: ObjId) -> Vec<i32> {
    let mut values = Vec::new();
    let mut node = Some(root);
    while let Some(id) = node {
        values.push(
            heap.get_field(id, "data")
                .expect("chain data")
                .as_int()
                .unwrap_or(i32::MIN),
        );
        node = heap.get_field(id, "next").expect("chain next").as_ref_id();
    }
    values
}

/// Runs one contention workload: seed every reader, then
/// [`CONTENTION_ROUNDS`] rounds of writer-dirties-then-reader-reads per
/// reader. Returns (stale reads, lost peer writes, steady wire bytes,
/// steady calls).
///
/// `targeted` keeps the leases warm and lets `CacheStale` patches do
/// the repair; otherwise each read evicts first and reseeds the full
/// graph — the only coherent-looking move the one-owner protocol had,
/// which both costs the whole graph per call *and* ships the client's
/// stale values back over the writer's.
fn contention_run(readers: usize, targeted: bool) -> (usize, usize, usize, usize) {
    let mut reg = ClassRegistry::new();
    // class Node implements java.rmi.Restorable { int data; Node next; }
    let node_cls = reg
        .define("Node")
        .field_int("data")
        .field_ref("next")
        .restorable()
        .register();
    let registry = reg.snapshot();

    let mut server = ServerNode::new(registry.clone(), MachineSpec::fast());
    server.bind(
        CONTENTION_SVC,
        Box::new(FnService::new(|_m, args, heap| {
            let mut node = args[0].as_ref_id();
            let mut sum = 0i64;
            while let Some(id) = node {
                sum += i64::from(heap.get_field(id, "data")?.as_int().unwrap_or(0));
                node = heap.get_field(id, "next")?.as_ref_id();
            }
            Ok(Value::Int(sum as i32))
        })),
    );
    let leases = Arc::clone(&server.leases);
    let server = Arc::new(Mutex::new(server));

    let mut fleet: Vec<WarmReader> = (0..readers)
        .map(|_| {
            let mut client = ClientNode::new(registry.clone(), MachineSpec::fast());
            let mut next = Value::Null;
            let mut root = None;
            for i in (0..CONTENTION_GRAPH_NODES).rev() {
                let id = client
                    .state
                    .heap
                    .alloc(node_cls, vec![Value::Int(i as i32), next])
                    .expect("alloc chain");
                next = Value::Ref(id);
                root = Some(id);
            }
            WarmReader {
                client,
                link: WarmLink {
                    server: Arc::clone(&server),
                    caches: WarmCaches::with_leases(Arc::clone(&leases)),
                    replies: VecDeque::new(),
                },
                root: root.expect("nonempty chain"),
                oracle: (0..CONTENTION_GRAPH_NODES).map(|i| i as i32).collect(),
            }
        })
        .collect();

    // Seed every lease off-clock: the seed costs the same under both
    // policies (it is byte-identical to a cold call), so the comparison
    // is over steady-state calls only.
    for rd in &mut fleet {
        client_invoke_warm_with_stats(
            &mut rd.client,
            &mut rd.link,
            CONTENTION_SVC,
            "sum",
            &[Value::Ref(rd.root)],
        )
        .expect("seed");
    }

    let mut stale_reads = 0usize;
    let mut lost_writes = 0usize;
    let mut steady_bytes = 0usize;
    let mut steady_calls = 0usize;

    for round in 0..CONTENTION_ROUNDS {
        for (j, rd) in fleet.iter_mut().enumerate() {
            // The writer: dirty a few positions of this reader's leased
            // server graph out of band — a committed cross-session write
            // from this lease's point of view.
            let cache_id = rd
                .client
                .warm
                .cache_id(CONTENTION_SVC)
                .expect("warm session");
            let ids: Vec<ObjId> = rd
                .link
                .caches
                .sync_ids_of(cache_id)
                .expect("leased")
                .to_vec();
            let mut written = Vec::new();
            {
                let mut server = rd.link.server.lock().expect("server");
                for k in 0..CONTENTION_DIRTY_PER_ROUND {
                    let pos = (round * CONTENTION_DIRTY_PER_ROUND + k) % CONTENTION_GRAPH_NODES;
                    let value = 1_000 + (round * readers + j) as i32;
                    server
                        .state
                        .heap
                        .set_field(ids[pos], "data", Value::Int(value))
                        .expect("writer poke");
                    written.push((pos, value));
                }
            }

            if targeted {
                for &(pos, value) in &written {
                    rd.oracle[pos] = value;
                }
                let (got, stats) = client_invoke_warm_with_stats(
                    &mut rd.client,
                    &mut rd.link,
                    CONTENTION_SVC,
                    "sum",
                    &[Value::Ref(rd.root)],
                )
                .expect("patched call");
                steady_bytes += stats.request_bytes + stats.reply_bytes;
                steady_calls += 1;
                let want: i64 = rd.oracle.iter().map(|&v| i64::from(v)).sum();
                if got != Value::Int(want as i32) {
                    stale_reads += 1;
                }
                if chain_values(&mut rd.client.state.heap, rd.root) != rd.oracle {
                    stale_reads += 1;
                }
            } else {
                client_evict_warm(&mut rd.client, &mut rd.link, CONTENTION_SVC).expect("evict");
                let (_got, stats) = client_invoke_warm_with_stats(
                    &mut rd.client,
                    &mut rd.link,
                    CONTENTION_SVC,
                    "sum",
                    &[Value::Ref(rd.root)],
                )
                .expect("reseed call");
                steady_bytes += stats.request_bytes + stats.reply_bytes;
                steady_calls += 1;
                // The reseed shipped the client's stale graph: any
                // position the new server copy no longer carries at the
                // writer's value is a clobbered peer write.
                let cache_id = rd.client.warm.cache_id(CONTENTION_SVC).expect("reseeded");
                let ids: Vec<ObjId> = rd
                    .link
                    .caches
                    .sync_ids_of(cache_id)
                    .expect("leased")
                    .to_vec();
                let mut server = rd.link.server.lock().expect("server");
                for &(pos, value) in &written {
                    let now = server
                        .state
                        .heap
                        .get_field(ids[pos], "data")
                        .expect("read back")
                        .as_int();
                    if now != Some(value) {
                        lost_writes += 1;
                    }
                }
            }
        }
    }
    (stale_reads, lost_writes, steady_bytes, steady_calls)
}

/// One contention cell: the same workload under targeted invalidation
/// and under the evict-and-reseed baseline.
fn contention_cell(readers: usize) -> ContentionPoint {
    let (stale_reads, _, patched_bytes, patched_calls) = contention_run(readers, true);
    let (_, lost_writes, reseed_bytes, reseed_calls) = contention_run(readers, false);
    ContentionPoint {
        readers,
        rounds: CONTENTION_ROUNDS,
        calls: patched_calls,
        stale_reads,
        lost_writes,
        patched_bytes_per_call: patched_bytes as f64 / patched_calls.max(1) as f64,
        reseed_bytes_per_call: reseed_bytes as f64 / reseed_calls.max(1) as f64,
    }
}

/// Runs the full ablation: both flavors through the sweep and the probe.
pub fn run_scaling() -> ScalingReport {
    ScalingReport {
        calls_per_client: CALLS_PER_CLIENT,
        turnaround_us: CALLBACK_TURNAROUND.as_micros() as u64,
        biglock: CLIENT_COUNTS
            .iter()
            .map(|&n| throughput_cell(ServerFlavor::BigLock, n))
            .collect(),
        pooled: CLIENT_COUNTS
            .iter()
            .map(|&n| throughput_cell(ServerFlavor::Pooled, n))
            .collect(),
        stall_ms: STALL.as_millis() as u64,
        stall_biglock: stall_cell(ServerFlavor::BigLock),
        stall_pooled: stall_cell(ServerFlavor::Pooled),
        pipeline: PIPELINE_DEPTHS.iter().map(|&d| pipeline_cell(d)).collect(),
        batched: BATCHED_WIRE_DEPTHS
            .iter()
            .map(|&d| batched_wire_cell(d))
            .collect(),
        connections_pooled: connection_counts()
            .iter()
            .map(|&n| connection_cell(CoreFlavor::PooledThreads, n))
            .collect(),
        connections_reactor: connection_counts()
            .iter()
            .map(|&n| connection_cell(CoreFlavor::Reactor, n))
            .collect(),
        contention: CONTENTION_READER_COUNTS
            .iter()
            .map(|&n| contention_cell(n))
            .collect(),
    }
}

/// Audits the report. Empty means the pool still delivers: multi-client
/// throughput beats the serialized baseline, and a stalled client no
/// longer blocks an independent probe.
pub fn scaling_violations(report: &ScalingReport) -> Vec<String> {
    let mut violations = Vec::new();
    if let (Some(big), Some(pool)) = (report.biglock.last(), report.pooled.last()) {
        if pool.calls_per_sec <= big.calls_per_sec {
            violations.push(format!(
                "{} clients: pooled {:.0} calls/s does not beat big-lock {:.0} calls/s — \
                 callback waits are serializing again",
                pool.clients, pool.calls_per_sec, big.calls_per_sec
            ));
        }
    }
    let bound_us = (STALL.as_micros() / 2) as u64;
    if report.stall_pooled.max_us >= bound_us {
        violations.push(format!(
            "stall probe: worst pooled latency {}us >= {}us — a stalled client \
             is blocking independent connections",
            report.stall_pooled.max_us, bound_us
        ));
    }
    let depth_point = |d: usize| report.pipeline.iter().find(|p| p.depth == d);
    if let (Some(d1), Some(d16)) = (depth_point(1), depth_point(16)) {
        if d16.calls_per_sec < 2.0 * d1.calls_per_sec {
            violations.push(format!(
                "pipelining: depth 16 at {:.0} calls/s fails to double depth 1 at \
                 {:.0} calls/s — in-flight calls are serializing again",
                d16.calls_per_sec, d1.calls_per_sec
            ));
        }
    }
    // The batched-wire gate: at depth 16 on one connection, vectored
    // frame trains must beat a write-per-frame wire by the committed
    // factor — the whole point of coalescing the train into one writev.
    if let Some(b) = report
        .batched
        .iter()
        .find(|b| b.depth == BATCHED_WIRE_DEPTHS[BATCHED_WIRE_DEPTHS.len() - 1])
    {
        if b.speedup() < BATCHED_WIRE_MIN_SPEEDUP {
            violations.push(format!(
                "batched wire: depth {} trains at {:.0} calls/s are only {:.2}x the \
                 per-call-write wire's {:.0} calls/s (need {:.1}x) — frames are paying \
                 per-write syscalls again",
                b.depth,
                b.batched_calls_per_sec,
                b.speedup(),
                b.per_write_calls_per_sec,
                BATCHED_WIRE_MIN_SPEEDUP
            ));
        }
    }
    // The reactor gate: at 1000 mostly-idle connections the event loop
    // must beat the thread-per-connection aggregate by
    // FLEET_MIN_SPEEDUP — kept honest in CI.
    let fleet_point =
        |points: &[ConnectionPoint], n: usize| points.iter().find(|p| p.connections == n).copied();
    if let (Some(pooled), Some(reactor)) = (
        fleet_point(&report.connections_pooled, 1000),
        fleet_point(&report.connections_reactor, 1000),
    ) {
        if reactor.calls_per_sec < FLEET_MIN_SPEEDUP * pooled.calls_per_sec {
            violations.push(format!(
                "fleet: reactor {:.0} calls/s under 1000 idle connections is below \
                 {FLEET_MIN_SPEEDUP}x the pooled server's {:.0} calls/s — idle connections \
                 are costing threads again",
                reactor.calls_per_sec, pooled.calls_per_sec
            ));
        }
    }
    // The contention gates: targeted invalidation must keep every warm
    // reader coherent (zero stale reads), and a patched steady-state
    // call must undercut the evict-and-reseed baseline's bytes by the
    // committed factor at every reader count.
    for c in &report.contention {
        if c.stale_reads > 0 {
            violations.push(format!(
                "contention: {} readers saw {} stale reads across {} patched calls — \
                 targeted invalidation is missing cross-session writes",
                c.readers, c.stale_reads, c.calls
            ));
        }
        if c.bytes_ratio() < CONTENTION_MIN_BYTES_RATIO {
            violations.push(format!(
                "contention: {} readers: reseed at {:.0} B/call is only {:.2}x the \
                 patched call's {:.0} B/call (need {:.1}x) — coherence patches are \
                 re-shipping the graph again",
                c.readers,
                c.reseed_bytes_per_call,
                c.bytes_ratio(),
                c.patched_bytes_per_call,
                CONTENTION_MIN_BYTES_RATIO
            ));
        }
    }
    violations
}

/// Renders the sweep and probe as aligned tables with the gate verdict.
pub fn render_scaling(report: &ScalingReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multi-client scaling — {} remote-ref calls/client, {}us callback turnaround",
        report.calls_per_client, report.turnaround_us
    );
    let _ = writeln!(
        out,
        "\n{:<9} {:>16} {:>16} {:>9}",
        "clients", "biglock calls/s", "pooled calls/s", "speedup"
    );
    for (b, p) in report.biglock.iter().zip(&report.pooled) {
        let _ = writeln!(
            out,
            "{:<9} {:>16.0} {:>16.0} {:>8.2}x",
            b.clients,
            b.calls_per_sec,
            p.calls_per_sec,
            p.calls_per_sec / b.calls_per_sec.max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "\nStall probe — one client parked {}ms mid-call, {} probe calls on an independent service:",
        report.stall_ms, report.stall_biglock.probe_calls
    );
    let _ = writeln!(out, "{:<9} {:>12} {:>12}", "server", "mean us", "max us");
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>12}",
        "biglock", report.stall_biglock.mean_us, report.stall_biglock.max_us
    );
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>12}",
        "pooled", report.stall_pooled.mean_us, report.stall_pooled.max_us
    );
    let _ = writeln!(
        out,
        "\nPipelining — one connection, {} copy calls in batches of each depth:",
        PIPELINE_TOTAL_CALLS
    );
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>16} {:>9}",
        "depth", "elapsed ms", "calls/s", "vs d=1"
    );
    let d1_rate = report
        .pipeline
        .iter()
        .find(|p| p.depth == 1)
        .map_or(0.0, |p| p.calls_per_sec);
    for p in &report.pipeline {
        let _ = writeln!(
            out,
            "{:<9} {:>12.1} {:>16.0} {:>8.2}x",
            p.depth,
            p.elapsed_ms,
            p.calls_per_sec,
            p.calls_per_sec / d1_rate.max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "\nBatched wire — one connection, {} instant echo calls per wire:",
        BATCHED_WIRE_CALLS
    );
    let _ = writeln!(
        out,
        "{:<9} {:>18} {:>16} {:>9}",
        "depth", "per-write calls/s", "batched calls/s", "speedup"
    );
    for b in &report.batched {
        let _ = writeln!(
            out,
            "{:<9} {:>18.0} {:>16.0} {:>8.2}x",
            b.depth,
            b.per_write_calls_per_sec,
            b.batched_calls_per_sec,
            b.speedup()
        );
    }
    let _ = writeln!(
        out,
        "\nMostly-idle fleet — {} busy clients x {} calls at depth {}, the rest parked:",
        CONN_BUSY_CLIENTS, CONN_CALLS_PER_BUSY, CONN_PIPELINE_DEPTH
    );
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>9}",
        "connections", "pooled calls/s", "reactor calls/s", "speedup"
    );
    for (p, r) in report
        .connections_pooled
        .iter()
        .zip(&report.connections_reactor)
    {
        let _ = writeln!(
            out,
            "{:<12} {:>16.0} {:>16.0} {:>8.2}x",
            p.connections,
            p.calls_per_sec,
            r.calls_per_sec,
            r.calls_per_sec / p.calls_per_sec.max(1e-9)
        );
    }
    let _ = writeln!(
        out,
        "\nShared-graph contention — {CONTENTION_GRAPH_NODES}-node leased chains, \
         {CONTENTION_DIRTY_PER_ROUND} nodes dirtied per graph per round, {CONTENTION_ROUNDS} rounds:"
    );
    let _ = writeln!(
        out,
        "{:<9} {:>13} {:>13} {:>7} {:>11} {:>11}",
        "readers", "patch B/call", "reseed B/call", "ratio", "stale reads", "lost writes"
    );
    for c in &report.contention {
        let _ = writeln!(
            out,
            "{:<9} {:>13.0} {:>13.0} {:>6.1}x {:>11} {:>11}",
            c.readers,
            c.patched_bytes_per_call,
            c.reseed_bytes_per_call,
            c.bytes_ratio(),
            c.stale_reads,
            c.lost_writes
        );
    }
    let violations = scaling_violations(report);
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "\n[PASS] pooled server beats the serialized baseline; stalls stay \
             per-connection; pipelining pays; the reactor holds idle fleets for free; \
             targeted invalidation keeps shared graphs coherent for a fraction of a reseed"
        );
    } else {
        let _ = writeln!(out, "\n[FAIL] scaling regressions:");
        for v in &violations {
            let _ = writeln!(out, "  - {v}");
        }
    }
    out
}

fn point_json(p: &ScalingPoint) -> String {
    format!(
        "{{\"clients\": {}, \"calls\": {}, \"elapsed_ms\": {:.3}, \"calls_per_sec\": {:.1}}}",
        p.clients, p.calls, p.elapsed_ms, p.calls_per_sec
    )
}

fn stall_json(p: &StallPoint) -> String {
    format!(
        "{{\"probe_calls\": {}, \"mean_us\": {}, \"max_us\": {}}}",
        p.probe_calls, p.mean_us, p.max_us
    )
}

fn pipeline_json(p: &PipelinePoint) -> String {
    format!(
        "{{\"depth\": {}, \"calls\": {}, \"elapsed_ms\": {:.3}, \"calls_per_sec\": {:.1}}}",
        p.depth, p.calls, p.elapsed_ms, p.calls_per_sec
    )
}

fn batched_json(p: &BatchedPoint) -> String {
    format!(
        "{{\"depth\": {}, \"calls\": {}, \"per_write_calls_per_sec\": {:.1}, \"batched_calls_per_sec\": {:.1}, \"speedup\": {:.2}}}",
        p.depth, p.calls, p.per_write_calls_per_sec, p.batched_calls_per_sec, p.speedup()
    )
}

fn contention_json(p: &ContentionPoint) -> String {
    format!(
        "{{\"readers\": {}, \"rounds\": {}, \"calls\": {}, \"stale_reads\": {}, \"lost_writes\": {}, \"patched_bytes_per_call\": {:.1}, \"reseed_bytes_per_call\": {:.1}, \"bytes_ratio\": {:.2}}}",
        p.readers,
        p.rounds,
        p.calls,
        p.stale_reads,
        p.lost_writes,
        p.patched_bytes_per_call,
        p.reseed_bytes_per_call,
        p.bytes_ratio()
    )
}

fn connection_json(p: &ConnectionPoint) -> String {
    format!(
        "{{\"connections\": {}, \"busy\": {}, \"calls\": {}, \"elapsed_ms\": {:.3}, \"calls_per_sec\": {:.1}}}",
        p.connections, p.busy, p.calls, p.elapsed_ms, p.calls_per_sec
    )
}

/// Serializes the ablation as the `BENCH_scaling.json` document.
pub fn to_json(report: &ScalingReport) -> String {
    let join =
        |points: &[ScalingPoint]| points.iter().map(point_json).collect::<Vec<_>>().join(", ");
    let pipeline = report
        .pipeline
        .iter()
        .map(pipeline_json)
        .collect::<Vec<_>>()
        .join(", ");
    let batched = report
        .batched
        .iter()
        .map(batched_json)
        .collect::<Vec<_>>()
        .join(", ");
    let fleet = |points: &[ConnectionPoint]| {
        points
            .iter()
            .map(connection_json)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let contention = report
        .contention
        .iter()
        .map(contention_json)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"workload\": \"remote-ref calls with {}us client-side callback turnaround, independent services\",\n  \"notes\": \"{}\",\n  \"calls_per_client\": {},\n  \"biglock\": [{}],\n  \"pooled\": [{}],\n  \"stall_ms\": {},\n  \"stall_biglock\": {},\n  \"stall_pooled\": {},\n  \"pipeline\": [{}],\n  \"batched_wire\": [{}],\n  \"connections_pooled\": [{}],\n  \"connections_reactor\": [{}],\n  \"contention\": [{}]\n}}\n",
        report.turnaround_us,
        FLEET_NOTES,
        report.calls_per_client,
        join(&report.biglock),
        join(&report.pooled),
        report.stall_ms,
        stall_json(&report.stall_biglock),
        stall_json(&report.stall_pooled),
        pipeline,
        batched,
        fleet(&report.connections_pooled),
        fleet(&report.connections_reactor),
        contention
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_beats_biglock_with_multiple_clients() {
        let big = throughput_cell(ServerFlavor::BigLock, 4);
        let pool = throughput_cell(ServerFlavor::Pooled, 4);
        assert!(
            pool.calls_per_sec > big.calls_per_sec,
            "pooled {:.0} calls/s vs biglock {:.0} calls/s",
            pool.calls_per_sec,
            big.calls_per_sec
        );
    }

    #[test]
    fn stalled_client_does_not_slow_pooled_probe() {
        let p = stall_cell(ServerFlavor::Pooled);
        assert!(
            u128::from(p.max_us) < STALL.as_micros() / 2,
            "probe max {}us under a {}ms stall",
            p.max_us,
            STALL.as_millis()
        );
    }

    #[test]
    fn json_has_both_flavors() {
        let point = ScalingPoint {
            clients: 2,
            calls: 40,
            elapsed_ms: 10.0,
            calls_per_sec: 4000.0,
        };
        let stall = StallPoint {
            probe_calls: 5,
            mean_us: 100,
            max_us: 200,
        };
        let report = ScalingReport {
            calls_per_client: 20,
            turnaround_us: 2000,
            biglock: vec![point],
            pooled: vec![point],
            stall_ms: 300,
            stall_biglock: stall,
            stall_pooled: stall,
            pipeline: vec![PipelinePoint {
                depth: 16,
                calls: 256,
                elapsed_ms: 10.0,
                calls_per_sec: 25_600.0,
            }],
            batched: vec![batched_point(16, 10_000.0, 25_000.0)],
            connections_pooled: vec![fleet_point(1000, 3_200.0)],
            connections_reactor: vec![fleet_point(1000, 14_000.0)],
            contention: vec![contention_point(4, 0, 120.0, 2_400.0)],
        };
        let json = to_json(&report);
        assert!(json.contains("\"biglock\""));
        assert!(json.contains("\"pooled\""));
        assert!(json.contains("\"stall_pooled\""));
        assert!(json.contains("\"pipeline\""));
        assert!(json.contains("\"depth\": 16"));
        assert!(json.contains("\"batched_wire\""));
        assert!(json.contains("\"per_write_calls_per_sec\": 10000.0"));
        assert!(json.contains("\"speedup\": 2.50"));
        assert!(json.contains("\"connections_pooled\""));
        assert!(json.contains("\"connections_reactor\""));
        assert!(json.contains("\"connections\": 1000"));
        assert!(json.contains("\"contention\""));
        assert!(json.contains("\"stale_reads\": 0"));
        assert!(json.contains("\"bytes_ratio\": 20.00"));
    }

    fn contention_point(
        readers: usize,
        stale_reads: usize,
        patched: f64,
        reseed: f64,
    ) -> ContentionPoint {
        ContentionPoint {
            readers,
            rounds: CONTENTION_ROUNDS,
            calls: CONTENTION_ROUNDS * readers,
            stale_reads,
            lost_writes: 0,
            patched_bytes_per_call: patched,
            reseed_bytes_per_call: reseed,
        }
    }

    fn fleet_point(connections: usize, calls_per_sec: f64) -> ConnectionPoint {
        ConnectionPoint {
            connections,
            busy: 8,
            calls: 512,
            elapsed_ms: 512.0 / calls_per_sec * 1e3,
            calls_per_sec,
        }
    }

    fn batched_point(depth: usize, per_write: f64, batched: f64) -> BatchedPoint {
        BatchedPoint {
            depth,
            calls: BATCHED_WIRE_CALLS,
            per_write_calls_per_sec: per_write,
            batched_calls_per_sec: batched,
        }
    }

    #[test]
    fn depth16_pipelining_doubles_depth1_throughput() {
        let d1 = pipeline_cell(1);
        let d16 = pipeline_cell(16);
        assert!(
            d16.calls_per_sec >= 2.0 * d1.calls_per_sec,
            "depth 16 {:.0} calls/s vs depth 1 {:.0} calls/s",
            d16.calls_per_sec,
            d1.calls_per_sec
        );
    }

    #[test]
    fn violation_fires_when_pipelining_stops_paying() {
        let flat = |depth: usize| PipelinePoint {
            depth,
            calls: 256,
            elapsed_ms: 100.0,
            calls_per_sec: 2_560.0,
        };
        let report = ScalingReport {
            calls_per_client: 20,
            turnaround_us: 2000,
            biglock: vec![],
            pooled: vec![],
            stall_ms: 300,
            stall_biglock: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            stall_pooled: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            pipeline: vec![flat(1), flat(16)],
            batched: vec![],
            connections_pooled: vec![],
            connections_reactor: vec![],
            contention: vec![],
        };
        let violations = scaling_violations(&report);
        assert!(
            violations.iter().any(|v| v.contains("pipelining")),
            "{violations:?}"
        );
    }

    /// The batched-wire gate fires when depth-16 trains stop beating a
    /// write-per-frame wire by [`BATCHED_WIRE_MIN_SPEEDUP`] — and stays
    /// quiet above the line.
    #[test]
    fn violation_fires_when_batching_stops_paying() {
        let report = |batched: Vec<BatchedPoint>| ScalingReport {
            calls_per_client: 20,
            turnaround_us: 2000,
            biglock: vec![],
            pooled: vec![],
            stall_ms: 300,
            stall_biglock: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            stall_pooled: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            pipeline: vec![],
            batched,
            connections_pooled: vec![],
            connections_reactor: vec![],
            contention: vec![],
        };
        let flat = report(vec![batched_point(16, 10_000.0, 11_000.0)]);
        let violations = scaling_violations(&flat);
        assert!(
            violations.iter().any(|v| v.contains("batched wire")),
            "{violations:?}"
        );
        let paying = report(vec![batched_point(16, 10_000.0, 20_000.0)]);
        assert!(
            !scaling_violations(&paying)
                .iter()
                .any(|v| v.contains("batched wire")),
            "gate must stay quiet at 2.0x"
        );
    }

    /// The fleet gate fires when the reactor's aggregate throughput at
    /// 1000 connections falls under FLEET_MIN_SPEEDUP times the pooled
    /// server's.
    #[test]
    fn violation_fires_when_reactor_stops_paying() {
        let report = ScalingReport {
            calls_per_client: 20,
            turnaround_us: 2000,
            biglock: vec![],
            pooled: vec![],
            stall_ms: 300,
            stall_biglock: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            stall_pooled: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            pipeline: vec![],
            batched: vec![],
            connections_pooled: vec![fleet_point(1000, 3_200.0)],
            connections_reactor: vec![fleet_point(1000, 6_000.0)],
            contention: vec![],
        };
        let violations = scaling_violations(&report);
        assert!(
            violations.iter().any(|v| v.contains("fleet")),
            "{violations:?}"
        );
    }

    /// The contention gates fire on a stale read and on patches that
    /// stop undercutting a reseed — and stay quiet on a healthy cell.
    #[test]
    fn violation_fires_on_stale_reads_or_expensive_patches() {
        let report = |contention: Vec<ContentionPoint>| ScalingReport {
            calls_per_client: 20,
            turnaround_us: 2000,
            biglock: vec![],
            pooled: vec![],
            stall_ms: 300,
            stall_biglock: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            stall_pooled: StallPoint {
                probe_calls: 5,
                mean_us: 100,
                max_us: 200,
            },
            pipeline: vec![],
            batched: vec![],
            connections_pooled: vec![],
            connections_reactor: vec![],
            contention,
        };
        let stale = report(vec![contention_point(4, 3, 120.0, 2_400.0)]);
        assert!(
            scaling_violations(&stale)
                .iter()
                .any(|v| v.contains("stale reads")),
            "stale reads must trip the gate"
        );
        let pricey = report(vec![contention_point(4, 0, 1_600.0, 2_400.0)]);
        assert!(
            scaling_violations(&pricey)
                .iter()
                .any(|v| v.contains("re-shipping")),
            "a 1.5x ratio must trip the {CONTENTION_MIN_BYTES_RATIO}x gate"
        );
        let healthy = report(vec![contention_point(4, 0, 120.0, 2_400.0)]);
        assert!(
            !scaling_violations(&healthy)
                .iter()
                .any(|v| v.contains("contention")),
            "a healthy cell must pass"
        );
    }

    /// The real cell, smallest reader count: targeted invalidation must
    /// deliver zero stale reads and undercut the evict-and-reseed
    /// baseline's bytes by the gated factor, while the baseline
    /// demonstrably loses the writer's values.
    #[test]
    fn targeted_invalidation_beats_reseed_and_stays_coherent() {
        let p = contention_cell(2);
        assert_eq!(p.readers, 2);
        assert_eq!(p.calls, 2 * CONTENTION_ROUNDS);
        assert_eq!(p.stale_reads, 0, "patched readers saw stale state");
        assert!(
            p.bytes_ratio() >= CONTENTION_MIN_BYTES_RATIO,
            "patched {:.0} B/call vs reseed {:.0} B/call",
            p.patched_bytes_per_call,
            p.reseed_bytes_per_call
        );
        assert!(
            p.lost_writes > 0,
            "the reseed baseline should clobber peer writes — that is why it was never a fix"
        );
    }

    /// Smoke: the batched-wire cell completes on both wires — the run
    /// itself asserts every reply routes to the right slot. (The 1.5x
    /// gate runs in the `tables -- scaling` regeneration, where the
    /// measurement is long enough to be stable.)
    #[test]
    fn batched_wire_cell_round_trips_on_both_wires() {
        let p = batched_wire_cell(4);
        assert_eq!(p.depth, 4);
        assert_eq!(p.calls, BATCHED_WIRE_CALLS);
        assert!(p.per_write_calls_per_sec > 0.0);
        assert!(p.batched_calls_per_sec > 0.0);
    }

    /// Smoke: one small fleet cell per server core completes with the
    /// right call accounting (the 1000-connection gate runs in the
    /// `tables -- scaling` regeneration, not per-test).
    #[test]
    fn fleet_cells_complete_on_both_cores() {
        for flavor in [CoreFlavor::PooledThreads, CoreFlavor::Reactor] {
            let p = connection_cell(flavor, 16);
            assert_eq!(p.connections, 16);
            assert_eq!(p.busy, CONN_BUSY_CLIENTS);
            assert_eq!(
                p.calls,
                CONN_BUSY_CLIENTS * CONN_CALLS_PER_BUSY,
                "{flavor:?}"
            );
            assert!(p.calls_per_sec > 0.0, "{flavor:?}");
        }
    }
}
