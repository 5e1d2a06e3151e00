//! The six workloads and the closed loop that drives them.
//!
//! Both ends of every connection live in this process: a long-lived
//! server (`ServerPool::serve` or `serve_reactor`) on a TCP loopback
//! listener, and clients built from `RemoteSession::over` +
//! `ReliableTransport`. A run is a set-up (timed as `setup_s`) followed
//! by rounds. A **round** opens fresh connections, runs untimed warm-up
//! samples, then times a fixed number of samples per connection; a
//! caller sends its next request only when the previous reply has been
//! applied. Every end-to-end metric is computed per round, and the run
//! reports the median over rounds. The sample count of a round never
//! changes, so two commits do identical work per round; `--seconds`
//! only decides how many rounds there are.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nrmi_core::{
    FnService, PipelinedCall, ReliableTransport, RemoteSession, RetryPolicy, ServeHandle,
    ServerNode, ServerPool,
};
use nrmi_heap::graph::isomorphic_multi;
use nrmi_heap::{Heap, ObjId, Value};
use nrmi_transport::{MachineSpec, TcpListenerTransport, TcpTransport};

use crate::analysis::SampleSpan;
use crate::gen::{self, Classes, SplitMix, Tree};
use crate::trace::Instrument;
use crate::{alloc, sys};

/// Nodes of `tree_cold`'s graph (the paper's largest benchmark tree).
pub const COLD_NODES: usize = 1024;
/// Nodes of the warm workloads' graph.
pub const WARM_NODES: usize = 4096;
/// Client aliases into the tree: the paper's scenario III.
pub const ALIASES: usize = 16;
/// Calls per pipelined batch.
pub const PIPELINE_DEPTH: usize = 16;

/// What one sample does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `echo.inc(Int)`.
    Echo,
    /// `tree.mutate` on a fresh copy-restore of the whole tree.
    TreeCold,
    /// `call_warm("warm", "touch")` after the client dirtied `dirty`
    /// nodes; the service rewrites `touch` nodes.
    Warm {
        /// Nodes the client writes before each call.
        dirty: usize,
        /// Nodes the service rewrites.
        touch: usize,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why it exists: which layers it loads and which it leaves idle.
    pub why: &'static str,
    /// What a sample does.
    pub kind: Kind,
    /// Busy client connections (and client threads).
    pub conns: usize,
    /// Calls in flight per connection: 1, or a `call_pipelined` batch.
    pub depth: usize,
    /// Timed samples per connection per round.
    pub samples: usize,
    /// Untimed samples per connection before them.
    pub warmup: usize,
    /// `serve_reactor` rather than thread-per-connection `serve`.
    pub reactor: bool,
    /// Idle sockets the server holds throughout.
    pub idle: usize,
    /// Whether the process is held on one CPU.
    pub pinned: bool,
}

impl Spec {
    /// Calls in one round.
    pub fn calls_per_round(&self) -> u64 {
        (self.conns * self.samples * self.depth) as u64
    }
}

/// The six workloads. `quick` divides every count by twenty and holds 50
/// idle sockets: for tests, never for the record.
pub fn specs(quick: bool) -> Vec<Spec> {
    let base = Spec {
        name: "",
        why: "",
        kind: Kind::Echo,
        conns: 1,
        depth: 1,
        samples: 0,
        warmup: 0,
        reactor: false,
        idle: 0,
        pinned: true,
    };
    let pipelined = Spec {
        conns: 2,
        depth: PIPELINE_DEPTH,
        warmup: 200,
        reactor: true,
        pinned: false,
        ..base
    };
    let mut all = vec![
        Spec {
            name: "echo_rtt",
            why: "smallest message at depth 1: framing, syscalls, the reliable envelope and the serve loop, with no per-object work; the row the raw floor sits next to",
            samples: 40_000,
            warmup: 2_000,
            ..base
        },
        Spec {
            name: "echo_pipelined",
            why: "depth-16 batches on the reactor: batching, worker hand-off and the sharded reply cache do the work; per-object layers do none",
            samples: 4_000,
            ..pipelined
        },
        Spec {
            name: "fleet_idle",
            why: "echo_pipelined's traffic with 1000 idle sockets registered: only the poll set differs, so poll(2) rescans show here and nowhere else",
            samples: 2_000,
            idle: 1_000,
            ..pipelined
        },
        Spec {
            name: "tree_cold",
            why: "the paper's benchmark: a 1024-node aliased tree by full copy-restore; heap traversal, wire codec and restore dominate, warm machinery is bypassed",
            kind: Kind::TreeCold,
            samples: 1_024,
            warmup: 32,
            ..base
        },
        Spec {
            name: "warm_sparse",
            why: "warm call on a 4096-node tree with 8 nodes dirty each way: the ideal cost is O(dirty), so any O(n) scan is nearly all of it",
            kind: Kind::Warm { dirty: 8, touch: 8 },
            samples: 2_048,
            warmup: 64,
            ..base
        },
        Spec {
            name: "warm_dense",
            why: "same session with 2048 nodes dirty each way: bookkeeping that speeds the sparse case is paid for here",
            kind: Kind::Warm {
                dirty: 2_048,
                touch: 2_048,
            },
            samples: 1_024,
            warmup: 64,
            ..base
        },
    ];
    if quick {
        for spec in &mut all {
            spec.samples = (spec.samples / 20).max(1);
            spec.warmup = (spec.warmup / 20).max(2);
            spec.idle = spec.idle.min(50);
        }
    }
    all
}

/// How long and how often to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Derives every input.
    pub seed: u64,
    /// Time for timed rounds, shared equally between the set-ups: a
    /// set-up's rounds stop once its share is used (every set-up runs one).
    pub seconds: f64,
    /// Run exactly this many rounds per set-up instead.
    pub rounds: Option<usize>,
    /// Servers to set up, one after the other; `setup_s` is the median.
    pub setups: usize,
    /// Keep every sample's timestamps ([`Round::spans`]) for the trace
    /// join. An untraced run drops them, so that what it holds does not
    /// grow with the number of rounds.
    pub keep_spans: bool,
}

/// Idle sockets connected before waiting for the server to accept them;
/// below the listener's backlog (128).
const CONNECT_WAVE: usize = 64;

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Calls completed in the timed part.
    pub calls: u64,
    /// Calls whose result was wrong, plus oracle mismatches.
    pub failed: u64,
    /// First client's start to last client's end.
    pub wall_s: f64,
    /// Process CPU time over the same interval.
    pub cpu_s: f64,
    /// Median sample latency.
    pub p50_us: f64,
    /// 99th-percentile sample latency.
    pub p99_us: f64,
    /// Latency samples behind those two.
    pub samples: usize,
    /// Resident set when the last timed sample returned, kilobytes.
    pub rss_kb: u64,
    /// The timed part, in nanoseconds since the run's epoch.
    pub window: (u64, u64),
    /// Every timed sample, when [`Plan::keep_spans`] asks for them.
    pub spans: Vec<SampleSpan>,
    /// Counter deltas over the timed part.
    pub counters: Counters,
}

/// Process-wide and client-heap counters, as deltas over a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Allocation events (zero unless counting is on).
    pub alloc_events: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// `write`/`writev` calls by the framed wire, both ends.
    pub write_syscalls: u64,
    /// `read` calls by the framed wire, both ends.
    pub read_syscalls: u64,
    /// Payload bytes memmoved into contiguous frame bodies.
    pub bytes_copied: u64,
    /// Field reads on the client heaps.
    pub heap_reads: u64,
    /// Field writes on the client heaps (the workload's own dirtying included).
    pub heap_writes: u64,
    /// Growth of the resident set, kilobytes (may be negative).
    pub rss_growth_kb: i64,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Each timed set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Each round.
    pub rounds: Vec<Round>,
}

type Session<I> = RemoteSession<ReliableTransport<<I as Instrument>::Client>>;

/// The tree a client passes, and the local twin the same service runs on.
struct Graph {
    tree: Tree,
    twin: Heap,
    twin_tree: Tree,
}

/// A tree call made remotely and still to be replayed on the twin.
struct Journal {
    dirty_bits: u64,
    arg: i32,
    returned: Option<i32>,
}

struct Client<I: Instrument> {
    session: Session<I>,
    rng: SplitMix,
    graph: Option<Graph>,
    journal: Vec<Journal>,
    batch: Vec<PipelinedCall>,
    batch_values: Vec<i32>,
}

/// One sample's timestamps and verdict.
struct Sample {
    start: Instant,
    end: Instant,
    failed: u64,
}

/// Nonces are derived, not random: a `Tagged` envelope encodes its nonce
/// as a varint, so a random one would move `frame_bytes_per_call` by a
/// byte between runs. The top bit keeps every nonce ten bytes wide.
fn next_nonce(seed: u64) -> u64 {
    static CONNECTIONS: AtomicU64 = AtomicU64::new(0);
    let n = CONNECTIONS.fetch_add(1, Ordering::Relaxed);
    1 << 63 | gen::mix(seed ^ n.wrapping_mul(0x9e37_79b9)) >> 1
}

impl<I: Instrument> Client<I> {
    fn connect(
        spec: &Spec,
        plan: &Plan,
        classes: &Classes,
        ins: &I,
        addr: SocketAddr,
        round: u32,
        conn: u32,
    ) -> Result<Self, String> {
        let tcp = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let transport = ReliableTransport::with_nonce(
            ins.client(tcp, round, conn),
            RetryPolicy::default(),
            next_nonce(plan.seed),
        );
        let mut session = RemoteSession::over(classes.registry.clone(), transport);
        let mut rng = SplitMix::new(gen::mix(
            plan.seed ^ u64::from(round) << 8 ^ u64::from(conn),
        ));
        let graph = match spec.kind {
            Kind::Echo => None,
            Kind::TreeCold | Kind::Warm { .. } => {
                let nodes = if spec.kind == Kind::TreeCold {
                    COLD_NODES
                } else {
                    WARM_NODES
                };
                let tree_seed = gen::mix(plan.seed ^ 0x7ee5 ^ nodes as u64);
                let tree = gen::build_tree(session.heap(), classes, nodes, ALIASES, tree_seed)
                    .map_err(|e| e.to_string())?;
                let mut twin = Heap::new(classes.registry.clone());
                let twin_tree = gen::build_tree(&mut twin, classes, nodes, ALIASES, tree_seed)
                    .map_err(|e| e.to_string())?;
                Some(Graph {
                    tree,
                    twin,
                    twin_tree,
                })
            }
        };
        let batch_values: Vec<i32> = (0..spec.depth)
            .map(|_| gen::fixed_width_int(rng.next_u64()))
            .collect();
        let batch = batch_values
            .iter()
            .map(|&v| PipelinedCall::new("echo", "inc", vec![Value::Int(v)]))
            .collect();
        Ok(Client {
            session,
            rng,
            graph,
            journal: Vec::with_capacity(spec.samples + spec.warmup),
            batch,
            batch_values,
        })
    }

    /// Runs one sample: one call, or one batch.
    fn sample(&mut self, spec: &Spec) -> Result<Sample, String> {
        match spec.kind {
            Kind::Echo if spec.depth == 1 => {
                let v = gen::fixed_width_int(self.rng.next_u64());
                let start = Instant::now();
                let got = self.session.call("echo", "inc", &[Value::Int(v)]);
                let end = Instant::now();
                let got = got.map_err(|e| format!("echo.inc: {e}"))?;
                Ok(Sample {
                    start,
                    end,
                    failed: u64::from(got != Value::Int(v + 1)),
                })
            }
            Kind::Echo => {
                let start = Instant::now();
                let got = self.session.call_pipelined(&self.batch);
                let end = Instant::now();
                let got = got.map_err(|e| format!("echo.inc batch: {e}"))?;
                let failed = got
                    .iter()
                    .zip(&self.batch_values)
                    .filter(|(slot, &v)| !matches!(slot, Ok(Value::Int(r)) if *r == v + 1))
                    .count()
                    + self.batch.len().saturating_sub(got.len());
                Ok(Sample {
                    start,
                    end,
                    failed: failed as u64,
                })
            }
            Kind::TreeCold => {
                let graph = self.graph.as_ref().expect("tree workloads build a graph");
                let salt = gen::fixed_width_int(self.rng.next_u64());
                let args = [Value::Ref(graph.tree.root), Value::Int(salt)];
                let start = Instant::now();
                let got = self.session.call("tree", "mutate", &args);
                let end = Instant::now();
                let got = got.map_err(|e| format!("tree.mutate: {e}"))?;
                self.journal.push(Journal {
                    dirty_bits: 0,
                    arg: salt,
                    returned: got.as_int(),
                });
                Ok(Sample {
                    start,
                    end,
                    failed: 0,
                })
            }
            Kind::Warm { dirty, touch } => {
                let graph = self.graph.as_ref().expect("tree workloads build a graph");
                let bits = self.rng.next_u64();
                let path = gen::fixed_width_int(bits >> 24);
                gen::dirty_nodes(self.session.heap(), &graph.tree, dirty, bits)
                    .map_err(|e| e.to_string())?;
                let args = [
                    Value::Ref(graph.tree.root),
                    Value::Int(path),
                    Value::Int(touch as i32),
                ];
                let start = Instant::now();
                let got = self.session.call_warm("warm", "touch", &args);
                let end = Instant::now();
                let got = got.map_err(|e| format!("warm.touch: {e}"))?;
                self.journal.push(Journal {
                    dirty_bits: bits,
                    arg: path,
                    returned: got.as_int(),
                });
                Ok(Sample {
                    start,
                    end,
                    failed: 0,
                })
            }
        }
    }

    /// Off the clock: replays the journal on the twin — the same writes,
    /// the same service function, run locally — and compares every
    /// returned checksum, then demands that the client's heap and the
    /// twin are isomorphic over root and aliases together. Copy-restore
    /// promises local-call semantics; the twin is a local call.
    fn verify(&mut self, spec: &Spec) -> Result<u64, String> {
        let Some(graph) = &mut self.graph else {
            return Ok(0);
        };
        let mut failed = 0u64;
        for entry in self.journal.drain(..) {
            let root = Value::Ref(graph.twin_tree.root);
            let expected = match spec.kind {
                Kind::Warm { dirty, touch } => {
                    gen::dirty_nodes(&mut graph.twin, &graph.twin_tree, dirty, entry.dirty_bits)
                        .map_err(|e| e.to_string())?;
                    let args = [root, Value::Int(entry.arg), Value::Int(touch as i32)];
                    gen::warm_touch("touch", &args, &mut graph.twin)
                }
                _ => gen::tree_mutate("mutate", &[root, Value::Int(entry.arg)], &mut graph.twin),
            }
            .map_err(|e| format!("twin: {e}"))?;
            failed += u64::from(expected.as_int() != entry.returned);
        }
        let roots = |t: &Tree| -> Vec<ObjId> {
            std::iter::once(t.root)
                .chain(t.aliases.iter().copied())
                .collect()
        };
        let same = isomorphic_multi(
            self.session.heap(),
            &roots(&graph.tree),
            &graph.twin,
            &roots(&graph.twin_tree),
        )
        .map_err(|e| format!("isomorphism check: {e}"))?;
        Ok(failed + u64::from(!same))
    }
}

struct Server {
    handle: ServeHandle,
    addr: SocketAddr,
    idle: Vec<TcpStream>,
}

/// Waits, off the clock, until the server serves exactly `want`
/// connections.
fn wait_live(handle: &ServeHandle, want: usize, what: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.live_connections() != want {
        if let Some(e) = handle.accept_error() {
            return Err(format!("server accept loop failed: {e}"));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "{what}: server holds {} connections, expected {want}",
                handle.live_connections()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

fn start_server<I: Instrument>(spec: &Spec, classes: &Classes, ins: &I) -> Result<Server, String> {
    let mut node = ServerNode::new(classes.registry.clone(), MachineSpec::fast());
    node.bind("echo", ins.service(Box::new(FnService::new(gen::echo_inc))));
    node.bind(
        "tree",
        ins.service(Box::new(FnService::new(gen::tree_mutate))),
    );
    node.bind(
        "warm",
        ins.service(Box::new(FnService::new(gen::warm_touch))),
    );
    let listener = TcpListenerTransport::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let pool = ServerPool::new()
        .max_live_connections(spec.idle + 64)
        .accept_poll(Duration::from_millis(1));
    let listener = ins.listener(listener);
    let handle = if spec.reactor {
        pool.serve_reactor(node, listener)
            .map_err(|e| format!("serve_reactor: {e}"))?
    } else {
        pool.serve(node, listener)
    };
    // In waves the listen backlog can hold: a dropped SYN is retried a
    // whole second later, which is not the server's set-up time.
    let mut idle = Vec::with_capacity(spec.idle);
    while idle.len() < spec.idle {
        for _ in 0..CONNECT_WAVE.min(spec.idle - idle.len()) {
            idle.push(TcpStream::connect(addr).map_err(|e| format!("idle connect storm: {e}"))?);
        }
        wait_live(&handle, idle.len(), "idle sockets not all accepted")?;
    }
    Ok(Server { handle, addr, idle })
}

fn stop_server(server: Server) -> Result<(), String> {
    drop(server.idle);
    // The node comes back once every connection has ended; dropping it
    // drops the services, which is when a traced service hands in its spans.
    server
        .handle
        .shutdown()
        .map(drop)
        .map_err(|e| format!("server shutdown: {e}"))
}

/// Opens the round's connections, builds their graphs and runs the
/// warm-up samples (a warm session seeds here). Connections are opened
/// from this thread, in order, so nonces repeat from run to run.
fn open_round<I: Instrument>(
    spec: &Spec,
    plan: &Plan,
    classes: &Classes,
    ins: &I,
    server: &Server,
    round: u32,
) -> Result<Vec<Client<I>>, String> {
    let mut clients = Vec::with_capacity(spec.conns);
    for conn in 0..spec.conns as u32 {
        let mut client = Client::connect(spec, plan, classes, ins, server.addr, round, conn)?;
        for _ in 0..spec.warmup {
            client.sample(spec)?;
        }
        clients.push(client);
    }
    wait_live(&server.handle, spec.idle + spec.conns, "round connections")?;
    Ok(clients)
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Times one round on already warmed-up clients, then verifies and
/// closes them.
fn run_round<I: Instrument>(
    spec: &Spec,
    plan: &Plan,
    server: &Server,
    clients: Vec<Client<I>>,
    epoch: Instant,
    round: u32,
) -> Result<Round, String> {
    struct Timed<I: Instrument> {
        client: Client<I>,
        start: Instant,
        end: Instant,
        samples: Vec<(Instant, Instant)>,
        failed: u64,
        heap_reads: u64,
        heap_writes: u64,
    }

    let barrier = Barrier::new(spec.conns + 1);
    let rss_before = sys::status_kb("VmRSS")?;
    let (alloc_events, alloc_bytes) = alloc::counters();
    let (writes, reads) = nrmi_transport::wire_syscalls();
    let copied = nrmi_transport::bytes_copied();
    let mut cpu_before = 0.0;
    let results: Vec<Result<Timed<I>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Timed<I>, String> {
                    // Filled, not just reserved: pages touched now are
                    // not resident-set growth during the round.
                    let now = Instant::now();
                    let mut samples = vec![(now, now); spec.samples];
                    let before = client.session.heap().stats();
                    let warm_before = warm_position(&mut client);
                    let mut failed = 0;
                    barrier.wait();
                    let start = Instant::now();
                    for slot in &mut samples {
                        let s = client.sample(spec)?;
                        failed += s.failed;
                        *slot = (s.start, s.end);
                    }
                    let end = Instant::now();
                    let after = client.session.heap().stats();
                    if let Some((id, generation)) = warm_before {
                        // A session that fell back to a cold reseed mid-round
                        // timed a different protocol than the one named.
                        let now = warm_position(&mut client);
                        if now != Some((id, generation + spec.samples as u64)) {
                            return Err(format!(
                                "{}: warm session reseeded during timing ({warm_before:?} -> {now:?})",
                                spec.name
                            ));
                        }
                    }
                    Ok(Timed {
                        client,
                        start,
                        end,
                        samples,
                        failed,
                        heap_reads: after.reads - before.reads,
                        heap_writes: after.writes - before.writes,
                    })
                })
            })
            .collect();
        cpu_before = sys::process_cpu_s();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu_s = sys::process_cpu_s() - cpu_before;
    let (alloc_events_after, alloc_bytes_after) = alloc::counters();
    let (writes_after, reads_after) = nrmi_transport::wire_syscalls();
    let copied_after = nrmi_transport::bytes_copied();
    let rss_after = sys::status_kb("VmRSS")?;

    let mut timed = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let start = timed
        .iter()
        .map(|t| t.start)
        .min()
        .expect("a round has clients");
    let end = timed
        .iter()
        .map(|t| t.end)
        .max()
        .expect("a round has clients");
    let mut latencies: Vec<u64> = Vec::with_capacity(spec.conns * spec.samples);
    let mut spans = Vec::new();
    let mut round_result = Round {
        calls: spec.calls_per_round(),
        wall_s: (end - start).as_secs_f64(),
        cpu_s,
        rss_kb: rss_after,
        window: (ns_since(epoch, start), ns_since(epoch, end)),
        counters: Counters {
            alloc_events: alloc_events_after - alloc_events,
            alloc_bytes: alloc_bytes_after - alloc_bytes,
            write_syscalls: writes_after - writes,
            read_syscalls: reads_after - reads,
            bytes_copied: copied_after - copied,
            rss_growth_kb: rss_after as i64 - rss_before as i64,
            ..Counters::default()
        },
        ..Round::default()
    };
    for (conn, t) in timed.iter_mut().enumerate() {
        round_result.failed += t.failed + t.client.verify(spec)?;
        round_result.counters.heap_reads += t.heap_reads;
        round_result.counters.heap_writes += t.heap_writes;
        latencies.extend(t.samples.iter().map(|&(s, e)| (e - s).as_nanos() as u64));
        if plan.keep_spans {
            spans.extend(t.samples.iter().map(|&(s, e)| SampleSpan {
                round,
                conn: conn as u32,
                start: ns_since(epoch, s),
                end: ns_since(epoch, e),
            }));
        }
    }
    for t in timed {
        t.client
            .session
            .close()
            .map_err(|e| format!("closing a session: {e}"))?;
    }
    // The next round must not share the server with this one's teardown
    // (a tree_cold connection frees ~150 MB of private heap as it ends).
    wait_live(&server.handle, spec.idle, "round connections did not end")?;

    latencies.sort_unstable();
    round_result.samples = latencies.len();
    round_result.p50_us = crate::stats::percentile_sorted(&latencies, 50.0) as f64 / 1e3;
    round_result.p99_us = crate::stats::percentile_sorted(&latencies, 99.0) as f64 / 1e3;
    round_result.spans = spans;
    Ok(round_result)
}

/// `(cache id, generation)` of the client's warm session, if it has one.
fn warm_position<I: Instrument>(client: &mut Client<I>) -> Option<(u64, u64)> {
    let warm = &client.session.client().warm;
    Some((warm.cache_id("warm")?, warm.generation("warm")?))
}

/// Runs `spec` under `plan`: `plan.setups` times over, a timed set-up
/// (a new server, its idle sockets, round 1's connections and warm-up)
/// and then rounds against that server for an equal share of
/// `plan.seconds`. Rounds from every set-up are pooled. Several servers
/// in one run matter: what a server instance draws at random — the
/// poller's hash order, where the kernel puts a thousand sockets, which
/// malloc arena a thread gets — then varies within a run instead of
/// between runs. Sample times are in nanoseconds since `epoch` (a
/// traced run passes its recorder's).
///
/// # Errors
/// Any transport or remote error, a failed guard, or a server that does
/// not start or stop cleanly. A wrong result is not an error: it is
/// counted in [`Round::failed`].
pub fn run<I: Instrument>(
    spec: &Spec,
    plan: &Plan,
    ins: &I,
    epoch: Instant,
) -> Result<Outcome, String> {
    let mut setups_s = Vec::with_capacity(plan.setups);
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = Duration::ZERO;
    for setup in 1..=plan.setups {
        let began = Instant::now();
        let classes = gen::classes();
        let server = start_server(spec, &classes, ins)?;
        let mut clients = open_round(spec, plan, &classes, ins, &server, rounds.len() as u32 + 1)?;
        setups_s.push(began.elapsed().as_secs_f64());

        let began = Instant::now();
        loop {
            let round = rounds.len() as u32 + 1;
            rounds.push(run_round(spec, plan, &server, clients, epoch, round)?);
            let done = match plan.rounds {
                Some(n) => rounds.len() >= n * setup,
                None => {
                    let share = plan.seconds * setup as f64 / plan.setups as f64;
                    (timed + began.elapsed()).as_secs_f64() >= share
                }
            };
            if done {
                break;
            }
            clients = open_round(spec, plan, &classes, ins, &server, round + 1)?;
        }
        timed += began.elapsed();
        stop_server(server)?;
    }
    Ok(Outcome { setups_s, rounds })
}
