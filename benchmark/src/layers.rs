//! Layer microbenchmarks: direct, timed calls into each layer's public
//! functions, on one thread, on the same graphs and frames the workloads
//! send. Each figure is the median of [`SAMPLES`] timings; operations too
//! short for the clock are timed several at a time.
//!
//! They run at the end of every traced invocation, whatever its workload,
//! so a layer's own cost can be read next to any end-to-end number.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use nrmi_core::{
    apply_restore, reactor_classify, FnService, ServerNode, ShardedReplyCache, SharedServer,
};
use nrmi_heap::{Heap, LinearMap, ObjId, TraverseScratch, Value};
use nrmi_transport::{Frame, Interest, MachineSpec, Poller, Token};
use nrmi_wire::{apply_request_delta, deserialize_graph, serialize_graph_with, ByteWriter, Codec};

use crate::gen;
use crate::stats::median;
use crate::sys;
use crate::workloads::{ALIASES, COLD_NODES, WARM_NODES};

/// Timings behind each median.
pub const SAMPLES: usize = 1_000;

/// Idle descriptors registered for `transport.poller_wait_idle1000_us`:
/// `fleet_idle`'s fleet.
pub const IDLE_FLEET: usize = 1_000;

/// Median of `samples` runs of `f`, which times its own critical section.
fn median_ns(
    samples: usize,
    mut f: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        times.push(f()?.as_nanos() as f64);
    }
    Ok(median(&times))
}

fn wire<E: std::fmt::Display>(e: E) -> String {
    format!("layer microbenchmark: {e}")
}

fn tagged(seq: u64, frame: Frame) -> Frame {
    Frame::Tagged {
        nonce: 1 << 63 | 0x5eed,
        seq,
        frame: Box::new(frame),
    }
}

fn echo_request(payload: Vec<u8>) -> Frame {
    Frame::CallRequest {
        service: "echo".into(),
        method: "inc".into(),
        mode: 0,
        payload,
    }
}

/// Runs every microbenchmark; `(metric name, value)` pairs in the units
/// [`crate::metrics::PER_LAYER`] declares. The two `raw_floor` round
/// trips are returned too; `transport.overhead_over_floor` is the
/// caller's to derive.
///
/// # Errors
/// A layer call that fails, or a socket the floor cannot open.
pub fn run(seed: u64, samples: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let classes = gen::classes();

    // --- tree_cold's graph through heap, wire and restore -----------------
    let mut heap = Heap::new(classes.registry.clone());
    let tree =
        gen::build_tree(&mut heap, &classes, COLD_NODES, ALIASES, gen::mix(seed)).map_err(wire)?;
    let roots = [Value::Ref(tree.root)];
    let per_obj = COLD_NODES as f64;

    let mut scratch = TraverseScratch::new();
    let linear_map = median_ns(samples, || {
        let t = Instant::now();
        let map = LinearMap::build_with(&heap, &[tree.root], &mut scratch).map_err(wire)?;
        let dt = t.elapsed();
        std::hint::black_box(map);
        Ok(dt)
    })?;
    out.push(("heap.linear_map_ns_per_obj", linear_map / per_obj));

    let mut codec = Codec::new();
    let encode = median_ns(samples, || {
        let t = Instant::now();
        let enc = codec
            .encode_graph(&heap, &roots, None, None)
            .map_err(wire)?;
        let dt = t.elapsed();
        codec.recycle(enc.bytes);
        Ok(dt)
    })?;
    out.push(("wire.encode_graph_ns_per_obj", encode / per_obj));

    // A full reply for this graph: every object annotated with its own
    // position, as the server sends after a call that kept the tree's size.
    let client_map = LinearMap::build(&heap, &[tree.root]).map_err(wire)?;
    let request = serialize_graph_with(&heap, &roots, None, None)
        .map_err(wire)?
        .bytes;
    let reply = serialize_graph_with(&heap, &roots, Some(client_map.position_map()), None)
        .map_err(wire)?
        .bytes;

    let mut scratch_heap = Heap::new(classes.registry.clone());
    let decode = median_ns(samples, || {
        let t = Instant::now();
        let decoded = deserialize_graph(&request, &mut scratch_heap).map_err(wire)?;
        let dt = t.elapsed();
        for &id in &decoded.linear {
            scratch_heap.free(id).map_err(wire)?;
        }
        Ok(dt)
    })?;
    out.push(("wire.decode_graph_ns_per_obj", decode / per_obj));

    let restore = median_ns(samples, || {
        let decoded = deserialize_graph(&reply, &mut heap).map_err(wire)?;
        let t = Instant::now();
        let outcome = apply_restore(&mut heap, &client_map, &decoded).map_err(wire)?;
        let dt = t.elapsed();
        std::hint::black_box(outcome);
        Ok(dt)
    })?;
    out.push(("core.restore.apply_ns_per_obj", restore / per_obj));

    // --- the warm workloads' request deltas --------------------------------
    let mut warm_heap = Heap::new(classes.registry.clone());
    let warm = gen::build_tree(
        &mut warm_heap,
        &classes,
        WARM_NODES,
        ALIASES,
        gen::mix(seed ^ 1),
    )
    .map_err(wire)?;
    let warm_roots = [Value::Ref(warm.root)];
    let sync: Vec<ObjId> = LinearMap::build(&warm_heap, &[warm.root])
        .map_err(wire)?
        .order()
        .to_vec();
    let seeded = serialize_graph_with(&warm_heap, &warm_roots, None, None)
        .map_err(wire)?
        .bytes;
    let mut server_heap = Heap::new(classes.registry.clone());
    let server_sync = deserialize_graph(&seeded, &mut server_heap)
        .map_err(wire)?
        .linear;
    for (dirty, encode_name, apply_name) in [
        (
            8usize,
            "wire.request_delta_encode_sparse_us",
            "wire.request_delta_apply_sparse_us",
        ),
        (
            2_048,
            "wire.request_delta_encode_dense_us",
            "wire.request_delta_apply_dense_us",
        ),
    ] {
        let stride = WARM_NODES / dirty;
        let positions: Vec<u32> = (0..dirty).map(|j| (j * stride) as u32).collect();
        let mut delta = Vec::new();
        let encode = median_ns(samples, || {
            let t = Instant::now();
            let enc = codec
                .encode_request_delta(&warm_heap, &sync, &[], &positions, &warm_roots)
                .map_err(wire)?;
            let dt = t.elapsed();
            codec.recycle(std::mem::replace(&mut delta, enc.bytes));
            Ok(dt)
        })?;
        out.push((encode_name, encode / 1e3));
        let apply = median_ns(samples, || {
            let t = Instant::now();
            let applied =
                apply_request_delta(&delta, &mut server_heap, &server_sync).map_err(wire)?;
            let dt = t.elapsed();
            std::hint::black_box(applied);
            Ok(dt)
        })?;
        out.push((apply_name, apply / 1e3));
    }

    // --- framing ------------------------------------------------------------
    let echo_arg =
        serialize_graph_with(&heap, &[Value::Int(gen::fixed_width_int(seed))], None, None)
            .map_err(wire)?
            .bytes;
    let small = tagged(300, echo_request(echo_arg.clone()));
    let small_reply = tagged(300, Frame::CallReply { payload: echo_arg });
    let big = tagged(300, echo_request(request.clone()));
    let big_reply = tagged(
        300,
        Frame::CallReply {
            payload: reply.clone(),
        },
    );
    for (frame, reps, encode_name, decode_name, scale) in [
        (
            &small,
            64usize,
            "transport.frame_encode_small_ns",
            "transport.frame_decode_small_ns",
            1.0,
        ),
        (
            &big,
            8,
            "transport.frame_encode_8k_us",
            "transport.frame_decode_8k_us",
            1e3,
        ),
    ] {
        let mut buf = Vec::new();
        let encode = median_ns(samples, || {
            let t = Instant::now();
            for _ in 0..reps {
                let mut w = ByteWriter::with_buffer(std::mem::take(&mut buf));
                frame.encode_into(&mut w);
                buf = w.into_bytes();
            }
            Ok(t.elapsed() / reps as u32)
        })?;
        out.push((encode_name, encode / scale));
        let decode = median_ns(samples, || {
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(Frame::decode(&buf).map_err(wire)?);
            }
            Ok(t.elapsed() / reps as u32)
        })?;
        out.push((decode_name, decode / scale));
    }

    // --- at-most-once bookkeeping and the reactor's step function -----------
    const REPS: usize = 32;
    let cache = ShardedReplyCache::default();
    let mut seq = 0u64;
    let reply_cache = median_ns(samples, || {
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(cache.begin(7, seq));
            cache.store(7, seq, &small_reply);
            seq += 1;
        }
        Ok(t.elapsed() / REPS as u32)
    })?;
    out.push(("core.reliable.reply_cache_ns", reply_cache));

    let mut node = ServerNode::new(classes.registry.clone(), MachineSpec::fast());
    node.bind("echo", Box::new(FnService::new(gen::echo_inc)));
    let shared = SharedServer::from_node(node);
    let mut seq = 0u64;
    let classify = median_ns(samples, || {
        let frames: Vec<Frame> = (0..REPS as u64)
            .map(|i| tagged(seq + i, echo_request(Vec::new())))
            .collect();
        let mut steps = Vec::with_capacity(REPS);
        let t = Instant::now();
        for frame in frames {
            steps.push(reactor_classify(&shared, true, frame));
        }
        let dt = t.elapsed() / REPS as u32;
        // Finish what classify began, so the cache holds replies, not
        // an ever-growing set of calls "in progress".
        for i in 0..REPS as u64 {
            shared
                .replies
                .store(1 << 63 | 0x5eed, seq + i, &small_reply);
        }
        seq += REPS as u64;
        Ok(dt)
    })?;
    out.push(("core.reactor.classify_ns", classify));

    // --- poll(2) with an idle fleet registered ------------------------------
    let (ready, mut feeder) = UnixStream::pair().map_err(wire)?;
    feeder.write_all(&[1]).map_err(wire)?; // never read: `ready` stays readable
    let mut idle: Vec<(UnixStream, UnixStream)> = Vec::new();
    for (fleet, name) in [
        (0usize, "transport.poller_wait_idle0_us"),
        (IDLE_FLEET, "transport.poller_wait_idle1000_us"),
    ] {
        let mut poller = Poller::new().map_err(wire)?;
        poller.register(Token(0), ready.as_raw_fd(), Interest::READABLE);
        while idle.len() < fleet {
            idle.push(UnixStream::pair().map_err(wire)?);
        }
        for (i, (end, _)) in idle.iter().enumerate() {
            poller.register(Token(i + 1), end.as_raw_fd(), Interest::READABLE);
        }
        let mut events = Vec::with_capacity(8);
        let wait = median_ns(samples, || {
            let t = Instant::now();
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .map_err(wire)?;
            let dt = t.elapsed();
            if events.len() != 1 {
                return Err(format!(
                    "poller reported {} ready descriptors, expected 1",
                    events.len()
                ));
            }
            Ok(dt)
        })?;
        out.push((name, wait / 1e3));
    }
    drop(idle);

    // --- the raw floor: the same bytes with no NRMI on them -----------------
    for (name, request_len, reply_len) in [
        (
            "transport.raw_floor_rtt_small_us",
            4 + small.wire_size(),
            4 + small_reply.wire_size(),
        ),
        (
            "transport.raw_floor_rtt_8k_us",
            4 + big.wire_size(),
            4 + big_reply.wire_size(),
        ),
    ] {
        out.push((name, raw_floor(samples, request_len, reply_len)? / 1e3));
    }
    Ok(out)
}

/// Median round trip, in nanoseconds, of `request_len` bytes one way and
/// `reply_len` back over loopback TCP with `TCP_NODELAY`, between two
/// threads pinned to one CPU exactly as a pinned workload is.
fn raw_floor(samples: usize, request_len: usize, reply_len: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(wire)?;
    let addr = listener.local_addr().map_err(wire)?;
    // Both ends pin themselves, on threads of their own, so an unpinned
    // caller stays unpinned.
    let server = std::thread::spawn(move || -> Result<(), String> {
        sys::pin_to_one_cpu()?;
        let (mut stream, _) = listener.accept().map_err(wire)?;
        stream.set_nodelay(true).map_err(wire)?;
        let mut request = vec![0u8; request_len];
        let reply = vec![0x5a; reply_len];
        while stream.read_exact(&mut request).is_ok() {
            stream.write_all(&reply).map_err(wire)?;
        }
        Ok(())
    });
    let client = std::thread::spawn(move || -> Result<f64, String> {
        sys::pin_to_one_cpu()?;
        let mut stream = TcpStream::connect(addr).map_err(wire)?;
        stream.set_nodelay(true).map_err(wire)?;
        let request = vec![0xa5; request_len];
        let mut reply = vec![0u8; reply_len];
        let mut ping = || -> Result<Duration, String> {
            let t = Instant::now();
            stream.write_all(&request).map_err(wire)?;
            stream.read_exact(&mut reply).map_err(wire)?;
            Ok(t.elapsed())
        };
        for _ in 0..samples / 10 + 1 {
            ping()?;
        }
        median_ns(samples, ping)
    });
    let rtt = client
        .join()
        .map_err(|_| "raw floor client panicked".to_string())?;
    server
        .join()
        .map_err(|_| "raw floor server panicked".to_string())??;
    rtt
}
