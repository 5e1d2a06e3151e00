//! Every metric the benchmark prints: name, unit, direction and — for
//! end-to-end metrics — the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` at the repository root lists
//! the metrics with `contract: true`; a test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// The name later issues cite.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's value by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
    /// Listed in `BENCHMARK.json` and on a driver run's result line.
    /// The others appear only in the `all` document, because the
    /// benchmark contract cannot carry them: a ratio that is 0 whenever
    /// nothing fails, a resident-set reading that moves in steps of a
    /// fifth between identical runs, and times that exist on two
    /// workloads of six.
    pub contract: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        contract: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        contract: true,
    }
}

impl Def {
    /// The same metric, printed in the `all` document only.
    const fn document_only(self) -> Def {
        Def {
            contract: false,
            ..self
        }
    }
}

use Better::{Higher, Lower};

/// What a user of the middleware sees. Measured with tracing off.
pub const END_TO_END: &[Def] = &[
    // One bound per metric has to hold on every workload, and
    // `fleet_idle` moves by a tenth between identical runs on the 2-core
    // shared box this was sized on (README, "How steady").
    e2e("calls_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_call", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    layer("peak_rss_mb", "MB", Lower).document_only(),
    e2e("failed_ratio", "ratio", Lower, 0.0).document_only(),
];

/// What single layers do, from a traced run.
pub const PER_LAYER: &[Def] = &[
    // The client's partition of a sample; the four sum to client.latency_us.
    layer("client.latency_us", "us", Lower),
    layer("client.marshal_us", "us", Lower),
    layer("client.send_us", "us", Lower),
    layer("client.wait_us", "us", Lower),
    layer("client.apply_us", "us", Lower),
    // The server's side of the same sample.
    layer("server.busy_us", "us", Lower),
    layer("service.execute_us", "us", Lower),
    layer("server.middleware_us", "us", Lower),
    layer("server.send_us", "us", Lower),
    layer("transport.flight_us", "us", Lower),
    // The reactor's reads (0 on the thread-per-connection workloads).
    layer("core.reactor.reads_per_call", "count", Lower),
    layer("core.reactor.frames_per_read", "count", Higher),
    layer("core.reactor.empty_read_ratio", "ratio", Lower),
    layer("core.reactor.read_us", "us", Lower).document_only(),
    layer("core.reactor.flush_us", "us", Lower).document_only(),
    // Exact counts per call.
    layer("transport.frame_bytes_per_call", "bytes", Lower),
    layer("wire.payload_bytes_per_call", "bytes", Lower),
    layer("transport.write_syscalls_per_call", "count", Lower),
    layer("transport.read_syscalls_per_call", "count", Lower),
    layer("transport.bytes_copied_per_call", "bytes", Lower),
    layer("alloc.events_per_call", "count", Lower),
    layer("alloc.bytes_per_call", "bytes", Lower),
    layer("heap.client_reads_per_call", "count", Lower),
    layer("heap.client_writes_per_call", "count", Lower),
    layer("core.reliable.retries_per_kcall", "count", Lower),
    layer("core.warm.stale_patches_per_kcall", "count", Lower),
    layer("core.warm.reseeds_per_kcall", "count", Lower),
    layer("server.rss_growth_kb_per_kcall", "kB", Lower),
    // Layer microbenchmarks: one thread, the workloads' own graphs and frames.
    layer("heap.linear_map_ns_per_obj", "ns", Lower),
    layer("wire.encode_graph_ns_per_obj", "ns", Lower),
    layer("wire.decode_graph_ns_per_obj", "ns", Lower),
    layer("core.restore.apply_ns_per_obj", "ns", Lower),
    layer("wire.request_delta_encode_sparse_us", "us", Lower),
    layer("wire.request_delta_encode_dense_us", "us", Lower),
    layer("wire.request_delta_apply_sparse_us", "us", Lower),
    layer("wire.request_delta_apply_dense_us", "us", Lower),
    layer("transport.frame_encode_small_ns", "ns", Lower),
    layer("transport.frame_decode_small_ns", "ns", Lower),
    layer("transport.frame_encode_8k_us", "us", Lower),
    layer("transport.frame_decode_8k_us", "us", Lower),
    layer("core.reliable.reply_cache_ns", "ns", Lower),
    layer("core.reactor.classify_ns", "ns", Lower),
    layer("transport.poller_wait_idle0_us", "us", Lower),
    layer("transport.poller_wait_idle1000_us", "us", Lower),
    layer("transport.raw_floor_rtt_small_us", "us", Lower),
    layer("transport.raw_floor_rtt_8k_us", "us", Lower),
    layer("transport.overhead_over_floor", "ratio", Lower),
    // The traced pass against the untraced pass of the same invocation.
    layer("client.latency_p99_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];
