//! Hot-path allocation ablation: allocator traffic per call, before and
//! after the zero-copy pipeline work.
//!
//! §5.2.4 of the paper argues NRMI's marshalling traversal can run "at
//! cost comparable to plain call-by-copy"; that only holds if the
//! steady-state call path stops re-allocating its working set on every
//! invocation. This ablation drives the same read-only workload as
//! [`crate::warm`] (a seeded binary tree passed to a summing service)
//! through the cold protocol and the warm (request-delta) protocol, and
//! — with [`crate::alloc_count::CountingAlloc`] installed — reports
//! *allocation events per call* and *bytes through the allocator per
//! call* for each.
//!
//! The numbers in [`BASELINE`] were captured at the commit immediately
//! before the dense-position-map / pooled-codec / buffer-reuse work, with
//! the identical harness; `tables -- hotpath` re-measures the current
//! tree and emits `BENCH_hotpath.json` with both, so the perf trajectory
//! stays machine-readable from this PR onward.
//!
//! A second axis meters the **wire copy path** over real TCP: payload
//! bytes memmoved into contiguous frame bodies per call
//! ([`nrmi_transport::bytes_copied`]) and wire syscalls per call, for
//! the per-call-write wire vs the batched scatter-gather wire. The
//! vectored encode references payloads in place, so batching must drive
//! bytes-copied-per-call to (near) zero — [`hotpath_violations`] gates
//! on it, alongside the warm allocation budget.

use std::sync::atomic::Ordering::Relaxed;
use std::thread;
use std::time::Instant;

use nrmi_core::{
    serve_connection_pooled, CallOptions, FnService, NrmiError, ReliableTransport, RemoteService,
    RemoteSession, ServerNode, Session, SharedServer,
};
use nrmi_heap::{HeapAccess, Value};
use nrmi_transport::{MachineSpec, Transport};

use crate::alloc_count;
use crate::per_write::{tcp_loopback_pair, PerWriteTcp};
use crate::tables::SEED;
use crate::workload::{bench_classes, build_workload, walk_tree, Scenario};

/// Tree size the ablation runs on (the paper's largest benchmark size).
pub const SIZE: usize = 1024;

/// Measured calls per mode (after warmup; averages are per call).
pub const CALLS: usize = 32;

/// Warmup calls before counters are sampled (fills buffer pools, session
/// caches, and the warm seed, so the measurement sees steady state).
pub const WARMUP: usize = 4;

/// Per-call averages for one protocol mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotpathPoint {
    /// Allocation events (alloc/realloc) per call, both ends combined.
    pub allocs_per_call: u64,
    /// Bytes requested from the allocator per call.
    pub alloc_bytes_per_call: u64,
    /// Request payload bytes per call.
    pub request_bytes_per_call: u64,
    /// Wall-clock nanoseconds per call (indicative, single run).
    pub ns_per_call: u64,
}

/// The ablation result: cold calls vs steady-state warm calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotpathReport {
    /// Tree size measured.
    pub size: usize,
    /// Calls averaged over.
    pub calls: usize,
    /// Full copy-restore call (graph re-marshalled every call).
    pub cold: HotpathPoint,
    /// Steady-state warm call, δ = 0 (cache seeded, nothing dirty).
    pub warm_steady: HotpathPoint,
}

/// Wire-copy metering for one call mode on one wire (both ends in one
/// process, so the counters see client and server traffic combined).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirePoint {
    /// Payload bytes memmoved into contiguous frame bodies per call.
    /// The vectored path references payloads in place and copies none.
    pub bytes_copied_per_call: u64,
    /// `write`/`writev` syscalls per call (request + reply, both ends).
    pub write_syscalls_per_call: f64,
    /// `read` syscalls per call.
    pub read_syscalls_per_call: f64,
}

/// The wire-copy ablation over real TCP: cold and steady-warm calls,
/// each measured on the per-write baseline (a contiguous encode and its
/// own `write` per frame) and on the production wire (vectored
/// scatter-gather trains).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireReport {
    /// Tree size measured.
    pub size: usize,
    /// Calls averaged over per cell.
    pub calls: usize,
    /// Cold copy-restore calls, per-frame-write wire.
    pub cold_per_write: WirePoint,
    /// Cold copy-restore calls, batched wire.
    pub cold_batched: WirePoint,
    /// Steady warm calls, per-frame-write wire.
    pub warm_per_write: WirePoint,
    /// Steady warm calls, batched wire.
    pub warm_batched: WirePoint,
}

/// Warm steady-state allocation budget: [`hotpath_violations`] fails
/// when allocator events per warm call exceed this. The budget is the
/// measured pooled-codec / buffer-reuse floor with no headroom: the
/// count is deterministic for this workload, so one allocation added
/// per call fails the gate.
pub const WARM_ALLOCS_MAX: u64 = 55;

/// Ceiling on payload bytes memmoved per call by the *batched* wire —
/// the scatter-gather encode references request and reply payloads in
/// place, so anything beyond stray control-frame bytes means contiguous
/// coalescing crept back into the send path.
pub const WIRE_BYTES_COPIED_MAX: u64 = 512;

/// Allocator traffic at the pre-optimization commit (same harness, same
/// workload, `CountingAlloc` installed). Timing fields are indicative
/// only; the alloc counts are deterministic for this workload.
pub const BASELINE: HotpathReport = HotpathReport {
    size: SIZE,
    calls: CALLS,
    cold: HotpathPoint {
        allocs_per_call: 6625,
        alloc_bytes_per_call: 897_103,
        request_bytes_per_call: 8125,
        ns_per_call: 957_789,
    },
    warm_steady: HotpathPoint {
        allocs_per_call: 2145,
        alloc_bytes_per_call: 343_820,
        request_bytes_per_call: 12,
        ns_per_call: 407_114,
    },
};

/// The read-only summing service (replies stay tiny, so request-side
/// marshalling dominates — the path this PR optimizes).
fn sum_service() -> Box<dyn RemoteService> {
    Box::new(FnService::new(
        |_m, args: &[Value], heap: &mut dyn HeapAccess| {
            let root = args[0]
                .as_ref_id()
                .ok_or_else(|| NrmiError::app("want tree"))?;
            let mut sum = 0i64;
            for node in walk_tree(heap, root)? {
                sum += i64::from(heap.get_field(node, "data")?.as_int().unwrap_or(0));
            }
            Ok(Value::Int(sum as i32))
        },
    ))
}

fn measure(size: usize, warm: bool) -> HotpathPoint {
    let classes = bench_classes();
    let mut session = Session::builder(classes.registry.clone())
        .serve("sum", sum_service())
        .build();
    let w = build_workload(session.heap(), &classes, Scenario::I, size, SEED).expect("workload");
    let args = [Value::Ref(w.root)];
    let opts = CallOptions::copy_restore_delta();
    let call = |session: &mut Session| -> usize {
        let stats = if warm {
            session
                .call_warm_with_stats("sum", "sum", &args)
                .expect("warm call")
                .1
        } else {
            session
                .call_with_stats("sum", "sum", &args, opts)
                .expect("cold call")
                .1
        };
        stats.request_bytes
    };
    for _ in 0..WARMUP {
        call(&mut session);
    }
    let (a0, b0) = alloc_count::counters();
    let started = Instant::now();
    let mut request_bytes = 0usize;
    for _ in 0..CALLS {
        request_bytes += call(&mut session);
    }
    let elapsed = started.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc_count::counters();
    let n = CALLS as u64;
    HotpathPoint {
        allocs_per_call: (a1 - a0) / n,
        alloc_bytes_per_call: (b1 - b0) / n,
        request_bytes_per_call: request_bytes as u64 / n,
        ns_per_call: elapsed / n,
    }
}

/// Runs the ablation on a `size`-node tree (both ends in-process; the
/// counters see client and server traffic combined, which is what a
/// deployment pays).
pub fn run_hotpath(size: usize) -> HotpathReport {
    HotpathReport {
        size,
        calls: CALLS,
        cold: measure(size, false),
        warm_steady: measure(size, true),
    }
}

/// One wire-copy cell: the hotpath workload over the connected pair
/// `(client, server)`, with `meter` snapshotting (copied payload bytes,
/// writes, reads) for whichever wire the pair speaks.
fn measure_wire<T: Transport + 'static>(
    size: usize,
    warm: bool,
    (client, mut server_conn): (T, T),
    meter: impl Fn() -> [u64; 3],
) -> WirePoint {
    let classes = bench_classes();
    let mut server = ServerNode::new(classes.registry.clone(), MachineSpec::fast());
    server.bind("sum", sum_service());
    let shared = SharedServer::from_node(server);
    let server_thread = thread::spawn(move || {
        let _ = serve_connection_pooled(&shared, &mut server_conn);
    });

    let mut session = RemoteSession::over(
        classes.registry.clone(),
        ReliableTransport::new(client, nrmi_core::RetryPolicy::default()),
    );
    let w = build_workload(session.heap(), &classes, Scenario::I, size, SEED).expect("workload");
    let args = [Value::Ref(w.root)];
    let opts = CallOptions::copy_restore_delta();
    let call = |session: &mut RemoteSession<_>| {
        if warm {
            session.call_warm("sum", "sum", &args).expect("warm call");
        } else {
            session
                .call_with("sum", "sum", &args, opts)
                .expect("cold call");
        }
    };

    for _ in 0..WARMUP {
        call(&mut session);
    }
    let before = meter();
    for _ in 0..CALLS {
        call(&mut session);
    }
    let [copied, writes, reads] = {
        let after = meter();
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    let _ = session.close();
    server_thread.join().expect("server thread");

    let n = CALLS as u64;
    WirePoint {
        bytes_copied_per_call: copied / n,
        write_syscalls_per_call: writes as f64 / n as f64,
        read_syscalls_per_call: reads as f64 / n as f64,
    }
}

/// Runs the wire-copy ablation on a `size`-node tree over loopback TCP:
/// the production wire read off the transport crate's process-wide
/// meters, the [`PerWriteTcp`] baseline off its own.
pub fn run_wire(size: usize) -> WireReport {
    let per_write = |warm: bool| {
        let (pair, counts) = PerWriteTcp::loopback_pair();
        measure_wire(size, warm, pair, move || {
            [&counts.copied, &counts.writes, &counts.reads].map(|c| c.load(Relaxed))
        })
    };
    let batched = |warm: bool| {
        measure_wire(size, warm, tcp_loopback_pair(), || {
            let (writes, reads) = nrmi_transport::wire_syscalls();
            [nrmi_transport::bytes_copied(), writes, reads]
        })
    };
    WireReport {
        size,
        calls: CALLS,
        cold_per_write: per_write(false),
        cold_batched: batched(false),
        warm_per_write: per_write(true),
        warm_batched: batched(true),
    }
}

/// Gate predicate for `tables -- hotpath`: empty means healthy.
///
/// * Steady warm calls must stay within [`WARM_ALLOCS_MAX`] allocator
///   events (checked only when the counting allocator is installed —
///   unit tests without it would read zero and pass vacuously).
/// * The batched wire must copy no more payload bytes than the
///   per-write wire, cold and warm.
/// * The batched wire's copied bytes must stay under
///   [`WIRE_BYTES_COPIED_MAX`] — the absolute regression tripwire for
///   the scatter-gather encode.
pub fn hotpath_violations(after: &HotpathReport, wire: &WireReport) -> Vec<String> {
    let mut violations = Vec::new();
    if alloc_count::is_active() && after.warm_steady.allocs_per_call > WARM_ALLOCS_MAX {
        violations.push(format!(
            "warm steady-state call allocates {} times (budget {WARM_ALLOCS_MAX})",
            after.warm_steady.allocs_per_call
        ));
    }
    for (mode, per_write, batched) in [
        ("cold", &wire.cold_per_write, &wire.cold_batched),
        ("warm", &wire.warm_per_write, &wire.warm_batched),
    ] {
        if batched.bytes_copied_per_call > per_write.bytes_copied_per_call {
            violations.push(format!(
                "{mode} batched wire copies {} bytes/call, more than the per-write wire's {}",
                batched.bytes_copied_per_call, per_write.bytes_copied_per_call
            ));
        }
        if batched.bytes_copied_per_call > WIRE_BYTES_COPIED_MAX {
            violations.push(format!(
                "{mode} batched wire copies {} bytes/call (ceiling {WIRE_BYTES_COPIED_MAX}): \
                 contiguous coalescing is back in the send path",
                batched.bytes_copied_per_call
            ));
        }
    }
    violations
}

fn ratio(before: u64, after: u64) -> f64 {
    if after == 0 {
        f64::INFINITY
    } else {
        before as f64 / after as f64
    }
}

/// Renders the before/after comparison as an aligned table.
pub fn render_hotpath(before: &HotpathReport, after: &HotpathReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Hot-path allocation ablation — {}-node tree, {} calls/mode",
        after.size, after.calls
    );
    if !alloc_count::is_active() {
        let _ = writeln!(
            out,
            "(WARNING: counting allocator not installed — alloc columns are zero)"
        );
    }
    let _ = writeln!(
        out,
        "\n{:<28} {:>12} {:>12} {:>8}",
        "metric", "before", "after", "ratio"
    );
    let rows: [(&str, u64, u64); 6] = [
        (
            "cold allocs/call",
            before.cold.allocs_per_call,
            after.cold.allocs_per_call,
        ),
        (
            "cold alloc bytes/call",
            before.cold.alloc_bytes_per_call,
            after.cold.alloc_bytes_per_call,
        ),
        (
            "cold ns/call",
            before.cold.ns_per_call,
            after.cold.ns_per_call,
        ),
        (
            "warm allocs/call",
            before.warm_steady.allocs_per_call,
            after.warm_steady.allocs_per_call,
        ),
        (
            "warm alloc bytes/call",
            before.warm_steady.alloc_bytes_per_call,
            after.warm_steady.alloc_bytes_per_call,
        ),
        (
            "warm ns/call",
            before.warm_steady.ns_per_call,
            after.warm_steady.ns_per_call,
        ),
    ];
    for (name, b, a) in rows {
        let _ = writeln!(out, "{name:<28} {b:>12} {a:>12} {:>7.1}x", ratio(b, a));
    }
    out
}

/// Renders the wire-copy ablation as an aligned table.
pub fn render_wire(wire: &WireReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Wire copy ablation — {}-node tree over loopback TCP, {} calls/cell",
        wire.size, wire.calls
    );
    let _ = writeln!(
        out,
        "\n{:<24} {:>16} {:>12} {:>12}",
        "mode", "copied bytes/call", "writes/call", "reads/call"
    );
    let rows: [(&str, &WirePoint); 4] = [
        ("cold, write-per-frame", &wire.cold_per_write),
        ("cold, batched", &wire.cold_batched),
        ("warm, write-per-frame", &wire.warm_per_write),
        ("warm, batched", &wire.warm_batched),
    ];
    for (name, p) in rows {
        let _ = writeln!(
            out,
            "{name:<24} {:>16} {:>12.2} {:>12.2}",
            p.bytes_copied_per_call, p.write_syscalls_per_call, p.read_syscalls_per_call
        );
    }
    out
}

fn wire_point_json(p: &WirePoint) -> String {
    format!(
        "{{\"bytes_copied_per_call\": {}, \"write_syscalls_per_call\": {:.3}, \"read_syscalls_per_call\": {:.3}}}",
        p.bytes_copied_per_call, p.write_syscalls_per_call, p.read_syscalls_per_call
    )
}

fn wire_json(w: &WireReport) -> String {
    format!(
        "{{\"size\": {}, \"calls\": {}, \"cold_per_write\": {}, \"cold_batched\": {}, \"warm_per_write\": {}, \"warm_batched\": {}}}",
        w.size,
        w.calls,
        wire_point_json(&w.cold_per_write),
        wire_point_json(&w.cold_batched),
        wire_point_json(&w.warm_per_write),
        wire_point_json(&w.warm_batched)
    )
}

fn point_json(p: &HotpathPoint) -> String {
    format!(
        "{{\"allocs_per_call\": {}, \"alloc_bytes_per_call\": {}, \"request_bytes_per_call\": {}, \"ns_per_call\": {}}}",
        p.allocs_per_call, p.alloc_bytes_per_call, p.request_bytes_per_call, p.ns_per_call
    )
}

fn report_json(r: &HotpathReport) -> String {
    format!(
        "{{\"size\": {}, \"calls\": {}, \"cold\": {}, \"warm_steady\": {}}}",
        r.size,
        r.calls,
        point_json(&r.cold),
        point_json(&r.warm_steady)
    )
}

/// Serializes the before/after pair plus the wire-copy ablation as the
/// `BENCH_hotpath.json` document. The `wire` section's per-write vs
/// batched rows record what the scatter-gather encode saves: copied
/// payload bytes per call and wire syscalls per call, cold and warm.
pub fn to_json(before: &HotpathReport, after: &HotpathReport, wire: &WireReport) -> String {
    format!(
        "{{\n  \"workload\": \"scenario I tree, read-only sum service, delta replies\",\n  \"before\": {},\n  \"after\": {},\n  \"wire\": {},\n  \"wire_notes\": \"loopback TCP, both ends in one process; bytes_copied_per_call = payload bytes memmoved into contiguous frame bodies (the copy the scatter-gather encode eliminates); per_write = the bench-side PerWriteTcp baseline (a write and a contiguous encode per frame), batched = the production wire (vectored frame trains); read_syscalls_per_call counts reads of the socket: the batched wire answers the server's zero-deadline probe for a second request from its read-ahead, the per-write wire with a non-blocking peek, which counts\"\n}}\n",
        report_json(before),
        report_json(after),
        wire_json(wire)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_runs_and_reports_bytes() {
        // Unit tests run without the counting allocator installed, so
        // only the byte/timing columns are meaningful here.
        let report = run_hotpath(64);
        assert!(report.cold.request_bytes_per_call > 0);
        assert!(
            report.warm_steady.request_bytes_per_call < report.cold.request_bytes_per_call,
            "steady warm requests must be smaller than cold requests"
        );
    }

    fn wire_point(copied: u64) -> WirePoint {
        WirePoint {
            bytes_copied_per_call: copied,
            write_syscalls_per_call: 1.0,
            read_syscalls_per_call: 2.0,
        }
    }

    #[test]
    fn wire_ablation_measures_the_copy_savings() {
        let wire = run_wire(64);
        assert!(
            wire.cold_per_write.bytes_copied_per_call > 0,
            "the contiguous encode must meter its payload copies"
        );
        assert!(
            wire.cold_batched.bytes_copied_per_call <= WIRE_BYTES_COPIED_MAX,
            "the vectored encode must reference payloads in place, copied {} bytes/call",
            wire.cold_batched.bytes_copied_per_call
        );
        assert!(
            hotpath_violations(&run_hotpath(64), &wire).is_empty(),
            "healthy measurement must pass its own gate"
        );
    }

    #[test]
    fn json_has_all_three_sections() {
        let report = run_hotpath(64);
        let wire = WireReport {
            size: 64,
            calls: CALLS,
            cold_per_write: wire_point(4096),
            cold_batched: wire_point(0),
            warm_per_write: wire_point(64),
            warm_batched: wire_point(0),
        };
        let json = to_json(&BASELINE, &report, &wire);
        assert!(json.contains("\"after\""), "json has the after section");
        assert!(
            json.contains("\"wire\"") && json.contains("\"cold_batched\""),
            "json has the wire section"
        );
    }

    #[test]
    fn violation_fires_when_coalescing_returns() {
        let healthy = WireReport {
            size: SIZE,
            calls: CALLS,
            cold_per_write: wire_point(8192),
            cold_batched: wire_point(0),
            warm_per_write: wire_point(64),
            warm_batched: wire_point(0),
        };
        let mut after = BASELINE;
        after.warm_steady.allocs_per_call = 10;
        assert!(hotpath_violations(&after, &healthy).is_empty());
        let mut regressed = healthy;
        regressed.cold_batched = wire_point(8192);
        let violations = hotpath_violations(&after, &regressed);
        assert!(
            violations.iter().any(|v| v.contains("ceiling")),
            "coalescing regression must trip the byte ceiling: {violations:?}"
        );
    }
}
