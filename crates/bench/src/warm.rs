//! Warm-call ablation (§5.2.4, optimization 2, extended to *requests*).
//!
//! The delta-reply sweep ([`crate::delta_sweep`]) showed that replies
//! need not re-ship unchanged graphs. Warm calls close the other half of
//! the loop: once a client has seeded a session cache, later requests
//! ship only the dirty slots, new objects, and frees since the previous
//! call. This module measures that ablation directly — the same
//! `k`-call workload run cold (full copy-restore request each call,
//! today's protocol) and warm (seed once, then request deltas) — while
//! sweeping the per-call mutation rate δ (fraction of tree nodes the
//! *client* dirties between calls).
//!
//! Expected shape: at δ = 0 a warm request is O(1) bytes; at small δ it
//! is proportional to the churn, not the graph; as δ → 1 the delta
//! approaches (and framing-wise can exceed) the full request, which is
//! exactly the eviction threshold a deployment would tune.

use std::time::Instant;

use nrmi_core::{CallOptions, FnService, NrmiError, RemoteService, Session};
use nrmi_heap::{HeapAccess, Value};

use crate::tables::SEED;
use crate::workload::{bench_classes, build_workload, walk_tree, Scenario};

/// Aggregate transfer/latency numbers for one (δ, mode) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmPoint {
    /// Fraction of nodes the client mutates between calls (0.0–1.0).
    pub mutation_rate: f64,
    /// Bytes of the first request (cold: full graph; warm: the seed).
    pub first_request_bytes: usize,
    /// Request bytes summed over the k−1 *steady-state* calls.
    pub steady_request_bytes: usize,
    /// Reply bytes summed over all k calls.
    pub reply_bytes: usize,
    /// Wall-clock microseconds over the k−1 steady-state calls.
    pub steady_us: u128,
}

/// One δ row: the cold and warm measurements side by side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmRow {
    /// Cold: every call is a full copy-restore request.
    pub cold: WarmPoint,
    /// Warm: call 0 seeds the session cache, calls 1..k ship deltas.
    pub warm: WarmPoint,
}

/// The mutation rates swept.
pub const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.5];

/// Calls per measurement (1 seed + k−1 steady-state).
pub const CALLS: usize = 8;

/// A read-only service: replies stay tiny in both modes, so the request
/// path dominates and the ablation isolates what warm calls change.
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

/// Measures k calls at client mutation rate δ.
///
/// Between calls the client dirties `round(n·δ)` nodes, rotating the
/// window each call so the dirty set is not pinned to one hot region.
fn measure(size: usize, rate: f64, warm: bool) -> WarmPoint {
    let classes = bench_classes();
    let mut session = Session::builder(classes.registry.clone())
        .serve("sum", sum_service())
        .build();
    let w = build_workload(session.heap(), &classes, Scenario::I, size, SEED).expect("workload");
    let nodes = walk_tree(session.heap(), w.root).expect("walk");
    let touch = ((nodes.len() as f64) * rate).round() as usize;
    let opts = CallOptions::copy_restore_delta();

    let mut point = WarmPoint {
        mutation_rate: rate,
        first_request_bytes: 0,
        steady_request_bytes: 0,
        reply_bytes: 0,
        steady_us: 0,
    };
    for call in 0..CALLS {
        let started = Instant::now();
        let stats = if warm {
            session
                .call_warm_with_stats("sum", "sum", &[Value::Ref(w.root)])
                .expect("warm")
                .1
        } else {
            session
                .call_with_stats("sum", "sum", &[Value::Ref(w.root)], opts)
                .expect("cold")
                .1
        };
        let elapsed = started.elapsed().as_micros();
        point.reply_bytes += stats.reply_bytes;
        if call == 0 {
            point.first_request_bytes = stats.request_bytes;
        } else {
            point.steady_request_bytes += stats.request_bytes;
            point.steady_us += elapsed;
        }
        // Client-side churn before the next call.
        for i in 0..touch {
            let node = nodes[(call * touch + i) % nodes.len()];
            let v = session
                .heap()
                .get_field(node, "data")
                .expect("get")
                .as_int()
                .unwrap_or(0);
            session
                .heap()
                .set_field(node, "data", Value::Int(v ^ 0x2a))
                .expect("set");
        }
    }
    point
}

/// Runs the full ablation: each δ in [`RATES`], cold vs warm, on a
/// `size`-node tree.
pub fn run_warm_ablation(size: usize) -> Vec<WarmRow> {
    RATES
        .iter()
        .map(|&rate| WarmRow {
            cold: measure(size, rate, false),
            warm: measure(size, rate, true),
        })
        .collect()
}

/// Renders the ablation as an aligned table.
pub fn render_warm_ablation(size: usize, rows: &[WarmRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Warm-call ablation — {size}-node tree, {CALLS} calls (1 seed + {} steady)",
        CALLS - 1
    );
    let _ = writeln!(
        out,
        "(request bytes: cold re-ships the graph, warm ships the delta)\n"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>8} {:>11} {:>11}",
        "δ", "cold req B", "warm req B", "ratio", "cold µs", "warm µs"
    );
    for row in rows {
        let ratio = if row.warm.steady_request_bytes == 0 {
            f64::INFINITY
        } else {
            row.cold.steady_request_bytes as f64 / row.warm.steady_request_bytes as f64
        };
        let _ = writeln!(
            out,
            "{:>5.0}% {:>12} {:>12} {:>7.1}x {:>11} {:>11}",
            row.cold.mutation_rate * 100.0,
            row.cold.steady_request_bytes,
            row.warm.steady_request_bytes,
            ratio,
            row.cold.steady_us,
            row.warm.steady_us,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_request_is_byte_identical_to_cold() {
        // The warm seed must marshal exactly what today's cold protocol
        // marshals — byte-for-byte, so a cache miss costs nothing extra.
        for row in run_warm_ablation(256) {
            assert_eq!(
                row.warm.first_request_bytes, row.cold.first_request_bytes,
                "δ={}: seed differs from cold request",
                row.cold.mutation_rate
            );
        }
    }

    #[test]
    fn low_churn_warm_requests_are_much_smaller() {
        let rows = run_warm_ablation(1024);
        for row in &rows {
            if row.cold.mutation_rate <= 0.1 {
                assert!(
                    row.warm.steady_request_bytes * 5 < row.cold.steady_request_bytes,
                    "δ={}: warm {} B vs cold {} B",
                    row.cold.mutation_rate,
                    row.warm.steady_request_bytes,
                    row.cold.steady_request_bytes
                );
            }
        }
        // And an untouched graph ships almost nothing per call.
        let clean = &rows[0];
        assert!(
            clean.warm.steady_request_bytes < 48 * (CALLS - 1),
            "δ=0 steady requests: {} bytes",
            clean.warm.steady_request_bytes
        );
    }

    #[test]
    fn warm_request_bytes_grow_with_churn() {
        let rows = run_warm_ablation(512);
        for pair in rows.windows(2) {
            assert!(
                pair[1].warm.steady_request_bytes >= pair[0].warm.steady_request_bytes,
                "delta size must grow with churn: {pair:?}"
            );
        }
    }
}
