//! Delta-reply crossover analysis (§5.2.4, optimization 2).
//!
//! The paper predicts: with delta-encoded replies, "the cost of passing
//! an object by-copy-restore and not making any changes to it is almost
//! identical to the cost of passing it by-copy." This module quantifies
//! the whole spectrum, not just the no-change endpoint: it sweeps the
//! fraction of tree nodes the remote method mutates from 0% to 100% and
//! measures, for full-graph and delta replies, the reply bytes and the
//! simulated call time — locating the crossover where shipping the full
//! graph becomes cheaper than enumerating the changes.

use nrmi_core::{
    CallOptions, FnService, JdkGeneration, NrmiError, NrmiFlavor, PassMode, RuntimeProfile, Session,
};
use nrmi_heap::{HeapAccess, Value};
use nrmi_transport::{LinkSpec, MachineSpec, SimEnv};

use crate::tables::SEED;
use crate::workload::{bench_classes, build_workload, walk_tree, Scenario};

/// One sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaPoint {
    /// Fraction of nodes mutated (0.0–1.0).
    pub change_fraction: f64,
    /// Full-graph reply: payload bytes.
    pub full_bytes: usize,
    /// Delta reply: payload bytes.
    pub delta_bytes: usize,
    /// Full-graph reply: simulated ms per call.
    pub full_ms: f64,
    /// Delta reply: simulated ms per call.
    pub delta_ms: f64,
}

/// The change fractions swept.
pub const FRACTIONS: [f64; 6] = [0.0, 0.05, 0.25, 0.5, 0.75, 1.0];

/// Shorthand for the closure-backed services this module builds.
type TouchService = FnService<
    Box<dyn FnMut(&str, &[Value], &mut dyn HeapAccess) -> Result<Value, NrmiError> + Send>,
>;

fn touch_service(fraction: f64) -> TouchService {
    FnService::new(Box::new(
        move |_m: &str, args: &[Value], heap: &mut dyn HeapAccess| {
            let root = args[0].as_ref_id().ok_or_else(|| NrmiError::app("tree"))?;
            let nodes = walk_tree(heap, root)?;
            let touch = ((nodes.len() as f64) * fraction).round() as usize;
            for &node in nodes.iter().take(touch) {
                let v = heap.get_field(node, "data")?.as_int().unwrap_or(0);
                heap.set_field(node, "data", Value::Int(v ^ 0x55))?;
            }
            Ok(Value::Int(touch as i32))
        },
    ))
}

fn measure(size: usize, fraction: f64, delta: bool) -> (usize, f64) {
    let classes = bench_classes();
    let env = SimEnv::new();
    let mut session = Session::builder(classes.registry.clone())
        .serve("touch", Box::new(touch_service(fraction)))
        .simulated(
            env.clone(),
            LinkSpec::lan_100mbps(),
            MachineSpec::slow(),
            MachineSpec::fast(),
            RuntimeProfile {
                jdk: JdkGeneration::Jdk14,
                flavor: NrmiFlavor::Optimized,
            },
        )
        .build();
    let w = build_workload(session.heap(), &classes, Scenario::I, size, SEED).expect("workload");
    let opts = if delta {
        CallOptions::copy_restore_delta()
    } else {
        CallOptions::forced(PassMode::CopyRestore)
    };
    let (_, stats) = session
        .call_with_stats("touch", "touch", &[Value::Ref(w.root)], opts)
        .expect("call");
    session.shutdown().expect("shutdown");
    (stats.reply_bytes, env.report().total_ms())
}

/// Sweeps the change fraction for trees of `size` nodes.
pub fn run_delta_sweep(size: usize) -> Vec<DeltaPoint> {
    FRACTIONS
        .iter()
        .map(|&fraction| {
            let (full_bytes, full_ms) = measure(size, fraction, false);
            let (delta_bytes, delta_ms) = measure(size, fraction, true);
            DeltaPoint {
                change_fraction: fraction,
                full_bytes,
                delta_bytes,
                full_ms,
                delta_ms,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render_delta_sweep(size: usize, points: &[DeltaPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Delta-reply crossover — {size}-node tree, copy-restore call, JDK 1.4 optimized"
    );
    let _ = writeln!(
        out,
        "(§5.2.4 #2: an unchanged restorable argument should cost ≈ call-by-copy)\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "changed", "full bytes", "delta bytes", "full ms", "delta ms", "winner"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8.0}% {:>12} {:>12} {:>10.1} {:>10.1} {:>8}",
            p.change_fraction * 100.0,
            p.full_bytes,
            p.delta_bytes,
            p.full_ms,
            p.delta_ms,
            if p.delta_ms <= p.full_ms {
                "delta"
            } else {
                "full"
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_change_delta_is_near_one_way_cost() {
        let points = run_delta_sweep(256);
        let p0 = points[0];
        assert_eq!(p0.change_fraction, 0.0);
        // Paper's claim: unchanged copy-restore ≈ copy. The delta reply
        // is tiny, so the delta call cost must be well under the full
        // reply cost — most of the two-way traffic vanished.
        assert!(
            p0.delta_bytes < 64,
            "no-change delta: {} bytes",
            p0.delta_bytes
        );
        assert!(
            p0.full_bytes > 2_000,
            "full reply ships the graph: {}",
            p0.full_bytes
        );
        assert!(p0.delta_ms < p0.full_ms * 0.75, "{p0:?}");
    }

    #[test]
    fn delta_bytes_grow_with_change_fraction() {
        let points = run_delta_sweep(128);
        for pair in points.windows(2) {
            assert!(
                pair[1].delta_bytes >= pair[0].delta_bytes,
                "delta size must grow with churn: {pair:?}"
            );
        }
        // Full replies are insensitive to the change fraction.
        let full_sizes: Vec<usize> = points.iter().map(|p| p.full_bytes).collect();
        let spread = full_sizes.iter().max().unwrap() - full_sizes.iter().min().unwrap();
        assert!(
            spread * 20 < *full_sizes.iter().max().unwrap(),
            "full reply size should be ~constant: {full_sizes:?}"
        );
    }

    #[test]
    fn delta_always_at_least_competitive_for_data_mutations() {
        // For pure data mutations the delta never ships MORE than the
        // full graph plus small framing — even at 100% churn the delta
        // omits unchanged reference slots only... verify it stays within
        // 40% of the full reply at worst.
        let points = run_delta_sweep(128);
        let last = points.last().unwrap();
        assert!(
            last.delta_bytes as f64 <= last.full_bytes as f64 * 1.4,
            "{last:?}"
        );
    }
}
