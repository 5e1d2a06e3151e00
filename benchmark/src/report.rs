//! From what the rounds measured to the metrics a run prints.

use crate::analysis::Layers;
use crate::json::{obj, Json};
use crate::metrics;
use crate::stats::{median, quartile_spread};
use crate::workloads::{Outcome, Round};

/// Named values, in the units [`metrics`] declares.
pub type Values = Vec<(&'static str, f64)>;

/// The end-to-end metrics of an untraced run, plus what `all` and
/// `compare` want to know about how steady the rounds were.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Every [`metrics::END_TO_END`] metric: the median over rounds.
    pub values: Values,
    /// Per metric: interquartile range over median across the rounds.
    pub spreads: Values,
    /// Calls attempted in timed rounds.
    pub attempted: u64,
    /// Of those, calls with a wrong result (oracle mismatches included).
    pub failed: u64,
    /// `calls_per_s` of each round, in order.
    pub calls_per_s_by_round: Vec<f64>,
    /// Median `calls_per_s` of the last third of the rounds over that of
    /// the first third, minus one: the run is stationary when this is small.
    pub drift: f64,
    /// Latency samples behind each round's percentiles.
    pub samples_per_round: usize,
    /// Growth of the resident set over the timed rounds, kilobytes.
    pub rss_growth_kb: i64,
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Reduces an untraced run. `peak_rss_kb` is the process's `VmHWM` now.
pub fn end_to_end(outcome: &Outcome, peak_rss_kb: u64) -> EndToEnd {
    let rounds = &outcome.rounds;
    let calls_per_s = per_round(rounds, |r| r.calls as f64 / r.wall_s);
    let series: [(&'static str, Vec<f64>); 5] = [
        ("calls_per_s", calls_per_s.clone()),
        ("latency_p50_us", per_round(rounds, |r| r.p50_us)),
        ("latency_p99_us", per_round(rounds, |r| r.p99_us)),
        (
            "cpu_us_per_call",
            per_round(rounds, |r| r.cpu_s * 1e6 / r.calls as f64),
        ),
        ("setup_s", outcome.setups_s.clone()),
    ];
    let attempted: u64 = rounds.iter().map(|r| r.calls).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut values: Values = series.iter().map(|(n, v)| (*n, median(v))).collect();
    let mut spreads: Values = series
        .iter()
        .map(|(n, v)| (*n, quartile_spread(v).unwrap_or(0.0)))
        .collect();
    values.push(("peak_rss_mb", peak_rss_kb as f64 / 1024.0));
    values.push(("failed_ratio", failed as f64 / attempted as f64));
    spreads.push(("peak_rss_mb", 0.0));
    spreads.push(("failed_ratio", 0.0));
    let third = (calls_per_s.len() / 3).max(1);
    let drift =
        median(&calls_per_s[calls_per_s.len() - third..]) / median(&calls_per_s[..third]) - 1.0;
    EndToEnd {
        values,
        spreads,
        attempted,
        failed,
        calls_per_s_by_round: calls_per_s,
        drift,
        samples_per_round: rounds.first().map_or(0, |r| r.samples),
        rss_growth_kb: rounds.iter().map(|r| r.counters.rss_growth_kb).sum(),
    }
}

/// Looks `name` up in `values`.
///
/// # Panics
/// When it is missing: every producer fills every metric it declares.
pub fn value(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} was not produced"))
}

/// Assembles the per-layer metrics of a traced invocation from its three
/// sources: the event join, the counters of the traced rounds, and the
/// microbenchmarks — plus the untraced pass it is compared with.
pub fn per_layer(layers: &Layers, traced: &Outcome, untraced: &EndToEnd, micro: Values) -> Values {
    let calls: u64 = traced.rounds.iter().map(|r| r.calls).sum();
    let per_call = |total: u64| total as f64 / calls as f64;
    let per_kcall = |total: f64| total * 1e3 / calls as f64;
    let sum = |f: fn(&Round) -> u64| traced.rounds.iter().map(f).sum::<u64>();
    let traced_calls_per_s = median(&per_round(&traced.rounds, |r| r.calls as f64 / r.wall_s));
    let floor = value(&micro, "transport.raw_floor_rtt_small_us");

    let mut v: Values = vec![
        ("client.latency_us", layers.latency_us),
        ("client.marshal_us", layers.marshal_us),
        ("client.send_us", layers.send_us),
        ("client.wait_us", layers.wait_us),
        ("client.apply_us", layers.apply_us),
        ("server.busy_us", layers.server_busy_us),
        ("service.execute_us", layers.execute_us),
        (
            "server.middleware_us",
            layers.server_busy_us - layers.execute_us,
        ),
        ("server.send_us", layers.server_send_us),
        ("transport.flight_us", layers.flight_us),
        (
            "core.reactor.reads_per_call",
            per_call(layers.reactor_reads),
        ),
        (
            "core.reactor.frames_per_read",
            ratio(
                layers.reactor_reads - layers.reactor_empty_reads,
                layers.reactor_bursts,
            ),
        ),
        (
            "core.reactor.empty_read_ratio",
            ratio(layers.reactor_empty_reads, layers.reactor_reads),
        ),
        ("core.reactor.read_us", layers.reactor_read_us),
        ("core.reactor.flush_us", layers.reactor_flush_us),
        (
            "transport.frame_bytes_per_call",
            per_call(layers.frame_bytes),
        ),
        (
            "wire.payload_bytes_per_call",
            per_call(layers.payload_bytes),
        ),
        (
            "transport.write_syscalls_per_call",
            per_call(sum(|r| r.counters.write_syscalls)),
        ),
        (
            "transport.read_syscalls_per_call",
            per_call(sum(|r| r.counters.read_syscalls)),
        ),
        (
            "transport.bytes_copied_per_call",
            per_call(sum(|r| r.counters.bytes_copied)),
        ),
        (
            "alloc.events_per_call",
            per_call(sum(|r| r.counters.alloc_events)),
        ),
        (
            "alloc.bytes_per_call",
            per_call(sum(|r| r.counters.alloc_bytes)),
        ),
        (
            "heap.client_reads_per_call",
            per_call(sum(|r| r.counters.heap_reads)),
        ),
        (
            "heap.client_writes_per_call",
            per_call(sum(|r| r.counters.heap_writes)),
        ),
        (
            "core.reliable.retries_per_kcall",
            per_kcall(layers.retries as f64),
        ),
        (
            "core.warm.stale_patches_per_kcall",
            per_kcall(layers.stale_patches as f64),
        ),
        (
            "core.warm.reseeds_per_kcall",
            per_kcall(layers.reseeds as f64),
        ),
        // From the untraced pass: a traced one grows by its own buffers.
        (
            "server.rss_growth_kb_per_kcall",
            untraced.rss_growth_kb as f64 * 1e3 / untraced.attempted as f64,
        ),
        (
            "transport.overhead_over_floor",
            value(&untraced.values, "latency_p50_us") / floor,
        ),
        ("client.latency_p99_us", layers.latency_p99_us),
        (
            "trace.overhead_ratio",
            traced_calls_per_s / value(&untraced.values, "calls_per_s"),
        ),
    ];
    v.extend(micro);
    v
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the metrics of `defs`
/// that `keep` admits, in declaration order.
pub fn metrics_json(
    defs: &[metrics::Def],
    values: &Values,
    spreads: Option<&Values>,
    keep: impl Fn(&metrics::Def) -> bool,
) -> Json {
    obj(defs.iter().filter(|d| keep(d)).map(|d| {
        let mut members = vec![
            ("value", Json::Num(value(values, d.name))),
            ("unit", Json::Str(d.unit.into())),
        ];
        if let Some(spreads) = spreads {
            members.push(("spread", Json::Num(value(spreads, d.name))));
        }
        (d.name, obj(members))
    }))
}
