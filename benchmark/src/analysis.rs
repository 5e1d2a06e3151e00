//! Turns a traced run's event buffers into per-layer times.
//!
//! A *sample* is what the client times as one latency: one call, or one
//! depth-16 batch. The client's events that fall inside a sample split
//! it into four parts that sum to its latency exactly:
//!
//! ```text
//! |- marshal -|- send -|------ wait and apply, interleaved ------|
//! entry       first    last send                             return
//!             send     exit
//! ```
//!
//! `wait` is the time inside `recv`; `apply` is the rest after the send
//! (decode, restore, the reliable envelope) — the call span's self time.
//! Server events carry the same `(nonce, seq)` call id the client sent,
//! which joins the two ends: `server.busy` runs from the exit of the read
//! that delivered the sample's first request to the entry of the write
//! that carried its last reply. A flush carries no id and belongs to the
//! sample most recently read on its connection, which a closed loop
//! makes exact.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use crate::trace::{ConnLog, IoKind, Note, Side};

/// One timed sample, as the driver saw it.
#[derive(Clone, Copy, Debug)]
pub struct SampleSpan {
    /// 1-based round.
    pub round: u32,
    /// Connection within the round.
    pub conn: u32,
    /// Call entry, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Call return.
    pub end: u64,
}

/// Per-layer results of a traced run. Times are means per sample in
/// microseconds; counts are totals over all timed samples.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Samples analysed.
    pub samples: usize,
    /// Mean traced latency.
    pub latency_us: f64,
    /// 99th percentile of the traced latency.
    pub latency_p99_us: f64,
    /// Call entry to first send.
    pub marshal_us: f64,
    /// First send entry to last send exit.
    pub send_us: f64,
    /// Inside `recv`.
    pub wait_us: f64,
    /// After the send, outside `recv`.
    pub apply_us: f64,
    /// First request read to last reply written, at the server's socket.
    pub server_busy_us: f64,
    /// Inside the server's writes.
    pub server_send_us: f64,
    /// Between the two ends' sockets, both directions: client send entry
    /// to server read exit, plus server write entry to client receive exit.
    pub flight_us: f64,
    /// Inside the services.
    pub execute_us: f64,
    /// Inside `try_read_frame`, hits and misses (reactor only).
    pub reactor_read_us: f64,
    /// Inside `flush_queue` (reactor only).
    pub reactor_flush_us: f64,
    /// `try_read_frame` attempts in timed samples (reactor only).
    pub reactor_reads: u64,
    /// Of those, attempts that found no complete frame.
    pub reactor_empty_reads: u64,
    /// Runs of consecutive successful `try_read_frame` calls.
    pub reactor_bursts: u64,
    /// `Frame::wire_size`, both directions, on client connections.
    pub frame_bytes: u64,
    /// `Frame::payload_len`, both directions, on client connections.
    pub payload_bytes: u64,
    /// Tagged calls sent again.
    pub retries: u64,
    /// `CacheStale` patches received.
    pub stale_patches: u64,
    /// `CacheMiss` replies received.
    pub reseeds: u64,
}

struct Traced {
    span: SampleSpan,
    first_send: u64,
    last_send: u64,
    recv_ns: u64,
    last_recv: u64,
    id: Option<(u64, u64)>,
    busy_start: u64,
    busy_end: u64,
    server_send_ns: u64,
    reactor_read_ns: u64,
    reactor_flush_ns: u64,
}

/// Samples per connection whose spans go to the span file. The file is
/// for reading a call's anatomy; the metrics are computed over every
/// sample, and a full dump of a pipelined run is 150 MB (this sample of one: 6 MB).
pub const SPAN_FILE_SAMPLES: usize = 1024;

/// Joins the logs of one traced pass. `samples` are the driver's timed
/// samples, `windows` the timed part of each round. With `spans_out`,
/// the spans of the first round's first [`SPAN_FILE_SAMPLES`] samples per
/// connection are also written there as tab-separated text.
///
/// # Errors
/// A sample with no client send or no server events (the join is
/// broken), or a failure writing the span file.
pub fn analyse(
    logs: &[ConnLog],
    exec: &[Vec<(u64, u64)>],
    mut samples: Vec<SampleSpan>,
    windows: &[(u64, u64)],
    spans_out: Option<&Path>,
) -> Result<Layers, String> {
    samples.sort_by_key(|s| (s.round, s.conn, s.start));
    let mut traced: Vec<Traced> = samples
        .into_iter()
        .map(|span| Traced {
            span,
            first_send: u64::MAX,
            last_send: 0,
            recv_ns: 0,
            last_recv: 0,
            id: None,
            busy_start: u64::MAX,
            busy_end: 0,
            server_send_ns: 0,
            reactor_read_ns: 0,
            reactor_flush_ns: 0,
        })
        .collect();
    let mut out = SpanFile::create(spans_out, &traced)?;
    let mut layers = Layers {
        samples: traced.len(),
        ..Layers::default()
    };

    // Client end: partition each sample and learn its call ids.
    // nonce -> (first seq, last seq, sample index), in seq order.
    let mut by_id: HashMap<u64, Vec<(u64, u64, usize)>> = HashMap::new();
    for log in logs {
        let Side::Client { round, conn } = log.side else {
            continue;
        };
        let lo = traced.partition_point(|t| (t.span.round, t.span.conn) < (round, conn));
        let hi = traced.partition_point(|t| (t.span.round, t.span.conn) <= (round, conn));
        let mut events = log.events.iter().peekable();
        for (idx, t) in traced[lo..hi].iter_mut().enumerate() {
            let idx = lo + idx;
            while events.next_if(|e| e.t0 < t.span.start).is_some() {}
            let mut received = false;
            while let Some(e) = events.next_if(|e| e.t1 <= t.span.end) {
                layers.frame_bytes += u64::from(e.frame_bytes);
                layers.payload_bytes += u64::from(e.payload_bytes);
                match e.note {
                    Note::Retransmit => layers.retries += 1,
                    Note::CacheStale => layers.stale_patches += 1,
                    Note::CacheMiss => layers.reseeds += 1,
                    Note::Plain => {}
                }
                match e.kind {
                    IoKind::Send if !received => {
                        t.first_send = t.first_send.min(e.t0);
                        t.last_send = t.last_send.max(e.t1);
                        if let (None, Some((nonce, seq))) = (t.id, e.id) {
                            t.id = Some((nonce, seq));
                            let last = seq + u64::from(e.frames.max(1)) - 1;
                            by_id.entry(nonce).or_default().push((seq, last, idx));
                        }
                    }
                    IoKind::Recv | IoKind::RecvNone => {
                        received = true;
                        t.recv_ns += e.t1 - e.t0;
                        t.last_recv = e.t1;
                        out.span(idx, "client.wait", t, e.t0, e.t1)?;
                    }
                    _ => {}
                }
            }
            if t.first_send == u64::MAX {
                return Err(format!(
                    "trace: round {round} connection {conn} has a sample with no send inside it"
                ));
            }
        }
    }
    let sample_of = |id: Option<(u64, u64)>| -> Option<usize> {
        let (nonce, seq) = id?;
        let ranges = by_id.get(&nonce)?;
        let at = ranges.partition_point(|&(_, last, _)| last < seq);
        ranges
            .get(at)
            .filter(|&&(first, _, _)| first <= seq)
            .map(|&(_, _, idx)| idx)
    };

    // Server end.
    for log in logs.iter().filter(|l| l.side == Side::Server) {
        let mut current: Option<usize> = None;
        let mut in_burst = false;
        for e in &log.events {
            let named = sample_of(e.id);
            let dur = e.t1 - e.t0;
            match e.kind {
                IoKind::Recv | IoKind::Poll => {
                    current = named;
                    let Some(idx) = named else { continue };
                    let t = &mut traced[idx];
                    t.busy_start = t.busy_start.min(e.t1);
                    if e.kind == IoKind::Poll {
                        t.reactor_read_ns += dur;
                        layers.reactor_reads += 1;
                        if !in_burst {
                            layers.reactor_bursts += 1;
                        }
                        in_burst = true;
                        out.span(idx, "core.reactor.read", t, e.t0, e.t1)?;
                    }
                }
                IoKind::PollEmpty => {
                    in_burst = false;
                    let Some(idx) = current else { continue };
                    traced[idx].reactor_read_ns += dur;
                    layers.reactor_reads += 1;
                    layers.reactor_empty_reads += 1;
                    out.span(idx, "core.reactor.read", &traced[idx], e.t0, e.t1)?;
                }
                IoKind::Send | IoKind::Flush => {
                    in_burst = false;
                    let Some(idx) = named.or(current) else {
                        continue;
                    };
                    if e.frames == 0 && e.frame_bytes == 0 {
                        continue; // a flush with nothing queued
                    }
                    let t = &mut traced[idx];
                    t.busy_end = t.busy_end.max(e.t0);
                    t.server_send_ns += dur;
                    if e.kind == IoKind::Flush {
                        t.reactor_flush_ns += dur;
                    }
                    out.span(idx, "server.send", t, e.t0, e.t1)?;
                }
                IoKind::RecvNone => {}
            }
        }
    }

    // Services: every execution that began inside a timed window.
    let mut execute_ns = 0u64;
    // With one connection a sample's busy interval names the call an
    // execution belongs to; with two, overlapping intervals cannot.
    let single = traced.iter().all(|t| t.span.conn == 0);
    for &(t0, t1) in exec.iter().flatten() {
        if !windows.iter().any(|&(a, b)| a <= t0 && t0 <= b) {
            continue;
        }
        execute_ns += t1 - t0;
        let owner = single
            .then(|| {
                traced
                    .partition_point(|t| t.span.start <= t0)
                    .checked_sub(1)
            })
            .flatten()
            .filter(|&idx| traced[idx].busy_start <= t0 && t1 <= traced[idx].busy_end);
        match owner {
            Some(idx) => out.child_of_busy(idx, "service.execute", &traced[idx], t0, t1)?,
            None => out.orphan("service.execute", t0, t1)?,
        }
    }

    let n = traced.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    let mut unjoined = 0usize;
    let (mut latency, mut marshal, mut send, mut wait, mut busy) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut server_send, mut rread, mut rflush, mut flight) = (0u64, 0u64, 0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::with_capacity(traced.len());
    for (idx, t) in traced.iter().enumerate() {
        let total = t.span.end - t.span.start;
        latencies.push(total);
        latency += total;
        marshal += t.first_send - t.span.start;
        send += t.last_send - t.first_send;
        wait += t.recv_ns;
        out.sample(idx, t)?;
        if t.busy_start == u64::MAX || t.busy_end < t.busy_start {
            unjoined += 1;
            continue;
        }
        busy += t.busy_end - t.busy_start;
        flight +=
            t.busy_start.saturating_sub(t.first_send) + t.last_recv.saturating_sub(t.busy_end);
        server_send += t.server_send_ns;
        rread += t.reactor_read_ns;
        rflush += t.reactor_flush_ns;
    }
    if unjoined * 100 > traced.len() {
        return Err(format!(
            "trace: {unjoined} of {} samples have no server events under their call id",
            traced.len()
        ));
    }
    out.finish()?;
    latencies.sort_unstable();
    layers.latency_us = us(latency);
    layers.latency_p99_us = crate::stats::percentile_sorted(&latencies, 99.0) as f64 / 1e3;
    layers.marshal_us = us(marshal);
    layers.send_us = us(send);
    layers.wait_us = us(wait);
    layers.apply_us = us(latency - marshal - send - wait);
    layers.server_busy_us = us(busy);
    layers.server_send_us = us(server_send);
    layers.flight_us = us(flight);
    layers.execute_us = us(execute_ns);
    layers.reactor_read_us = us(rread);
    layers.reactor_flush_us = us(rflush);
    Ok(layers)
}

/// The span dump: `id parent name round conn seq start_ns end_ns`, one
/// span per line. Sample `i` owns ids `4i+1 ..= 4i+4` (call, marshal,
/// send, server.busy); every other span takes the next free id.
struct SpanFile {
    file: Option<std::io::BufWriter<std::fs::File>>,
    /// Per sample: whether its spans are written.
    dumped: Vec<bool>,
    /// End of the last dumped sample: spans no sample owns are written
    /// up to here.
    until: u64,
    next_id: usize,
}

impl SpanFile {
    fn create(path: Option<&Path>, samples: &[Traced]) -> Result<Self, String> {
        let Some(path) = path else {
            return Ok(SpanFile {
                file: None,
                dumped: Vec::new(),
                until: 0,
                next_id: 0,
            });
        };
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut file = std::io::BufWriter::new(file);
        writeln!(file, "id\tparent\tname\tround\tconn\tseq\tstart_ns\tend_ns")
            .map_err(|e| e.to_string())?;
        // `samples` is sorted by (round, conn, start).
        let first_round = samples.first().map_or(0, |t| t.span.round);
        let mut ordinal = 0;
        let mut dumped = Vec::with_capacity(samples.len());
        for (i, t) in samples.iter().enumerate() {
            if i > 0 && samples[i - 1].span.conn != t.span.conn {
                ordinal = 0;
            }
            dumped.push(t.span.round == first_round && ordinal < SPAN_FILE_SAMPLES);
            ordinal += 1;
        }
        let until = samples
            .iter()
            .zip(&dumped)
            .filter(|(_, &d)| d)
            .map(|(t, _)| t.span.end)
            .max()
            .unwrap_or(0);
        Ok(SpanFile {
            file: Some(file),
            dumped,
            until,
            next_id: 4 * samples.len() + 1,
        })
    }

    fn line(
        &mut self,
        id: usize,
        parent: usize,
        name: &str,
        of: Option<&Traced>,
        (t0, t1): (u64, u64),
    ) -> Result<(), String> {
        let file = self.file.as_mut().expect("callers check `wants` first");
        let (round, conn, seq) = match of {
            Some(t) => (
                t.span.round.to_string(),
                t.span.conn.to_string(),
                t.id.map_or(String::new(), |(_, seq)| seq.to_string()),
            ),
            None => Default::default(),
        };
        writeln!(
            file,
            "{id}\t{parent}\t{name}\t{round}\t{conn}\t{seq}\t{t0}\t{t1}"
        )
        .map_err(|e| e.to_string())
    }

    fn wants(&self, idx: usize) -> bool {
        self.file.is_some() && self.dumped[idx]
    }

    fn fresh(&mut self) -> usize {
        self.next_id += 1;
        self.next_id - 1
    }

    /// A span whose parent is sample `idx`'s call span.
    fn span(
        &mut self,
        idx: usize,
        name: &str,
        of: &Traced,
        t0: u64,
        t1: u64,
    ) -> Result<(), String> {
        if !self.wants(idx) {
            return Ok(());
        }
        let id = self.fresh();
        self.line(id, 4 * idx + 1, name, Some(of), (t0, t1))
    }

    /// A span whose parent is sample `idx`'s `server.busy` span.
    fn child_of_busy(
        &mut self,
        idx: usize,
        name: &str,
        of: &Traced,
        t0: u64,
        t1: u64,
    ) -> Result<(), String> {
        if !self.wants(idx) {
            return Ok(());
        }
        let id = self.fresh();
        self.line(id, 4 * idx + 4, name, Some(of), (t0, t1))
    }

    /// A span no sample can be named the parent of.
    fn orphan(&mut self, name: &str, t0: u64, t1: u64) -> Result<(), String> {
        if self.file.is_none() || t0 > self.until {
            return Ok(());
        }
        let id = self.fresh();
        self.line(id, 0, name, None, (t0, t1))
    }

    /// The four spans every sample owns.
    fn sample(&mut self, idx: usize, t: &Traced) -> Result<(), String> {
        if !self.wants(idx) {
            return Ok(());
        }
        let call = 4 * idx + 1;
        self.line(call, 0, "call", Some(t), (t.span.start, t.span.end))?;
        self.line(
            call + 1,
            call,
            "client.marshal",
            Some(t),
            (t.span.start, t.first_send),
        )?;
        self.line(
            call + 2,
            call,
            "client.send",
            Some(t),
            (t.first_send, t.last_send),
        )?;
        if t.busy_start <= t.busy_end {
            self.line(
                call + 3,
                call,
                "server.busy",
                Some(t),
                (t.busy_start, t.busy_end),
            )?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), String> {
        match self.file.take() {
            Some(mut file) => file.flush().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::IoEvent;

    fn ev(kind: IoKind, t0: u64, t1: u64, id: Option<(u64, u64)>, frames: u32) -> IoEvent {
        IoEvent {
            kind,
            t0,
            t1,
            id,
            frames,
            frame_bytes: 10 * frames,
            payload_bytes: frames,
            note: Note::Plain,
        }
    }

    #[test]
    fn partition_sums_to_latency_and_ends_join_by_call_id() {
        let id = Some((9, 4));
        let logs = vec![
            ConnLog {
                side: Side::Client { round: 1, conn: 0 },
                events: vec![
                    ev(IoKind::Send, 10, 20, Some((9, 3)), 1), // warm-up, before the sample
                    ev(IoKind::Send, 1_100, 1_300, id, 1),
                    ev(IoKind::Recv, 1_350, 2_350, id, 1),
                ],
            },
            ConnLog {
                side: Side::Server,
                events: vec![
                    ev(IoKind::Recv, 500, 1_500, id, 1),
                    ev(IoKind::Send, 2_000, 2_100, id, 1),
                ],
            },
        ];
        let exec = vec![vec![(1_600, 1_900), (5_000_000, 5_000_100)]];
        let samples = vec![SampleSpan {
            round: 1,
            conn: 0,
            start: 1_000,
            end: 2_500,
        }];
        let l = analyse(&logs, &exec, samples, &[(900, 3_000)], None).unwrap();
        assert_eq!(l.samples, 1);
        assert_eq!(l.latency_us, 1.5);
        assert_eq!(l.marshal_us, 0.1);
        assert_eq!(l.send_us, 0.2);
        assert_eq!(l.wait_us, 1.0);
        assert!((l.apply_us - 0.2).abs() < 1e-9);
        assert_eq!(l.server_busy_us, 0.5); // 1_500 -> 2_000
        assert_eq!(l.server_send_us, 0.1);
        assert_eq!(l.flight_us, 0.4 + 0.35); // 1_100 -> 1_500, 2_000 -> 2_350
        assert_eq!(l.execute_us, 0.3); // the second span is outside the window
        assert_eq!(l.frame_bytes, 20);
    }
}
