//! What every workload hands back, and the end-to-end and per-layer
//! metrics computed from it the same way for all of them.

use std::collections::BTreeMap;
use std::time::Instant;

use viva_server::{Command, CommandClass, Response, Server};

use crate::spans::SpanLog;
use crate::stats::{digest, median, tail};
use crate::wire::{classify, Kind};

/// How a command counts in the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Interact,
    Frame,
    CachedFrame,
    Relax,
    Append,
    Other,
}

impl Op {
    pub fn of(cmd: &Command) -> Op {
        match cmd {
            Command::Render { .. } => Op::Frame,
            Command::Relax { .. } => Op::Relax,
            Command::Append { .. } => Op::Append,
            c if c.class() == CommandClass::Interact => Op::Interact,
            _ => Op::Other,
        }
    }
}

/// One command of a measured stream, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    pub cmd: Command,
    pub line: String,
    pub op: Op,
    pub ms: f64,
    pub digest: (u64, u64),
    pub len: usize,
    /// When the reply was recorded, just after it arrived.
    pub done: Instant,
}

impl Sent {
    /// Records a reply outside the timed region: classify by prefix,
    /// digest the bytes. Unexpected errors become failures right away.
    pub fn record(
        cmd: Command,
        line: String,
        ms: f64,
        reply: &[u8],
        failures: &mut Vec<String>,
    ) -> Sent {
        let class = classify(reply);
        let mut op = Op::of(&cmd);
        if class.kind != Kind::Ok {
            let head = String::from_utf8_lossy(&reply[..reply.len().min(160)]).into_owned();
            failures.push(format!("{} answered {head}", cmd.name()));
        } else if class.cached == Some(true) {
            op = Op::CachedFrame;
        }
        Sent {
            cmd,
            line,
            op,
            ms,
            digest: digest(reply),
            len: reply.len(),
            done: Instant::now(),
        }
    }

    /// Compares the recorded reply with the oracle's line.
    pub fn check(&self, expected: &str) -> Result<(), String> {
        if digest(expected.as_bytes()) == self.digest && expected.len() == self.len {
            Ok(())
        } else {
            Err(format!(
                "{} reply differs from the oracle ({} bytes, expected {}): {}",
                self.cmd.name(),
                self.len,
                expected.len(),
                &expected[..expected.len().min(120)]
            ))
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed next to the value (tail percentile, sample count, ...).
    pub note: String,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

/// The traced run's in-process replay of a stream prefix, for the
/// server layers: untraced `handle_line` timings (wire = client round
/// trip minus these) and a traced decode / execute / encode split.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(stream, index) -> handle_line ms` on the untraced server.
    pub handle_ms: BTreeMap<(usize, usize), f64>,
    /// Spans on the traced server; `op` = `stream * OP_STRIDE + index`.
    pub log: SpanLog,
    /// Frames the traced server answered from its frame cache, and
    /// frames it drew.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

pub const OP_STRIDE: usize = 1 << 24;

impl Replay {
    /// Replays `streams[s][..prefix]` on `untraced` (whole
    /// `handle_line` calls) and on `traced` (decode, execute and encode
    /// as child spans of one root per command). Both servers must hold
    /// the state the TCP run started from, with the same observability
    /// setting (metrics off, like the TCP server), so the benchmark's
    /// spans are the only difference; `subs` are their subscribed
    /// connections, drained after every command like the TCP reader.
    pub fn run(
        streams: &[&[Sent]],
        prefix: usize,
        untraced: &Server,
        traced: &Server,
        subs: Option<(u64, u64)>,
    ) -> Replay {
        let mut r = Replay::default();
        for (s, stream) in streams.iter().enumerate() {
            for (i, sent) in stream.iter().take(prefix).enumerate() {
                let t = Instant::now();
                let reply = untraced.handle_line(&sent.line);
                r.handle_ms.insert((s, i), t.elapsed().as_secs_f64() * 1e3);
                drop(reply);
                if let Some((u, _)) = subs {
                    untraced.take_pushes(u);
                }
                let op = s * OP_STRIDE + i;
                let root = r.log.open("server.handle", op, None);
                let (cmd, _) = r.log.time("server.decode", op, Some(root), || {
                    Command::decode(sent.line.trim())
                });
                let cmd = cmd.expect("a command the benchmark encoded decodes");
                let (resp, _) = r
                    .log
                    .time("server.execute", op, Some(root), || traced.execute(cmd));
                if let Response::Frame { cached, .. } = &resp {
                    if *cached {
                        r.cache_hits += 1;
                    } else {
                        r.cache_misses += 1;
                    }
                }
                let (line, _) = r
                    .log
                    .time("server.encode", op, Some(root), || resp.encode());
                r.log.close(root);
                drop(line);
                if let Some((_, t)) = subs {
                    traced.take_pushes(t);
                }
            }
        }
        r
    }

    /// Frame-cache hit ratio of the replayed renders, from the `cached`
    /// flag of each frame the traced server answered.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// The end-to-end metrics every workload reports, from its streams.
pub fn end_to_end(setup_s: &[f64], streams: &[Vec<Sent>]) -> Vec<Metric> {
    let ms = |op: Op| -> Vec<f64> {
        streams
            .iter()
            .flatten()
            .filter(|s| s.op == op)
            .map(|s| s.ms)
            .collect()
    };
    let mut out = vec![metric(
        "setup_s",
        median(setup_s).expect("at least one set-up"),
        "s",
    )];
    out.last_mut().expect("just pushed").note = format!("median of {} set-ups", setup_s.len());
    for (name, op) in [("interact", Op::Interact), ("frame", Op::Frame)] {
        let v = ms(op);
        let mut p50 = metric(
            format!("{name}_p50_ms"),
            median(&v).unwrap_or(f64::NAN),
            "ms",
        );
        p50.note = format!("n={}", v.len());
        out.push(p50);
        let (p, value) = tail(&v).unwrap_or((0, f64::NAN));
        let mut t = metric(format!("{name}_tail_ms"), value, "ms");
        t.note = format!("p{p}, n={}", v.len());
        out.push(t);
    }
    let mut rate = metric("commands_per_s", commands_per_s(streams), "1/s");
    rate.note = format!("median of {RATE_SLICES} slices of the run");
    out.push(rate);
    out.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    out
}

/// Equal slices of the measured run that `commands_per_s` is the
/// median of.
pub const RATE_SLICES: usize = 10;

/// Commands completed per second: the median rate over
/// `RATE_SLICES` equal slices of the span from the first completion to
/// the last, so a stall of a second or two moves a few slices, not the
/// whole figure.
pub fn commands_per_s(streams: &[Vec<Sent>]) -> f64 {
    let done: Vec<Instant> = streams.iter().flatten().map(|s| s.done).collect();
    let (Some(first), Some(last)) = (done.iter().min(), done.iter().max()) else {
        return f64::NAN;
    };
    let slice = (*last - *first).as_secs_f64() / RATE_SLICES as f64;
    if slice <= 0.0 {
        return f64::NAN;
    }
    let mut counts = [0usize; RATE_SLICES];
    for d in &done {
        let i = ((*d - *first).as_secs_f64() / slice) as usize;
        counts[i.min(RATE_SLICES - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice).collect();
    median(&rates).unwrap_or(f64::NAN)
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of the stream's client round trips for `op`.
pub fn p50_of(streams: &[Vec<Sent>], op: Op) -> Option<f64> {
    let v: Vec<f64> = streams
        .iter()
        .flatten()
        .filter(|s| s.op == op)
        .map(|s| s.ms)
        .collect();
    median(&v)
}

/// Inputs of the per-layer report beyond the replay.
pub struct LayerInputs<'a> {
    pub streams: &'a [Vec<Sent>],
    pub prefix: usize,
    pub replay: &'a Replay,
    /// Mirror span logs, one per stream (empty logs when a workload
    /// has no mirror of its streams).
    pub mirrors: &'a [SpanLog],
    /// Spans of component probes outside the stream (journal appends
    /// keyed by stream op, parse, index build ...).
    pub probes: &'a SpanLog,
}

/// The span names that bill to each layer below the server.
const LAYERS: [(&str, &[&str]); 4] = [
    (
        "core",
        &["core.view_lod", "core.svg_encode", "core.interact"],
    ),
    ("agg", &["agg.slice", "agg.aggregate"]),
    ("layout", &["layout.relax", "layout.forces"]),
    ("trace", &["trace.journal_append"]),
];

/// Self time per layer over the replayed prefix, as shares of the
/// client-measured time of the same commands, with the unattributed
/// rest and the tracing overhead; plus per-class server medians.
pub fn layer_metrics(x: &LayerInputs) -> Vec<Metric> {
    let mut out = Vec::new();
    let in_prefix = |op: usize| op % OP_STRIDE < x.prefix;
    // Client time of the replayed commands (the end-to-end side).
    let e: f64 = x
        .streams
        .iter()
        .flat_map(|s| s.iter().take(x.prefix))
        .map(|c| c.ms)
        .sum();
    let h: f64 = x.replay.handle_ms.values().sum();
    let sum = |log: &SpanLog, name: &str| -> f64 {
        log.spans
            .iter()
            .filter(|s| s.name == name && in_prefix(s.op))
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    };
    let (d, xe, c, root) = (
        sum(&x.replay.log, "server.decode"),
        sum(&x.replay.log, "server.execute"),
        sum(&x.replay.log, "server.encode"),
        sum(&x.replay.log, "server.handle"),
    );
    // Layer time below `execute`, from the mirrors and probes. The
    // mirror's frame is split into the cold scene plus the encoder's
    // share (render minus warm scene), matching one server render.
    let mut below: BTreeMap<&str, f64> = BTreeMap::new();
    for log in x.mirrors.iter().chain([x.probes]) {
        for (layer, names) in LAYERS {
            let mut t = 0.0;
            for name in names {
                t += if *name == "core.svg_encode" {
                    (sum(log, "core.render") - sum(log, "core.view_lod_warm")).max(0.0)
                } else {
                    sum(log, name)
                };
            }
            *below.entry(layer).or_insert(0.0) += t;
        }
    }
    // Self times. The wire is what the client saw beyond the untraced
    // in-process call; inside it, each traced span's self time is
    // scaled by untraced / traced so the tracing overhead is not billed
    // to any layer. `execute`'s children are the mirror and probe
    // spans (capped at `execute` when measured slower, as a separate
    // run can be). The unattributed rest is the root span's own time:
    // the request line handling no child span covers.
    let b: f64 = below.values().sum();
    let cap = if b > xe && b > 0.0 { xe / b } else { 1.0 };
    let scale = if root > 0.0 { h / root } else { 0.0 };
    let share = |v: f64| if e > 0.0 { v / e } else { 0.0 };
    out.push(metric("self.wire_share", share(e - h), "ratio"));
    out.push(metric(
        "self.server.decode_share",
        share(d * scale),
        "ratio",
    ));
    out.push(metric(
        "self.server.execute_share",
        share((xe - b * cap) * scale),
        "ratio",
    ));
    out.push(metric(
        "self.server.encode_share",
        share(c * scale),
        "ratio",
    ));
    for (layer, t) in below.iter().filter(|(_, t)| **t > 0.0) {
        out.push(metric(
            format!("self.{layer}_share"),
            share(t * cap * scale),
            "ratio",
        ));
    }
    let glue = x
        .replay
        .log
        .self_ms()
        .get("server.handle")
        .copied()
        .unwrap_or(0.0);
    let mut rest = metric("unattributed_share", share(glue * scale), "ratio");
    rest.note = format!(
        "of {e:.1} ms client time over {} replayed commands",
        x.replay.handle_ms.len()
    );
    out.push(rest);
    out.push(metric(
        "tracing_overhead_share",
        if h > 0.0 { (root - h) / h } else { 0.0 },
        "ratio",
    ));

    // Per-class medians of the traced server spans and the wire gap.
    let op_of = |op: usize| x.streams[op / OP_STRIDE][op % OP_STRIDE].op;
    let by_class = |name: &str, want: Op| -> Vec<f64> {
        x.replay
            .log
            .spans
            .iter()
            .filter(|s| s.name == name && op_of(s.op) == want)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    };
    // Only what the workload exercised: an op class with no samples
    // gives no metric, never a zero.
    let mut put = |name: String, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            out.push(metric(name, v, unit));
        }
    };
    for (label, want) in [
        ("interact", Op::Interact),
        ("render", Op::Frame),
        ("relax", Op::Relax),
        ("append", Op::Append),
    ] {
        put(
            format!("server.decode_ms.{label}"),
            median(&by_class("server.decode", want)),
            "ms",
        );
        put(
            format!("server.execute_ms.{label}"),
            median(&by_class("server.execute", want)),
            "ms",
        );
    }
    put(
        "server.encode_ms".into(),
        median(&by_class("server.encode", Op::Frame)),
        "ms",
    );
    let frame_bytes: Vec<f64> = x
        .streams
        .iter()
        .flatten()
        .filter(|s| s.op == Op::Frame)
        .map(|s| s.len as f64)
        .collect();
    put(
        "server.response_bytes".into(),
        median(&frame_bytes),
        "bytes",
    );
    for (label, want) in [
        ("interact", Op::Interact),
        ("render", Op::Frame),
        ("append", Op::Append),
    ] {
        let handle: Vec<f64> = x
            .replay
            .handle_ms
            .iter()
            .filter(|((s, i), _)| x.streams[*s][*i].op == want)
            .map(|(_, v)| *v)
            .collect();
        let wire = p50_of(x.streams, want)
            .zip(median(&handle))
            .map(|(client, inproc)| client - inproc);
        put(format!("server.wire_ms.{label}"), wire, "ms");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn done_at(done: Instant) -> Sent {
        Sent {
            cmd: Command::Ping,
            line: String::new(),
            op: Op::Other,
            ms: 0.0,
            digest: (0, 0),
            len: 0,
            done,
        }
    }

    /// A stall empties the slices it falls in; the median rate is that
    /// of the rest, where the mean would drop by the stall's share.
    #[test]
    fn commands_per_s_is_the_median_slice_rate() {
        let t = Instant::now();
        let ms = |i: u64| Duration::from_millis(i);
        let stream: Vec<Sent> = (0..=1000)
            .map(|i| ms(10 * i))
            .filter(|d| !(ms(3000)..ms(5000)).contains(d))
            .map(|d| done_at(t + d))
            .collect();
        let rate = commands_per_s(&[stream]);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert!(commands_per_s(&[vec![done_at(t)]]).is_nan());
    }
}
