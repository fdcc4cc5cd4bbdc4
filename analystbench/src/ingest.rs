//! `ingest`: live writes beside reads. A producer streams durable
//! appends on an open-loop schedule into a Grid'5000-shaped live
//! session while a second connection follows its deltas and, in a
//! closed loop, keeps moving the slice to the trailing window it has
//! seen, rendering and aggregating; then the journal is sealed, the
//! server dropped, and recovery must render the same bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viva_platform::generators::{self, Grid5000Config};
use viva_server::{Command, Server, ServerLimits};
use viva_trace::{JournalConfig, JournalWriter, RecoveredJournal, RecoveryMode, TraceLoader};

use crate::mirror::Mirror;
use crate::run::{layer_metrics, metric, LayerInputs, Metric, Op, Replay, Sent};
use crate::script::{append_text, reader_command, render};
use crate::spans::SpanLog;
use crate::stats::{median, tail};
use crate::wire::{classify, Client, Kind, Running};
use crate::Outcome;

const SESSION: &str = "live";
/// Appends per second, each carrying `SAMPLES` samples.
const RATE: f64 = 10.0;
const SAMPLES: usize = 40;
/// The reader's trailing window (in appends, which are one trace time
/// unit apart).
const WINDOW: f64 = 500.0;
/// Generator lateness (p99) above which a run is invalid, not slow.
pub const LATE_BOUND_MS: f64 = 50.0;
/// The producer's poll interval while it waits for acks or due times.
const POLL: Duration = Duration::from_micros(100);
/// Set-ups per run; `setup_s` is their median. More than the other
/// workloads take, since one lasts only half a second: the host's speed
/// swings over a few seconds, and three back-to-back set-ups would all
/// fall into one swing.
const SETUPS: usize = 9;
/// Commands replayed in-process by the traced run.
const REPLAY_OPS: usize = 600;

/// The opener (append 1): a 2,170-host Grid'5000-shaped topology with
/// one `power` sample per host. Returns the text, the host container
/// ids and the site names.
fn opener(appends: u64) -> (String, Vec<u32>, Vec<String>) {
    let platform = generators::grid5000(&Grid5000Config::default()).expect("default platform");
    let mut text = format!(
        "span,0.0,{}\nmetric,0,MFlop/s,power\nmetric,1,MFlop/s,power_used\n",
        appends + 1
    );
    let (mut hosts, mut sites, mut vars) = (Vec::new(), Vec::new(), String::new());
    let mut id = 1u32;
    for site in platform.sites() {
        let site_id = id;
        id += 1;
        text.push_str(&format!("container,{site_id},0,site,{}\n", site.name()));
        sites.push(site.name().to_owned());
        for &cl in site.clusters() {
            let cluster = platform.cluster(cl);
            let cluster_id = id;
            id += 1;
            text.push_str(&format!(
                "container,{cluster_id},{site_id},cluster,{}\n",
                cluster.name()
            ));
            for (i, &h) in cluster.hosts().iter().enumerate() {
                text.push_str(&format!(
                    "container,{id},{cluster_id},host,{}-h{i}\n",
                    cluster.name()
                ));
                vars.push_str(&format!("var,0.0,{id},0,{}\n", platform.host(h).power()));
                hosts.push(id);
                id += 1;
            }
        }
    }
    text.push_str(&vars);
    text.pop();
    (text, hosts, sites)
}

fn append_line(seq: u64, text: String) -> String {
    Command::Append {
        session: SESSION.to_owned(),
        seq,
        text,
    }
    .encode()
}

/// Reads `"key":<integer>` from a bounded prefix of a line.
fn prefix_u64(line: &[u8], key: &str) -> Option<u64> {
    let head = &line[..line.len().min(160)];
    let pat = format!("\"{key}\":");
    let at = head.windows(pat.len()).position(|w| w == pat.as_bytes())? + pat.len();
    let digits: Vec<u8> = head[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

fn limits(dir: &Path) -> ServerLimits {
    ServerLimits {
        journal_dir: Some(dir.to_path_buf()),
        journal_sync_every: 1,
        ..ServerLimits::default()
    }
}

fn subscribe(reader: &mut Client) -> Option<u64> {
    let cmd = Command::Subscribe {
        session: SESSION.to_owned(),
        from_seq: Some(1),
    }
    .encode();
    let mut snapshot = None;
    let (_, reply) = reader.request_with(&cmd, |push, _| snapshot = prefix_u64(push, "seq"));
    if classify(reply).token != "subscribed" {
        return None;
    }
    while snapshot.is_none() {
        let push = reader.read_line().expect("snapshot delta");
        snapshot = prefix_u64(push, "seq");
    }
    snapshot
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let total = (RATE * seconds).floor() as u64;
    let (open_text, hosts, sites) = opener(total);
    let open = append_line(1, open_text.clone());
    let sizes = format!(
        "{} hosts, opener {} bytes, {RATE} appends/s x {SAMPLES} samples, \
         journal_sync_every=1 (fsync before every ack), \
         reader in a closed loop (slice, render, aggregate)",
        hosts.len(),
        open.len(),
    );
    let mut out = Outcome {
        sizes,
        ..Outcome::default()
    };
    let dir_of = |rep: usize| -> PathBuf { work.join(format!("journal-{rep}")) };
    // Only for placing the two connections on two shards.
    let probe = Arc::new(
        TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .load_str(&open_text)
            .expect("the opener parses")
            .trace,
    );
    let mut running = None;
    for rep in 0..SETUPS {
        let dir = dir_of(rep);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("journal directory");
        let srv = Running::start(limits(&dir));
        let (mut producer, mut reader) = srv.connect_pair(&probe);
        let t = Instant::now();
        let (_, reply) = producer.request(&open);
        let ok = classify(reply).token == "appended";
        let snap = subscribe(&mut reader);
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += 2;
        if !ok || snap != Some(1) {
            out.failures.push(format!(
                "set-up {rep}: opener ok {ok}, snapshot at {snap:?}"
            ));
        }
        if rep + 1 < SETUPS {
            drop((producer, reader));
            srv.stop();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            running = Some((srv, producer, reader));
        }
    }
    let (srv, producer, reader) = running.expect("at least one set-up");
    drop(probe);

    // When each append was written, in ns after t0 (0 = not yet).
    let sent_at: Vec<AtomicU64> = (0..total + 2).map(|_| AtomicU64::new(0)).collect();
    let final_seq = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let period = Duration::from_secs_f64(1.0 / RATE);
    let end = Duration::from_secs_f64(seconds);
    let (prod, read) = std::thread::scope(|scope| {
        let p = scope.spawn(|| {
            produce(
                producer, seed, &hosts, total, t0, period, &sent_at, &final_seq,
            )
        });
        let r = scope.spawn(|| follow(reader, t0, end, &sites, &sent_at, &final_seq));
        (
            p.join().expect("producer thread"),
            r.join().expect("reader thread"),
        )
    });
    let (mut producer, appends, lateness, mut failures) =
        (prod.client, prod.sent, prod.lateness_ms, prod.failures);
    let (mut reader, reads, lags, read_failures) =
        (read.client, read.sent, read.lag_ms, read.failures);
    failures.extend(read_failures);
    // Every reader reply against the oracle, outside the timed region.
    let append_stream: Vec<&Sent> = appends.iter().map(|(_, s)| s).collect();
    failures.extend(check_reads(&open, &append_stream, &reads));

    // Seal, render the whole span once more, drop.
    let (_, reply) = producer.request(
        &Command::Seal {
            session: SESSION.to_owned(),
        }
        .encode(),
    );
    let last = appends.len() as u64 + 1;
    if classify(reply).token != "sealed" || prefix_u64(reply, "last_seq") != Some(last) {
        failures.push(format!(
            "seal: {}",
            String::from_utf8_lossy(&reply[..reply.len().min(120)])
        ));
    }
    let whole = Command::SetTimeSlice {
        session: SESSION.to_owned(),
        start: 0.0,
        end: last as f64,
    }
    .encode();
    let final_render = render(SESSION, 1024.0, 768.0, None).encode();
    let (_, reply) = reader.request_with(&whole, |_, _| {});
    if classify(reply).token != "slice" {
        failures.push(format!(
            "whole-span slice: {}",
            String::from_utf8_lossy(reply)
        ));
    }
    let (_, reply) = reader.request_with(&final_render, |_, _| {});
    let before_drop = reply.to_vec();
    let live = {
        let slot = srv.server.registry().peek(SESSION).expect("live session");
        let s = slot.lock();
        (s.analysis.shared_trace(), s.analysis.shared_index())
    };
    drop((producer, reader));
    drop(srv.stop());

    // Recovery on a fresh server over the same journal directory.
    let dir = dir_of(SETUPS - 1);
    let recovered = Server::new(limits(&dir));
    let t = Instant::now();
    let names = recovered.recover_journals();
    let recovery_s = t.elapsed().as_secs_f64();
    recovered.handle_line(&whole);
    let after = recovered.handle_line(&final_render).expect("render reply");
    out.attempted += 4;
    // The SVG must match byte for byte; the revision may not, since
    // the reader's slice moves bumped the live session's revision.
    const SVG: &[u8] = b",\"svg\":\"";
    let svg = |line: &[u8]| {
        line.windows(SVG.len())
            .position(|w| w == SVG)
            .map(|at| line[at..].to_vec())
    };
    if names != [SESSION]
        || svg(after.as_bytes()).is_none()
        || svg(after.as_bytes()) != svg(&before_drop)
    {
        failures.push(format!(
            "recovered render differs from the render before the drop (sessions {names:?})"
        ));
    }
    drop(recovered);

    let ack: Vec<f64> = appends.iter().map(|(_, s)| s.ms).collect();
    let late_p99 = tail(&lateness).map_or(0.0, |t| t.1);
    out.extra.push(metric(
        "append_p50_ms",
        median(&ack).unwrap_or(f64::NAN),
        "ms",
    ));
    let (p, v) = tail(&ack).unwrap_or((0, f64::NAN));
    out.extra.push(Metric {
        note: format!("p{p}, n={}", ack.len()),
        ..metric("append_tail_ms", v, "ms")
    });
    out.extra.push(Metric {
        note: format!("n={}", lags.len()),
        ..metric("delta_lag_p50_ms", median(&lags).unwrap_or(f64::NAN), "ms")
    });
    out.extra.push(metric("recovery_s", recovery_s, "s"));
    out.context.push(format!(
        "generator lateness: p50 {:.3} ms, tail {:.3} ms, max {:.3} ms (bound {LATE_BOUND_MS} ms on the tail)",
        median(&lateness).unwrap_or(0.0),
        late_p99,
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    if late_p99 > LATE_BOUND_MS {
        out.invalid = Some(format!(
            "generator tail lateness {late_p99:.1} ms exceeds {LATE_BOUND_MS} ms"
        ));
    }

    // One stream in send order: appends and reader commands interleave
    // as they reached the server, which the in-process replay needs.
    let reads = reads.into_iter().map(|(at, _, s)| (at, s));
    let mut merged: Vec<(f64, Sent)> = appends.into_iter().chain(reads).collect();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.attempted += merged.len();
    out.failures.extend(failures);
    out.streams
        .push(merged.into_iter().map(|(_, s)| s).collect());

    if traced {
        let journal = dir.join(format!("{SESSION}.journal"));
        let (layers, spans) = layers(&out.streams[0], &open_text, &journal, work, live);
        out.layers = layers;
        out.spans = spans;
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

struct Produced {
    client: Client,
    /// `(send time, record)` per append; `ms` is the ack latency
    /// timed from when the append was due.
    sent: Vec<(f64, Sent)>,
    lateness_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The open-loop producer: append `k` (seq `k + 2`) is due at
/// `t0 + k × period`. Writes whole lines as they fall due and reads
/// acks in between, blocking no longer than the next due time.
#[allow(clippy::too_many_arguments)]
fn produce(
    mut client: Client,
    seed: u64,
    hosts: &[u32],
    total: u64,
    t0: Instant,
    period: Duration,
    sent_at: &[AtomicU64],
    final_seq: &AtomicU64,
) -> Produced {
    let lines: Vec<String> = (0..total)
        .map(|k| append_line(k + 2, append_text(seed, k + 2, hosts, SAMPLES)))
        .collect();
    let due = |k: u64| t0 + period * k as u32;
    let mut sent: Vec<(f64, Sent)> = Vec::with_capacity(total as usize);
    let (mut lateness, mut failures) = (Vec::with_capacity(total as usize), Vec::new());
    let mut acked = 0u64;
    let mut next = 0u64;
    let give_up = due(total) + Duration::from_secs(20);
    client.set_nonblocking(true);
    while acked < total {
        let now = Instant::now();
        if now > give_up {
            failures.push(format!("only {acked} of {total} appends acknowledged"));
            break;
        }
        while next < total && due(next) <= now {
            lateness.push((now - due(next)).as_secs_f64() * 1e3);
            sent_at[next as usize + 2]
                .store((Instant::now() - t0).as_nanos() as u64, Ordering::SeqCst);
            client.send(&lines[next as usize]);
            next += 1;
        }
        let Some(reply) = client.read_line() else {
            // Nothing to read: nap briefly (socket timeouts tick in
            // scheduler jiffies, far too coarse for due times and acks).
            let wait = if next < total {
                due(next).saturating_duration_since(Instant::now())
            } else {
                POLL
            };
            std::thread::sleep(wait.min(POLL));
            continue;
        };
        let arrived = Instant::now();
        let k = acked;
        let seq = k + 2;
        let line = lines[k as usize].clone();
        let cmd = Command::Append {
            session: SESSION.to_owned(),
            seq,
            text: String::new(),
        };
        let ms = (arrived - due(k)).as_secs_f64() * 1e3;
        // An `err` reply is a failure already; an `ok` must also ack
        // this very seq as a first delivery.
        let acks =
            prefix_u64(reply, "seq") == Some(seq) && reply.ends_with(b"\"duplicate\":false}");
        if classify(reply).kind == Kind::Ok && !acks {
            failures.push(format!(
                "append {seq}: {}",
                String::from_utf8_lossy(&reply[..reply.len().min(120)])
            ));
        }
        let at = due(k).saturating_duration_since(t0).as_secs_f64();
        sent.push((at, Sent::record(cmd, line, ms, reply, &mut failures)));
        acked += 1;
    }
    final_seq.store(acked + 1, Ordering::SeqCst);
    client.set_nonblocking(false);
    Produced {
        client,
        sent,
        lateness_ms: lateness,
        failures,
    }
}

/// What bounds the server state behind a reader reply: the appends
/// whose deltas the reader had seen when it sent the command (all
/// applied by then), the appends written before its reply came back
/// (no later one can have been applied), and for a frame, the revision
/// it was drawn at, which pins the count exactly.
#[derive(Debug, Clone, Copy)]
struct Pin {
    seen: u64,
    written: u64,
    revision: Option<u64>,
}

struct Followed {
    client: Client,
    /// `(send time, pin, record)` per reader command.
    sent: Vec<(f64, Pin, Sent)>,
    lag_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The subscriber's view of the delta stream: the next seq it must
/// see (the snapshot covered seq 1) and each delta's lag.
struct Deltas<'a> {
    expect: u64,
    lags: Vec<f64>,
    t0: Instant,
    sent_at: &'a [AtomicU64],
}

impl Deltas<'_> {
    fn take(&mut self, push: &[u8], at: Instant, failures: &mut Vec<String>) {
        match (classify(push).token, prefix_u64(push, "seq")) {
            ("delta", Some(seq)) if seq == self.expect => {
                let written = self.sent_at[seq as usize].load(Ordering::SeqCst);
                self.lags
                    .push(((at - self.t0).as_nanos() as f64 - written as f64) / 1e6);
                self.expect += 1;
            }
            _ => failures.push(format!(
                "push out of order (expected delta {}): {}",
                self.expect,
                String::from_utf8_lossy(&push[..push.len().min(100)])
            )),
        }
    }
}

/// The subscriber connection, in a closed loop: it moves the slice to
/// the trailing window ending at the last append it has seen, renders
/// and aggregates, taking the deltas that arrive between replies and
/// timing each against when its append was written.
fn follow(
    mut client: Client,
    t0: Instant,
    end: Duration,
    sites: &[String],
    sent_at: &[AtomicU64],
    final_seq: &AtomicU64,
) -> Followed {
    let mut sent = Vec::new();
    let mut failures = Vec::new();
    let mut deltas = Deltas {
        expect: 2,
        lags: Vec::new(),
        t0,
        sent_at,
    };
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let mut written = 0u64;
    for i in 0u64.. {
        let at = t0.elapsed();
        if at >= end {
            break;
        }
        // Append `seq` carries samples at time `seq - 1`, so a window
        // ending at the seen count holds no sample of an unseen append.
        let seen = deltas.expect - 2;
        let cmd = reader_command(i, seen as f64, WINDOW, SESSION, sites);
        let line = cmd.encode();
        let mut pushes = Vec::new();
        let (rtt, reply) = client.request_with(&line, |p, t| pushes.push((p.to_vec(), t)));
        let revision = match cmd {
            Command::Render { .. } => prefix_u64(reply, "revision"),
            _ => None,
        };
        let record = Sent::record(cmd, line, rtt.as_secs_f64() * 1e3, reply, &mut failures);
        // Append `k` (seq `k + 2`) is stamped before it is written.
        while sent_at
            .get(written as usize + 2)
            .is_some_and(|a| a.load(Ordering::SeqCst) != 0)
        {
            written += 1;
        }
        let pin = Pin {
            seen,
            written,
            revision,
        };
        sent.push((at.as_secs_f64(), pin, record));
        for (p, t) in pushes {
            deltas.take(&p, t, &mut failures);
        }
    }
    // Drain the deltas of the last appends.
    let give_up = Instant::now() + Duration::from_secs(20);
    client.set_read_timeout(Some(Duration::from_millis(20)));
    loop {
        let last = final_seq.load(Ordering::SeqCst);
        if last != 0 && deltas.expect > last {
            break;
        }
        if Instant::now() > give_up {
            failures.push(format!(
                "deltas stopped at {} (last append {last})",
                deltas.expect
            ));
            break;
        }
        if let Some(push) = client.read_line() {
            let at = Instant::now();
            let push = push.to_vec();
            deltas.take(&push, at, &mut failures);
        }
    }
    client.set_read_timeout(None);
    Followed {
        client,
        sent,
        lag_ms: deltas.lags,
        failures,
    }
}

/// The oracle for the reader: an in-process server given the opener
/// and, before each reader command, the appends the live server had
/// applied when it ran that command, must answer every reader command
/// with the same bytes. The seen appends were applied for sure, and a
/// frame's revision pins how many more were (each append bumps it).
/// A slice or an aggregate carries no revision: it must match at the
/// fewest appends, up to those written before its reply, that give its
/// bytes (appends only ever add, so the count never has to go back).
fn check_reads(open: &str, appends: &[&Sent], reads: &[(f64, Pin, Sent)]) -> Vec<String> {
    let oracle = Server::new(ServerLimits::default());
    let reply = oracle.handle_line(open).expect("opener reply");
    assert_eq!(classify(reply.as_bytes()).token, "appended");
    let revision = || {
        let slot = oracle.registry().peek(SESSION).expect("live session");
        let r = slot.lock().analysis.revision();
        r
    };
    let apply = |k: usize| {
        let reply = oracle.handle_line(&appends[k].line).expect("append reply");
        assert_eq!(classify(reply.as_bytes()).token, "appended");
    };
    let mut applied = 0;
    let mut bad = Vec::new();
    for (i, (_, pin, sent)) in reads.iter().enumerate() {
        while applied < (pin.seen as usize).min(appends.len()) {
            apply(applied);
            applied += 1;
        }
        if let Some(rev) = pin.revision {
            while applied < appends.len() && revision() < rev {
                apply(applied);
                applied += 1;
            }
        }
        let upto = (pin.written as usize).min(appends.len());
        loop {
            let reply = oracle.handle_line(&sent.line).expect("reader reply");
            match sent.check(&reply) {
                Ok(()) => break,
                Err(_) if pin.revision.is_none() && applied < upto => {
                    apply(applied);
                    applied += 1;
                }
                Err(e) => {
                    bad.push(format!("reader op {i} after {applied} appends: {e}"));
                    break;
                }
            }
        }
    }
    bad
}

/// The traced run's per-layer numbers for `ingest`.
fn layers(
    stream: &[Sent],
    open_text: &str,
    journal: &Path,
    work: &Path,
    live: (Arc<viva_trace::Trace>, Option<Arc<viva_agg::AggIndex>>),
) -> (Vec<Metric>, Vec<(String, String)>) {
    let mut out = Vec::new();
    let t = Instant::now();
    let recovered = RecoveredJournal::read(journal).expect("the run's journal reads back");
    out.push(metric("trace.recover_s", t.elapsed().as_secs_f64(), "s"));
    drop(recovered);
    let open = append_line(1, open_text.to_owned());
    let t = Instant::now();
    let decoded = Command::decode(&open);
    out.push(metric(
        "server.decode_ms.opener",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    drop(decoded.expect("the opener decodes"));
    let t = Instant::now();
    let parsed = TraceLoader::new()
        .mode(RecoveryMode::Lenient)
        .load_str(open_text);
    out.push(metric("trace.parse_s", t.elapsed().as_secs_f64(), "s"));
    drop(parsed.expect("the opener parses"));

    // The journal layer alone: the same records appended and synced
    // on a scratch journal, one span per stream op.
    let mut probes = SpanLog::default();
    let scratch = work.join("probe.journal");
    let mut writer = JournalWriter::create(
        &scratch,
        "probe",
        JournalConfig {
            sync_every: u32::MAX,
        },
    )
    .expect("scratch journal");
    let mut seq = 1;
    let _ = writer.append(seq, open_text).and_then(|_| writer.sync());
    for (i, s) in stream.iter().enumerate().take(REPLAY_OPS) {
        if s.op == Op::Append {
            seq += 1;
            let text = match Command::decode(&s.line) {
                Ok(Command::Append { text, .. }) => text,
                _ => continue,
            };
            probes.time("trace.journal_append", i, None, || {
                writer
                    .append(seq, &text)
                    .and_then(|_| writer.sync())
                    .expect("probe append")
            });
        }
    }
    drop(writer);
    let _ = std::fs::remove_file(&scratch);
    out.push(metric(
        "trace.journal_append_ms",
        median(&probes.durations("trace.journal_append")).unwrap_or(0.0),
        "ms",
    ));

    // In-process replay on fresh servers with their own journals, each
    // with one drained subscriber like the TCP run, both with metrics
    // off like the TCP one.
    let servers: Vec<(Server, u64, PathBuf)> = ["replay-untraced", "replay-traced"]
        .iter()
        .map(|name| {
            let dir = work.join(name);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("replay journal directory");
            let s = Server::new(limits(&dir));
            let reply = s
                .handle_line(&append_line(1, open_text.to_owned()))
                .expect("opener reply");
            assert_eq!(classify(reply.as_bytes()).token, "appended");
            let conn = s.open_conn();
            let sub = Command::Subscribe {
                session: SESSION.to_owned(),
                from_seq: Some(1),
            }
            .encode();
            s.handle_line_on(Some(conn), &sub).expect("subscribe reply");
            s.take_pushes(conn);
            (s, conn, dir)
        })
        .collect();
    let replay = Replay::run(
        &[stream],
        REPLAY_OPS,
        &servers[0].0,
        &servers[1].0,
        Some((servers[0].1, servers[1].1)),
    );
    out.extend(layer_metrics(&LayerInputs {
        streams: &[stream.to_vec()],
        prefix: REPLAY_OPS,
        replay: &replay,
        mirrors: &[],
        probes: &probes,
    }));
    out.push(metric(
        "server.frame_cache_hit_ratio",
        replay.cache_hit_ratio(),
        "ratio",
    ));
    for (s, _, dir) in servers {
        drop(s);
        let _ = std::fs::remove_dir_all(dir);
    }

    // Core and agg costs of the reader's commands, on a mirror over
    // the final live trace (timing only: the state differs from the
    // moment each command ran).
    let mut mirror = Mirror::new(live.0, live.1);
    let mut log = SpanLog::default();
    for (i, s) in stream
        .iter()
        .enumerate()
        .filter(|(_, s)| s.op != Op::Append)
    {
        let _ = mirror.apply(&s.cmd, i, Some(&mut log));
    }
    out.extend(crate::mirror::metrics(
        std::slice::from_ref(&log),
        &mirror.frame_stats,
    ));
    let spans = vec![
        ("replay".to_owned(), replay.log.to_tsv()),
        ("probes".to_owned(), probes.to_tsv()),
        ("mirror".to_owned(), log.to_tsv()),
    ];
    (out, spans)
}
