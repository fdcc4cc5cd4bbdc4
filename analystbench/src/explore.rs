//! `explore`: the paper's own interaction at paper scale — two analysts
//! over the Fig. 8 trace (Grid'5000, 2,170 hosts, two competing
//! master-worker applications), uploaded over the wire.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use viva_agg::AggIndex;
use viva_platform::generators::{self, Grid5000Config};
use viva_server::{Command, Server, ServerLimits};
use viva_simflow::TracingConfig;
use viva_trace::{ContainerKind, RecoveryMode, Trace, TraceLoader};
use viva_workloads::{run_master_worker, AppSpec, MwConfig};

use crate::mirror::Mirror;
use crate::run::{layer_metrics, metric, LayerInputs, Metric, Op, Replay, Sent, OP_STRIDE};
use crate::script::{explore_loop, Universe};
use crate::spans::SpanLog;
use crate::stats::Rng;
use crate::wire::{classify, Running};
use crate::{Outcome, SETUPS};

/// Loops per analyst replayed in-process by the traced run.
const REPLAY_LOOPS: usize = 3;

/// The Fig. 8 trace at the seed: the default 2,170-host platform and
/// two master-worker applications whose task counts (not the platform)
/// are scaled down so the CSV upload is about 0.4 MB.
pub fn trace_csv(seed: u64) -> (Trace, String) {
    let mut r = Rng::new(seed, 0xE8);
    let platform = generators::grid5000(&Grid5000Config::default()).expect("default platform");
    let apps = vec![
        AppSpec {
            name: "app1".into(),
            master: viva_bench::best_connected_host(&platform, 0),
            config: MwConfig {
                tasks: 120 + r.below(60),
                task_flops: 50_000.0,
                ..MwConfig::cpu_bound()
            },
        },
        AppSpec {
            name: "app2".into(),
            master: viva_bench::best_connected_host(&platform, 1),
            config: MwConfig {
                tasks: 80 + r.below(40),
                task_flops: 20_000.0,
                ..MwConfig::network_bound()
            },
        },
    ];
    let tracing = TracingConfig {
        record_messages: false,
        record_accounts: true,
    };
    let trace = run_master_worker(platform, &apps, Some(tracing))
        .trace
        .expect("traced run");
    let csv = viva_trace::export::to_csv(&trace);
    (trace, csv)
}

pub fn universe(trace: &Trace) -> Universe {
    let tree = trace.containers();
    let names = |kind| {
        tree.of_kind(kind)
            .into_iter()
            .map(|c| tree.node(c).name().to_owned())
            .collect::<Vec<_>>()
    };
    Universe {
        end: trace.end(),
        clusters: names(ContainerKind::Cluster),
        hosts: names(ContainerKind::Host),
    }
}

fn load_line(csv: &str) -> String {
    Command::LoadTrace {
        session: "a1".into(),
        mode: RecoveryMode::Strict,
        text: csv.to_owned(),
        trace: Some("g5k".into()),
    }
    .encode()
}

const ATTACH: &str = r#"{"cmd":"attach","session":"a2","trace":"g5k"}"#;

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (trace, csv) = trace_csv(seed);
    let trace = Arc::new(trace);
    let u = universe(&trace);
    let load = load_line(&csv);
    let mut out = Outcome {
        sizes: format!(
            "{} hosts, {} clusters, {} containers, upload {} bytes ({} CSV bytes), 2 analysts",
            u.hosts.len(),
            u.clusters.len(),
            trace.containers().len(),
            load.len(),
            csv.len()
        ),
        ..Outcome::default()
    };

    // Set-up: the upload and the second analyst's attach, on a fresh
    // server each time; the last one serves the measured run.
    let mut running = None;
    for rep in 0..SETUPS {
        let srv = Running::start(ServerLimits::default());
        let (mut c1, mut c2) = srv.connect_pair(&trace);
        let (t1, reply) = c1.request(&load);
        let ok1 = classify(reply).token == "loaded";
        let (t2, reply) = c2.request(ATTACH);
        let ok2 = classify(reply).token == "attached";
        out.attempted += 2;
        if !(ok1 && ok2) {
            out.failures.push(format!(
                "set-up {rep} failed (load ok: {ok1}, attach ok: {ok2})"
            ));
        }
        out.setup_s.push((t1 + t2).as_secs_f64());
        if rep + 1 < SETUPS {
            drop((c1, c2));
            srv.stop();
        } else {
            running = Some((srv, c1, c2));
        }
    }
    let (srv, c1, c2) = running.expect("at least one set-up");

    // The measured closed loops: two analysts, no think time.
    let barrier = Barrier::new(2);
    let deadline = Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sent>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [(c1, "a1"), (c2, "a2")]
            .into_iter()
            .enumerate()
            .map(|(analyst, (mut client, session))| {
                let (barrier, u) = (&barrier, &u);
                scope.spawn(move || {
                    let (mut sent, mut failures) = (Vec::new(), Vec::new());
                    barrier.wait();
                    let start = Instant::now();
                    'run: for k in 0.. {
                        for cmd in explore_loop(seed, analyst as u64, k, session, u) {
                            if start.elapsed() >= deadline {
                                break 'run;
                            }
                            let line = cmd.encode();
                            let (rtt, reply) = client.request(&line);
                            sent.push(Sent::record(
                                cmd,
                                line,
                                rtt.as_secs_f64() * 1e3,
                                reply,
                                &mut failures,
                            ));
                        }
                    }
                    (sent, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread"))
            .collect()
    });
    for (sent, failures) in results {
        out.attempted += sent.len();
        out.streams.push(sent);
        out.failures.extend(failures);
    }
    let stored = srv
        .server
        .store()
        .get("g5k")
        .expect("the uploaded trace is stored");
    srv.stop();

    // Checks after the run: each analyst's stream replayed into a
    // mirror session over the same shared trace must reproduce every
    // reply byte for byte. In the traced run the mirror's calls are
    // also the core / agg / layout spans, so there the two mirrors run
    // one after the other instead of side by side.
    let check = |s: usize, stream: &[Sent]| {
        let mut m = Mirror::new(Arc::clone(&stored.trace), stored.index.clone());
        let mut log = SpanLog::default();
        let mut bad = Vec::new();
        for (i, sent) in stream.iter().enumerate() {
            let expected = m.apply(&sent.cmd, s * OP_STRIDE + i, traced.then_some(&mut log));
            if let Err(e) = expected.and_then(|line| sent.check(&line)) {
                bad.push(format!("analyst {s} op {i}: {e}"));
            }
        }
        (log, bad, m.frame_stats)
    };
    let mirrors: Vec<(SpanLog, Vec<String>, Vec<crate::mirror::FrameStat>)> = if traced {
        out.streams
            .iter()
            .enumerate()
            .map(|(s, stream)| check(s, stream))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .streams
                .iter()
                .enumerate()
                .map(|(s, stream)| scope.spawn(move || check(s, stream)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mirror thread"))
                .collect()
        })
    };
    let mut logs = Vec::new();
    let mut frames = Vec::new();
    for (log, bad, stats) in mirrors {
        out.failures.extend(bad);
        logs.push(log);
        frames.extend(stats);
    }
    let relax = crate::run::p50_of(&out.streams, Op::Relax).unwrap_or(f64::NAN);
    out.extra.push(metric("relax_p50_ms", relax, "ms"));

    if traced {
        let (layers, replay) = layers(&csv, &load, &out.streams, &logs, &frames, &stored.trace);
        out.layers = layers;
        out.spans.push(("replay".to_owned(), replay.to_tsv()));
        for (s, log) in logs.iter().enumerate() {
            out.spans.push((format!("mirror{s}"), log.to_tsv()));
        }
    }
    out
}

/// The traced run's per-layer numbers for `explore`.
fn layers(
    csv: &str,
    load: &str,
    streams: &[Vec<Sent>],
    mirrors: &[SpanLog],
    frames: &[crate::mirror::FrameStat],
    trace: &Arc<Trace>,
) -> (Vec<Metric>, SpanLog) {
    let mut out = Vec::new();
    // The upload decode at full and half size: 1.0 means linear.
    let half_csv = &csv[..csv[..csv.len() / 2].rfind('\n').expect("multi-line CSV") + 1];
    let half = load_line(half_csv);
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let full_s = time(&|| drop(Command::decode(load).expect("upload decodes")));
    let half_s = time(&|| drop(Command::decode(&half).expect("half upload decodes")));
    out.push(metric("server.decode_ms.load_trace", full_s * 1e3, "ms"));
    out.push(metric(
        "server.decode_scaling",
        full_s / half_s / 2.0,
        "ratio",
    ));
    out.last_mut().expect("pushed").note = format!("{} vs {} bytes", load.len(), half.len());
    let parse = time(&|| {
        let r = TraceLoader::new()
            .budget(ServerLimits::default().load_budget)
            .load_str(csv);
        drop(r.expect("strict parse"));
    });
    out.push(metric("trace.parse_s", parse, "s"));
    out.push(metric(
        "agg.build_s",
        time(&|| drop(AggIndex::build(trace))),
        "s",
    ));

    // In-process replay of the first loops on two fresh servers, one
    // untraced and one traced, both with metrics off like the TCP one.
    let untraced = Server::new(ServerLimits::default());
    let traced = Server::new(ServerLimits::default());
    let cmd = Command::decode(load).expect("upload decodes");
    let t = Instant::now();
    let loaded = traced.execute(cmd.clone());
    out.push(metric(
        "server.execute_ms.load",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    drop(loaded);
    untraced.execute(cmd);
    for s in [&untraced, &traced] {
        s.execute(Command::decode(ATTACH).expect("attach"));
    }
    let prefix = REPLAY_LOOPS * explore_loop(0, 0, 0, "a", &universe(trace)).len();
    let refs: Vec<&[Sent]> = streams.iter().map(Vec::as_slice).collect();
    let replay = Replay::run(&refs, prefix, &untraced, &traced, None);
    out.extend(layer_metrics(&LayerInputs {
        streams,
        prefix,
        replay: &replay,
        mirrors,
        probes: &SpanLog::default(),
    }));

    out.push(metric(
        "server.frame_cache_hit_ratio",
        replay.cache_hit_ratio(),
        "ratio",
    ));
    out.extend(crate::mirror::metrics(mirrors, frames));
    (out, replay.log)
}
