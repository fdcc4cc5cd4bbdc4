//! `zoom100k`: one analyst panning and zooming a 100,000-host trace
//! (`fig_scale`'s 10 × 10 × 1000 grid, 99 steps, 10M events), built
//! in-process and registered in the server's trace store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use viva_agg::AggIndex;
use viva_server::{content_hash, Server, ServerLimits, StoredTrace};
use viva_trace::{ContainerKind, Trace, TraceBuilder};

use crate::mirror::Mirror;
use crate::run::{layer_metrics, metric, LayerInputs, Replay, Sent};
use crate::script::zoom_loop;
use crate::spans::SpanLog;
use crate::stats::{median, Rng};
use crate::wire::{classify, Running};
use crate::{Outcome, SETUPS};

const SITES: usize = 10;
const CLUSTERS: usize = 10;
const HOSTS: usize = 1000;
const STEPS: usize = 99;
/// Loops replayed in-process by the traced run.
const REPLAY_LOOPS: usize = 4;

const ATTACH: &str = r#"{"cmd":"attach","session":"z","trace":"grid100k"}"#;

/// `fig_scale`'s trace with seeded sample phases: constant `power`,
/// `power_used` stepping through multiples of ten at integer times.
pub fn build_trace(seed: u64) -> Trace {
    let phase = Rng::new(seed, 0x100).below(11);
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    let mut host_no = 0usize;
    for si in 0..SITES {
        let site = b
            .new_container(b.root(), format!("site{si}"), ContainerKind::Site)
            .expect("site");
        for ci in 0..CLUSTERS {
            let cluster = b
                .new_container(site, format!("s{si}c{ci}"), ContainerKind::Cluster)
                .expect("cluster");
            for hi in 0..HOSTS {
                let host = b
                    .new_container(cluster, format!("s{si}c{ci}h{hi}"), ContainerKind::Host)
                    .expect("host");
                b.set_variable(0.0, host, power, 100.0).expect("power");
                for t in 1..=STEPS {
                    let v = (((t + host_no * 7 + phase) % 11) * 10) as f64;
                    b.set_variable(t as f64, host, used, v).expect("used");
                }
                host_no += 1;
            }
        }
    }
    b.finish(STEPS as f64)
}

fn register(server: &Server, trace: Arc<Trace>, index: Arc<AggIndex>) {
    let events = (SITES * CLUSTERS * HOSTS * (STEPS + 1)) as u64;
    // The store only reads the hash back through `list_traces` and
    // checkpoint re-links, neither of which this workload uses.
    let hash = content_hash(b"grid100k");
    server.store().insert(
        "grid100k",
        StoredTrace {
            trace,
            index: Some(index),
            hash,
            events,
        },
    );
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        sizes: format!(
        "{} hosts ({SITES} sites x {CLUSTERS} clusters x {HOSTS}), {STEPS} steps, {} events, 1 analyst, 1280x720",
        SITES * CLUSTERS * HOSTS,
        SITES * CLUSTERS * HOSTS * (STEPS + 1)
    ),
        ..Outcome::default()
    };
    let mut build = (Vec::new(), Vec::new());
    let mut running = None;
    for rep in 0..SETUPS {
        let srv = Running::start(ServerLimits::default());
        let mut client = srv.connect();
        let t = Instant::now();
        let trace = Arc::new(build_trace(seed));
        let built = t.elapsed();
        let index = Arc::new(AggIndex::build(&trace));
        let indexed = t.elapsed() - built;
        register(&srv.server, Arc::clone(&trace), Arc::clone(&index));
        let (_, reply) = client.request(ATTACH);
        let ok = classify(reply).token == "attached";
        out.setup_s.push(t.elapsed().as_secs_f64());
        build.0.push(built.as_secs_f64());
        build.1.push(indexed.as_secs_f64());
        out.attempted += 1;
        if !ok {
            out.failures.push(format!("set-up {rep}: attach failed"));
        }
        if rep + 1 < SETUPS {
            // Free this copy before building the next: one 10M-event
            // trace alive at a time.
            drop(client);
            srv.stop();
        } else {
            running = Some((srv, client, trace, index));
        }
    }
    let (srv, mut client, trace, index) = running.expect("at least one set-up");

    let deadline = Duration::from_secs_f64(seconds);
    let mut sent = Vec::new();
    let t0 = Instant::now();
    'run: for k in 0.. {
        for cmd in zoom_loop(seed, k, "z", STEPS as u64) {
            if t0.elapsed() >= deadline {
                break 'run;
            }
            let line = cmd.encode();
            let (rtt, reply) = client.request(&line);
            sent.push(Sent::record(
                cmd,
                line,
                rtt.as_secs_f64() * 1e3,
                reply,
                &mut out.failures,
            ));
        }
    }
    out.attempted += sent.len();
    drop(client);
    srv.stop();

    let mut mirror = Mirror::new(Arc::clone(&trace), Some(Arc::clone(&index)));
    let mut log = SpanLog::default();
    for (i, s) in sent.iter().enumerate() {
        let expected = mirror.apply(&s.cmd, i, traced.then_some(&mut log));
        if let Err(e) = expected.and_then(|line| s.check(&line)) {
            out.failures.push(format!("op {i}: {e}"));
        }
    }
    out.streams.push(sent);

    if traced {
        out.layers.push(metric(
            "trace.build_s",
            median(&build.0).expect("set-ups"),
            "s",
        ));
        out.layers.push(metric(
            "agg.build_s",
            median(&build.1).expect("set-ups"),
            "s",
        ));
        let (untraced, traced_srv) = (
            Server::new(ServerLimits::default()),
            Server::new(ServerLimits::default()),
        );
        let mut attach_ms = 0.0;
        for s in [&untraced, &traced_srv] {
            register(s, Arc::clone(&trace), Arc::clone(&index));
            let t = Instant::now();
            let reply = s.handle_line(ATTACH).expect("reply");
            attach_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(classify(reply.as_bytes()).token, "attached");
        }
        out.layers
            .push(metric("server.execute_ms.load", attach_ms, "ms"));
        let prefix = REPLAY_LOOPS * zoom_loop(0, 0, "z", STEPS as u64).len();
        let refs: Vec<&[Sent]> = out.streams.iter().map(Vec::as_slice).collect();
        let replay = Replay::run(&refs, prefix, &untraced, &traced_srv, None);
        let mirrors = [log];
        out.layers.extend(layer_metrics(&LayerInputs {
            streams: &out.streams,
            prefix,
            replay: &replay,
            mirrors: &mirrors,
            probes: &SpanLog::default(),
        }));
        out.layers.push(metric(
            "server.frame_cache_hit_ratio",
            replay.cache_hit_ratio(),
            "ratio",
        ));
        out.layers
            .extend(crate::mirror::metrics(&mirrors, &mirror.frame_stats));
        out.spans.push(("replay".to_owned(), replay.log.to_tsv()));
        out.spans.push(("mirror".to_owned(), mirrors[0].to_tsv()));
    }
    drop(trace);
    out
}
