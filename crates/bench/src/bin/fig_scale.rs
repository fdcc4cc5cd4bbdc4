//! Scale benchmark — the 100k-host/10M-event gate for the columnar
//! store + level-of-detail rendering subsystem.
//!
//! The paper stops at 2,170 hosts; the ROADMAP's north star is
//! 100k–1M. This harness builds a synthetic 100k-host grid trace with
//! 10M variable events and gates the two properties that make that
//! scale interactive:
//!
//! 1. **columnar memory** — signal storage (SoA breakpoint columns)
//!    must stay ≤ 0.6× the row-of-structs baseline
//!    (`events × size_of::<Event>()`), the Layer-1 claim;
//! 2. **interaction latency** — a time-slice change and a
//!    level-of-detail render (camera attached, tiles standing in for
//!    sub-resolution subtrees) must each stay under 16 ms, the 60 Hz
//!    frame budget, the Layer-2 claim — the dense mid-zoom included.
//!    The one-tile overview must stay under 1 ms: with the frame
//!    geometry cached per layout generation, a frame costs what it
//!    draws, not what the trace holds.
//!
//! The first render after the session build (and any render after a
//! layout change) pays for the frame geometry; it is reported on its
//! own, with a per-phase breakdown (`lod.geometry`, `lod.cut`,
//! `svg.encode`, the phase spans the session records) beside the warm
//! dense frame's, so work moved into the cache stays visible.
//!
//! Full mode asserts both gates and writes `BENCH_scale.json`;
//! `--small` is the CI smoke mode: same pipeline and the (scale-free,
//! deterministic) memory-ratio and tiling assertions, no timing gates
//! (CI boxes are loaded), committed JSON left alone.

use std::time::Instant;

use viva::{AnalysisSession, Camera, SessionBuilder, Viewport};
use viva_agg::TimeSlice;
use viva_obs::{Recorder, Tracer};
use viva_trace::{ContainerKind, Event, Trace, TraceBuilder};

struct Scale {
    sites: usize,
    clusters: usize,
    hosts: usize,
    steps: usize,
    windows: usize,
}

/// 10 × 10 × 1000 = 100,000 hosts; 1 power + `steps` load samples per
/// host = 10,000,000 variable events.
const FULL: Scale = Scale { sites: 10, clusters: 10, hosts: 1000, steps: 99, windows: 8 };
const SMALL: Scale = Scale { sites: 2, clusters: 2, hosts: 25, steps: 20, windows: 4 };

/// A wide grid trace with exactly representable values (constant
/// `power`, `power_used` stepping through multiples of 10 at integer
/// times), the same construction fig_interactivity uses — integrals
/// stay integers, so aggregate comparisons cannot drift by an ulp.
fn build_trace(s: &Scale) -> (Trace, usize) {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    let mut events = 0usize;
    let mut host_no = 0usize;
    for si in 0..s.sites {
        let site = b
            .new_container(b.root(), format!("site{si}"), ContainerKind::Site)
            .expect("site");
        for ci in 0..s.clusters {
            let cluster = b
                .new_container(site, format!("s{si}c{ci}"), ContainerKind::Cluster)
                .expect("cluster");
            for hi in 0..s.hosts {
                let host = b
                    .new_container(cluster, format!("s{si}c{ci}h{hi}"), ContainerKind::Host)
                    .expect("host");
                b.set_variable(0.0, host, power, 100.0).expect("power");
                events += 1;
                for t in 1..=s.steps {
                    let v = (((t + host_no * 7) % 11) * 10) as f64;
                    b.set_variable(t as f64, host, used, v).expect("used");
                    events += 1;
                }
                host_no += 1;
            }
        }
    }
    (b.finish(s.steps as f64), events)
}

/// The slice windows the latency sweep drags through (integer bounds,
/// exactly representable).
fn windows(s: &Scale) -> Vec<TimeSlice> {
    (0..s.windows)
        .map(|i| {
            let width = 1 + (i % 3) * (s.steps / 4).max(1);
            let start = (i * s.steps / s.windows).min(s.steps - 1);
            TimeSlice::new(start as f64, (start + width).min(s.steps) as f64)
        })
        .collect()
}

/// Median of a sample set (sorted copy; ties resolve low).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// The phases a camera frame splits into, as the session names its
/// spans.
const PHASES: [&str; 3] = ["lod.geometry", "lod.cut", "svg.encode"];

/// Per-phase medians of `renders` traced frames: each frame runs under
/// its own sampled root span, `prepare` runs before it, outside the
/// root. A phase a frame did not record counts as 0 ms for it. Also
/// returns the median wall time of the whole render.
fn phase_breakdown(
    session: &mut AnalysisSession,
    tracer: &Tracer,
    viewport: &Viewport,
    renders: usize,
    prepare: &dyn Fn(&mut AnalysisSession),
) -> (f64, Vec<(&'static str, f64)>) {
    let (before, _) = tracer.finished_spans();
    let mut total = Vec::with_capacity(renders);
    for _ in 0..renders {
        prepare(session);
        let root = tracer.root(0, "render", "");
        let t0 = Instant::now();
        std::hint::black_box(session.render(viewport));
        total.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(root);
    }
    let (spans, dropped) = tracer.finished_spans();
    assert_eq!(dropped, 0, "span ring overflowed");
    let spans = &spans[before.len()..];
    let phases = PHASES
        .iter()
        .map(|&name| {
            let mut per_frame: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "render")
                .map(|root| {
                    spans
                        .iter()
                        .filter(|s| s.trace_id == root.trace_id && s.name == name)
                        .fold(0.0, |ms, s| ms + s.duration_ns() as f64 / 1e6)
                })
                .collect();
            (name, median(&mut per_frame))
        })
        .collect();
    (median(&mut total), phases)
}

/// `{ "total": t, "lod.geometry": g, ... }` for BENCH_scale.json.
fn phases_json(total: f64, phases: &[(&str, f64)]) -> String {
    let mut out = format!("{{ \"total\": {total:.3}");
    for (name, ms) in phases {
        out.push_str(&format!(", \"{name}\": {ms:.3}"));
    }
    out.push_str(" }");
    out
}

fn print_phases(label: &str, total: f64, phases: &[(&str, f64)]) {
    let parts: Vec<String> = phases.iter().map(|(n, ms)| format!("{n} {ms:.2}")).collect();
    println!("  {label}: {total:.2} ms = {} ms + scene build", parts.join(" + "));
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { SMALL } else { FULL };
    let hosts = scale.sites * scale.clusters * scale.hosts;

    let t0 = Instant::now();
    let (trace, events) = build_trace(&scale);
    let gen_s = t0.elapsed().as_secs_f64();
    let events_per_s = events as f64 / gen_s;
    println!(
        "Scale: {} hosts, {} events ({} mode); generated in {:.2} s ({:.1}M events/s)",
        hosts,
        events,
        if small { "smoke" } else { "full" },
        gen_s,
        events_per_s / 1e6
    );
    if !small {
        assert!(hosts >= 100_000, "full mode must exercise >= 100k hosts, got {hosts}");
        assert!(events >= 10_000_000, "full mode must exercise >= 10M events, got {events}");
    }

    // --- Layer 1 gate: columnar memory vs the row baseline -----------
    let row_bytes = events * std::mem::size_of::<Event>();
    let col_bytes = trace.signal_bytes();
    let ratio = col_bytes as f64 / row_bytes as f64;
    println!(
        "  memory: columnar {:.1} MB vs row baseline {:.1} MB (ratio {:.3})",
        col_bytes as f64 / 1e6,
        row_bytes as f64 / 1e6,
        ratio
    );
    assert!(
        ratio <= 0.6,
        "columnar storage ratio {ratio:.3} above the 0.6x gate \
         ({col_bytes} vs {row_bytes} bytes)"
    );

    // Phase spans are recorded only under a sampled root, so the timed
    // sweeps below (no root) run with tracing effectively off; the
    // breakdown passes open one root per frame.
    let tracer = Tracer::enabled(1, 0, 1);
    let t0 = Instant::now();
    let mut session: AnalysisSession = SessionBuilder::new(trace)
        .recorder(Recorder::disabled().with_tracer(tracer.clone()))
        .build();
    println!("  session build (aggregation index + layout seed): {:.2} s", {
        t0.elapsed().as_secs_f64()
    });

    // --- Layer 2 gate: slice change + LoD render under 16 ms ---------
    // The interactive loop at this scale is: drag the cursor
    // (set_time_slice) and re-render through the camera — the LoD cut
    // materializes only readable nodes plus O(clusters) tile
    // aggregates, never the 100k-host frontier.
    let overview = Viewport::new(1280.0, 720.0).with_camera(Camera::new(1.0, 0.0, 0.0));
    let zoomed = Viewport::new(1280.0, 720.0).with_camera(Camera::new(64.0, 200.0, -120.0));
    // A mid-zoom over a hierarchy-uncorrelated random layout: ~100
    // clusters overlap the canvas, so thousands of nodes are genuinely
    // readable and must be drawn.
    let dense = Viewport::new(1280.0, 720.0).with_camera(Camera::new(16.0, 200.0, -120.0));

    // The very first camera frame builds the frame geometry (and warms
    // the aggregate cache): timed once, on its own.
    let (first_ms, first_phases) = phase_breakdown(&mut session, &tracer, &dense, 1, &|_| {});
    print_phases("first render (cold geometry, cold aggregates)", first_ms, &first_phases);

    let view = session.view_lod(&overview);
    println!(
        "  overview scene: {} real nodes, {} tiles (of {} frontier nodes)",
        view.nodes.len(),
        view.tiles.len(),
        hosts + scale.sites * scale.clusters + scale.sites
    );
    let zoomed_view = session.view_lod(&zoomed);
    println!(
        "  zoomed scene: {} real nodes, {} tiles",
        zoomed_view.nodes.len(),
        zoomed_view.tiles.len()
    );
    let dense_view = session.view_lod(&dense);
    println!(
        "  dense scene: {} real nodes, {} tiles",
        dense_view.nodes.len(),
        dense_view.tiles.len()
    );
    if !small {
        assert!(
            view.nodes.len() + view.tiles.len() < hosts,
            "LoD overview must materialize fewer elements than the host count"
        );
        assert!(!view.tiles.is_empty(), "100k hosts at 1280x720 must tile");
    }

    let ws = windows(&scale);
    let mut slice_ms = Vec::with_capacity(ws.len());
    let mut over_ms = Vec::with_capacity(ws.len());
    let mut zoom_ms = Vec::with_capacity(ws.len());
    let mut dense_ms = Vec::with_capacity(ws.len());
    // Warm-up render so allocator and cache effects land outside the
    // timed sweep.
    std::hint::black_box(session.render(&overview));
    for &w in &ws {
        let t0 = Instant::now();
        session.set_time_slice(w);
        slice_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(session.render(&overview));
        over_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(session.render(&zoomed));
        zoom_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(session.render(&dense));
        dense_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let slice_med = median(&mut slice_ms);
    let over_med = median(&mut over_ms);
    let zoom_med = median(&mut zoom_ms);
    let dense_med = median(&mut dense_ms);
    println!(
        "  latency over {} windows (median): slice change {:.2} ms, \
         LoD render {:.2} ms overview / {:.2} ms deep zoom / {:.2} ms dense mid-zoom",
        ws.len(),
        slice_med,
        over_med,
        zoom_med,
        dense_med
    );
    let renders = ws.len();
    let (warm_ms, warm_phases) = phase_breakdown(&mut session, &tracer, &dense, renders, &|_| {});
    print_phases("dense frame", warm_ms, &warm_phases);
    // `layout_mut` counts as a layout change: the next frame rebuilds
    // the geometry over warm aggregates.
    let (cold_ms, cold_phases) = phase_breakdown(&mut session, &tracer, &dense, renders, &|s| {
        s.layout_mut();
    });
    print_phases("dense frame after a layout change", cold_ms, &cold_phases);

    if small {
        println!("  smoke mode: memory and tiling gates passed, timings not asserted");
        return;
    }

    assert!(slice_med < 16.0, "slice change {slice_med:.2} ms breaches the 16 ms budget");
    assert!(over_med < 16.0, "LoD overview render {over_med:.2} ms breaches the 16 ms budget");
    assert!(zoom_med < 16.0, "LoD zoomed render {zoom_med:.2} ms breaches the 16 ms budget");
    assert!(dense_med <= 16.0, "LoD dense render {dense_med:.2} ms breaches the 16 ms budget");
    assert!(over_med <= 1.0, "LoD overview render {over_med:.2} ms breaches its 1 ms budget");

    let json = format!(
        "{{\n  \"benchmark\": \"scale\",\n  \"trace\": {{ \"hosts\": {hosts}, \"events\": {events} }},\n  \"generator\": {{ \"seconds\": {gen_s:.3}, \"events_per_sec\": {events_per_s:.0} }},\n  \"memory\": {{\n    \"row_baseline_bytes\": {row_bytes},\n    \"columnar_bytes\": {col_bytes},\n    \"ratio\": {ratio:.4},\n    \"gate\": 0.6\n  }},\n  \"latency_ms\": {{\n    \"slice_change\": {slice_med:.3},\n    \"lod_render_overview\": {over_med:.3},\n    \"lod_render_zoomed\": {zoom_med:.3},\n    \"lod_render_dense\": {dense_med:.3},\n    \"lod_render_first\": {first_ms:.3},\n    \"gate\": 16.0,\n    \"overview_gate\": 1.0\n  }},\n  \"phases_ms\": {{\n    \"first\": {},\n    \"dense\": {},\n    \"dense_after_layout_change\": {}\n  }},\n  \"scene\": {{ \"overview_nodes\": {}, \"overview_tiles\": {}, \"zoomed_nodes\": {}, \"zoomed_tiles\": {}, \"dense_nodes\": {}, \"dense_tiles\": {} }}\n}}\n",
        phases_json(first_ms, &first_phases),
        phases_json(warm_ms, &warm_phases),
        phases_json(cold_ms, &cold_phases),
        view.nodes.len(),
        view.tiles.len(),
        zoomed_view.nodes.len(),
        zoomed_view.tiles.len(),
        dense_view.nodes.len(),
        dense_view.tiles.len()
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("  [json] BENCH_scale.json");
}
