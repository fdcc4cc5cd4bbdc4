//! A frame reply is written in two output modes that must agree. The
//! SVG encoder's JSON-string mode — the body the server caches and
//! splices into a reply — must be byte for byte what the reference
//! codec, [`Response::encode`], makes of the plain SVG document. Labels
//! and metric names are drawn from characters that need an XML escape,
//! a JSON escape, both or neither:
//!
//! 1. a `render` answered through [`Server::handle_line`] is
//!    `Response::Frame { svg: session.render(..), .. }.encode()` for a
//!    plain session over the same trace;
//! 2. a cache hit and a miss differ only in `"cached"`;
//! 3. [`Server::execute`] returns the raw SVG;
//! 4. with pie and tile breakdowns on, `render_json_body` is the JSON
//!    string of `render`.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use viva::{AnalysisSession, Camera, Theme, Viewport};
use viva_server::protocol::{Command, Response};
use viva_server::{content_hash, Server, ServerLimits, StoredTrace};
use viva_trace::{ContainerKind, Trace, TraceBuilder};

/// Characters that need an XML escape, a JSON escape, both, or none.
const ALPHABET: &[char] = &[
    'a', 'Z', ' ', '/', '"', '\\', '&', '<', '>', '\n', '\t', '\u{1}', '\u{7f}', 'é', '🙂',
];

fn word() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 1..6)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `clusters` clusters of `hosts` hosts, named from `names` (an index
/// suffix keeps them unique), hosts chained by links; every host
/// carries `power`, `power_used` and one sample of each of `metrics`.
fn trace(names: &[String], metrics: &[String], clusters: usize, hosts: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    let parts: Vec<_> = metrics.iter().map(|m| b.metric(m.clone(), "MFlop/s")).collect();
    let mut k = 0;
    let mut name = || {
        k += 1;
        format!("{}{k}", names[k % names.len()])
    };
    let mut prev = None;
    for c in 0..clusters {
        let cluster = b.new_container(b.root(), name(), ContainerKind::Cluster).unwrap();
        for h in 0..hosts {
            let host = b.new_container(cluster, name(), ContainerKind::Host).unwrap();
            b.set_variable(0.0, host, power, 100.0).unwrap();
            b.set_variable(0.0, host, used, ((c * hosts + h) % 7) as f64 * 10.0).unwrap();
            for (i, &m) in parts.iter().enumerate() {
                b.set_variable(1.0, host, m, ((h + i) % 5 + 1) as f64).unwrap();
            }
            if let Some(p) = prev {
                b.link(1.0, 2.0, p, host, 8.0).unwrap();
            }
            prev = Some(host);
        }
    }
    b.finish(10.0)
}

/// One frame's presentation: canvas, theme, labels and, for a
/// level-of-detail render, the camera.
#[derive(Debug, Clone)]
struct Frame {
    width: f64,
    height: f64,
    theme: Theme,
    labels: bool,
    camera: Option<(f64, f64, f64)>,
}

fn frame() -> impl Strategy<Value = Frame> {
    (
        (120.0f64..900.0, 100.0f64..700.0),
        (0u8..2, 0u8..2),
        (0u8..3, 0.2f64..8.0),
        (-300.0f64..300.0, -300.0f64..300.0),
    )
        .prop_map(|((width, height), (dark, labels), (classic, zoom), (pan_x, pan_y))| Frame {
            width,
            height,
            theme: if dark == 1 { Theme::Dark } else { Theme::Light },
            labels: labels == 1,
            camera: (classic != 0).then_some((zoom, pan_x, pan_y)),
        })
}

impl Frame {
    fn viewport(&self) -> Viewport {
        let vp = Viewport::new(self.width, self.height)
            .with_theme(self.theme)
            .with_labels(self.labels);
        match self.camera {
            Some((zoom, pan_x, pan_y)) => vp.with_camera(Camera::new(zoom, pan_x, pan_y)),
            None => vp,
        }
    }

    fn command(&self) -> Command {
        Command::Render {
            session: "s".into(),
            width: self.width,
            height: self.height,
            theme: self.theme,
            labels: self.labels,
            zoom: self.camera.map(|c| c.0),
            pan_x: self.camera.map(|c| c.1),
            pan_y: self.camera.map(|c| c.2),
        }
    }
}

/// A server holding `trace` and a session `s` attached to it.
fn server(trace: &Arc<Trace>) -> Server {
    let server = Server::new(ServerLimits::default());
    server.store().insert(
        "t",
        StoredTrace { trace: Arc::clone(trace), index: None, hash: content_hash(b"t"), events: 0 },
    );
    let attach = Command::Attach { session: "s".into(), trace: "t".into() };
    assert!(matches!(server.execute(attach), Response::Attached { .. }));
    server
}

/// The reference line for a frame of `svg`.
fn oracle(revision: u64, cached: bool, svg: String) -> String {
    Response::Frame { revision, cached, svg }.encode()
}

/// Properties 1–3 for one sequence of frames, with a slice change
/// before each frame that asks for one.
fn check_server(
    names: &[String],
    clusters: usize,
    hosts: usize,
    steps: &[(Option<f64>, Frame)],
) -> Result<(), TestCaseError> {
    let trace = Arc::new(trace(names, &[], clusters, hosts));
    let (wire, inproc) = (server(&trace), server(&trace));
    let mut mirror = AnalysisSession::builder(Arc::clone(&trace)).build();
    for (slice, frame) in steps {
        if let Some(start) = *slice {
            let cmd = Command::SetTimeSlice { session: "s".into(), start, end: start + 2.5 };
            prop_assert!(wire.handle_line(&cmd.encode()).is_some());
            inproc.execute(cmd);
            mirror.set_time_slice(viva_agg::TimeSlice::new(start, start + 2.5));
        }
        let svg = mirror.render(&frame.viewport());
        let revision = mirror.revision();
        let line = frame.command().encode();
        let miss = wire.handle_line(&line).expect("a render line has a reply");
        prop_assert_eq!(&miss, &oracle(revision, false, svg.clone()), "{:?}", frame);
        let hit = wire.handle_line(&line).expect("a render line has a reply");
        prop_assert_eq!(&hit, &oracle(revision, true, svg.clone()), "{:?}", frame);
        prop_assert_eq!(hit, miss.replacen(r#""cached":false"#, r#""cached":true"#, 1));
        for cached in [false, true] {
            match inproc.execute(frame.command()) {
                Response::Frame { revision: r, cached: c, svg: s } => {
                    prop_assert_eq!((r, c), (revision, cached));
                    prop_assert_eq!(&s, &svg, "{:?}", frame);
                }
                other => prop_assert!(false, "expected a frame, got {:?}", other),
            }
        }
    }
    Ok(())
}

/// Property 4: with pies and tiles carrying the breakdown metrics.
fn check_breakdown(
    names: &[String],
    metrics: &[String],
    frame: &Frame,
    detail_px: f64,
) -> Result<(), TestCaseError> {
    let mut metrics = metrics.to_vec();
    metrics.sort();
    metrics.dedup();
    let mut session = AnalysisSession::builder(trace(names, &metrics, 3, 4)).build();
    session.set_breakdown_metrics(metrics).expect("every breakdown metric exists");
    let mut vp = frame.viewport();
    if let Some(camera) = vp.camera.take() {
        vp = vp.with_camera(camera.with_detail_px(detail_px));
    }
    let body = session.render_json_body(&vp);
    prop_assert_eq!(
        format!(r#"{{"ok":"frame","revision":0,"cached":false,"svg":{body}}}"#),
        oracle(0, false, session.render(&vp)),
        "{:?}",
        frame
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn wire_frames_match_the_reference_codec(
        names in proptest::collection::vec(word(), 1..6),
        (clusters, hosts) in (1usize..4, 1usize..6),
        steps in proptest::collection::vec(
            ((0u8..3, 0.0f64..7.5), frame())
                .prop_map(|((change, start), f)| ((change == 0).then_some(start), f)),
            1..5,
        ),
    ) {
        check_server(&names, clusters, hosts, &steps)?;
    }

    #[test]
    fn json_body_is_the_json_string_of_the_svg(
        names in proptest::collection::vec(word(), 1..6),
        metrics in proptest::collection::vec(word(), 1..4),
        frame in frame(),
        detail_px in 0.0f64..400.0,
    ) {
        check_breakdown(&names, &metrics, &frame, detail_px)?;
    }
}

/// The properties above only mean something if the frames they draw
/// carry every escaped field: labels, pie metric names and a tile's
/// metric mix, each with every character of the alphabet.
#[test]
fn escaped_fields_are_covered() {
    let all: String = ALPHABET.iter().collect();
    let names = vec![all.clone()];
    let metrics = vec![all.clone()];
    let frame = Frame {
        width: 400.0,
        height: 300.0,
        theme: Theme::Dark,
        labels: true,
        camera: Some((1.0, 0.0, 0.0)),
    };
    let mut session = AnalysisSession::builder(trace(&names, &metrics, 3, 4)).build();
    session.set_breakdown_metrics(metrics.clone()).unwrap();
    let vp = frame.viewport().with_camera(Camera::new(1.0, 0.0, 0.0).with_detail_px(1e4));
    let svg = session.render(&vp);
    assert!(svg.contains("data-mix="), "{svg}");
    let vp = frame.viewport().with_camera(Camera::new(1.0, 0.0, 0.0).with_detail_px(0.0));
    let svg = session.render(&vp);
    assert!(svg.contains("data-metric="), "{svg}");
    assert!(svg.contains("&amp;&lt;&gt;"), "{svg}");
    assert!(svg.contains('\u{1}') && svg.contains('🙂'), "{svg}");
    check_breakdown(&names, &metrics, &frame, 1e4).unwrap();
    check_breakdown(&names, &metrics, &frame, 0.0).unwrap();
    check_server(&names, 3, 4, &[(None, frame.clone()), (Some(1.0), frame)]).unwrap();
}
