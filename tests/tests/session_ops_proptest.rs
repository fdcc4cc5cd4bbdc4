//! Stateful property tests: arbitrary interactive sessions (collapse /
//! expand / level jumps / drags / slice changes / camera renders)
//! never break the session's invariants, and a session whose
//! level-of-detail geometry cache was kept warm through them renders
//! exactly what a cold replay of the same gestures renders.

use proptest::prelude::*;
use viva::{AnalysisSession, Camera, Viewport};
use viva_agg::TimeSlice;
use viva_layout::{NodeKey, Vec2};
use viva_platform::generators::{self, Grid5000Config};
use viva_simflow::TracingConfig;
use viva_trace::ContainerId;
use viva_workloads::{run_master_worker, AppSpec, MwConfig};

/// One interactive gesture.
#[derive(Debug, Clone)]
enum Op {
    Collapse(usize),
    Expand(usize),
    Level(u32),
    ExpandAll,
    Drag(usize, f64, f64),
    Slice(f64, f64),
    Relax(usize),
    /// A camera frame; also sets the camera later frames use.
    Render { zoom: f64, pan_x: f64, pan_y: f64 },
    Release(usize),
    /// A node moved straight through `layout_mut()`.
    LayoutMut(usize, f64, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Collapse),
        (0usize..64).prop_map(Op::Expand),
        (0u32..4).prop_map(Op::Level),
        Just(Op::ExpandAll),
        (0usize..64, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(i, x, y)| Op::Drag(i, x, y)),
        (0.0f64..0.8, 0.05f64..0.2).prop_map(|(a, w)| Op::Slice(a, w)),
        (1usize..10).prop_map(Op::Relax),
        (0.5f64..8.0, -300.0f64..300.0, -300.0f64..300.0)
            .prop_map(|(zoom, pan_x, pan_y)| Op::Render { zoom, pan_x, pan_y }),
        (0usize..64).prop_map(Op::Release),
        (0usize..64, -50.0f64..50.0, -50.0f64..50.0).prop_map(|(i, x, y)| Op::LayoutMut(i, x, y)),
    ]
}

/// Applies one gesture. Renders change nothing; they only move the
/// camera of later frames.
fn apply(session: &mut AnalysisSession, op: &Op, camera: &mut Camera) {
    let n_containers = session.trace().containers().len();
    let id = |i: usize| ContainerId::from_index(i % n_containers);
    let makespan = session.trace().end();
    match *op {
        Op::Collapse(i) => {
            let _ = session.collapse(id(i));
        }
        Op::Expand(i) => {
            let _ = session.expand(id(i));
        }
        Op::Level(d) => session.collapse_at_depth(d),
        Op::ExpandAll => session.expand_all(),
        Op::Drag(i, x, y) => {
            let _ = session.drag(id(i), Vec2::new(x, y));
        }
        Op::Slice(a, w) => {
            let s = a * makespan;
            session.set_time_slice(TimeSlice::new(s, s + w * makespan));
        }
        Op::Relax(n) => {
            session.relax(n);
        }
        Op::Render { zoom, pan_x, pan_y } => *camera = Camera::new(zoom, pan_x, pan_y),
        Op::Release(i) => {
            let _ = session.release(id(i));
        }
        Op::LayoutMut(i, x, y) => {
            session.layout_mut().move_node(NodeKey(id(i).index() as u64), Vec2::new(x, y));
        }
    }
}

fn frame(camera: Camera) -> Viewport {
    Viewport::new(640.0, 480.0).with_camera(camera)
}

fn build_session() -> AnalysisSession {
    let p = generators::grid5000(&Grid5000Config {
        total_hosts: 24,
        sites: 3,
        ..Default::default()
    })
    .unwrap();
    let apps = vec![AppSpec {
        name: "app1".into(),
        master: p.hosts()[0].id(),
        config: MwConfig { tasks: 30, ..Default::default() },
    }];
    let run = run_master_worker(
        p.clone(),
        &apps,
        Some(TracingConfig { record_messages: false, record_accounts: false }),
    );
    AnalysisSession::builder(run.trace.unwrap()).platform(&p).build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_sessions_keep_invariants(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        let mut session = build_session();
        let total_leaves = session
            .trace()
            .containers()
            .leaves_under(session.trace().containers().root())
            .len();
        let mut camera = Camera::default();

        for op in ops {
            apply(&mut session, &op, &mut camera);

            let view = session.view();
            // Invariant 1: the layout holds exactly the visible nodes.
            prop_assert_eq!(session.layout().len(), view.nodes.len());
            // Invariant 2: visible nodes partition the leaves.
            let tree = session.trace().containers();
            let covered: usize = view
                .nodes
                .iter()
                .map(|n| tree.leaves_under(n.container).len())
                .sum();
            prop_assert_eq!(covered, total_leaves);
            // Invariant 3: every edge endpoint is a visible node and
            // edges are unique, non-self.
            let mut seen = std::collections::HashSet::new();
            for e in &view.edges {
                prop_assert!(view.node(e.a).is_some(), "dangling edge endpoint");
                prop_assert!(view.node(e.b).is_some(), "dangling edge endpoint");
                prop_assert!(e.a != e.b, "self edge");
                prop_assert!(seen.insert((e.a, e.b)), "duplicate edge");
            }
            // Invariant 4: every node's visuals are sane.
            for n in &view.nodes {
                prop_assert!((0.0..=1.0).contains(&n.fill_fraction));
                prop_assert!(n.px_size >= 2.0, "min pixel size");
                prop_assert!(n.position.is_finite(), "finite positions");
                prop_assert!(n.members >= 1);
            }
        }
    }

    /// The level-of-detail geometry cache never serves a stale frame:
    /// one session renders a camera frame after every gesture, so its
    /// cache is always warm (and stale, if a gesture that moved nodes
    /// or changed the frontier forgot to invalidate it); a second
    /// session replays the same gestures and renders once, cold. Both
    /// must produce the same bytes.
    #[test]
    fn warm_geometry_cache_renders_like_a_cold_replay(
        ops in proptest::collection::vec(op_strategy(), 1..25),
    ) {
        let mut warm = build_session();
        let mut camera = Camera::default();
        for op in &ops {
            apply(&mut warm, op, &mut camera);
            warm.render(&frame(camera));
        }
        let mut cold = build_session();
        let mut cold_camera = Camera::default();
        for op in &ops {
            apply(&mut cold, op, &mut cold_camera);
        }
        prop_assert_eq!(warm.render(&frame(camera)), cold.render(&frame(cold_camera)));
    }
}
