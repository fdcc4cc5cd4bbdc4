//! Seeded command generators. Every command a workload sends is a pure
//! function of `--seed`, the workload's fixed sizes and the loop index,
//! never of a response — so a closed loop's command bytes repeat, and
//! the checks after the run can replay them into an oracle.

use viva::Theme;
use viva_server::Command;

use crate::stats::Rng;

/// The names and extent a generator draws from (taken from the trace
/// the workload built, before the measured run).
#[derive(Debug, Clone)]
pub struct Universe {
    pub end: f64,
    pub clusters: Vec<String>,
    pub hosts: Vec<String>,
}

pub fn render(session: &str, width: f64, height: f64, camera: Option<(f64, f64, f64)>) -> Command {
    Command::Render {
        session: session.to_owned(),
        width,
        height,
        theme: Theme::Light,
        labels: false,
        zoom: camera.map(|c| c.0),
        pan_x: camera.map(|c| c.1),
        pan_y: camera.map(|c| c.2),
    }
}

/// One `explore` loop of one analyst: the paper's interaction — drag
/// the time slice, walk the hierarchy levels, aggregate, collapse and
/// re-expand a cluster, drag a node, move the force sliders, relax,
/// and re-render once unchanged (a frame-cache hit). Every uncached
/// frame is drawn at host level: each follows an `expand_all` or a
/// collapse that was expanded again.
pub fn explore_loop(seed: u64, analyst: u64, k: u64, session: &str, u: &Universe) -> Vec<Command> {
    let mut r = Rng::new(seed, (analyst << 32) | k);
    let s = || session.to_owned();
    let frame = || render(session, 1280.0, 720.0, None);
    let start = r.range(0.0, u.end * 0.7);
    let width = r.range(u.end * 0.05, u.end * 0.3);
    let cluster = u.clusters[r.below(u.clusters.len())].clone();
    vec![
        Command::SetTimeSlice {
            session: s(),
            start,
            end: start + width,
        },
        frame(),
        Command::CollapseAtDepth {
            session: s(),
            depth: 1 + (k % 3) as u32,
        },
        Command::ExpandAll { session: s() },
        frame(),
        Command::Aggregate {
            session: s(),
            metric: "power_used".to_owned(),
            group: u.clusters[r.below(u.clusters.len())].clone(),
        },
        Command::Collapse {
            session: s(),
            container: cluster.clone(),
        },
        Command::Expand {
            session: s(),
            container: cluster,
        },
        Command::Drag {
            session: s(),
            container: u.hosts[r.below(u.hosts.len())].clone(),
            x: r.range(-400.0, 400.0),
            y: r.range(-300.0, 300.0),
        },
        Command::SetForces {
            session: s(),
            repulsion: Some(r.range(300.0, 500.0)),
            spring: Some(r.range(1.0, 3.0)),
            damping: Some(r.range(0.5, 0.7)),
        },
        Command::Relax {
            session: s(),
            steps: 5,
        },
        frame(),
        frame(),
    ]
}

/// One `zoom100k` loop: move the slice to the next window, then draw
/// `fig_scale`'s cameras at 1280×720 — four dense mid-zooms (zoom 16)
/// at different pans, one overview, one deep zoom. Windows never repeat back to back, so
/// every frame is a cache miss.
pub fn zoom_loop(seed: u64, k: u64, session: &str, steps: u64) -> Vec<Command> {
    let mut r = Rng::new(seed, k);
    let span = steps - 10;
    let start = ((k * 13) % span) as f64;
    let end = start + 5.0 + r.below(5) as f64;
    let mut pan = || {
        (
            200.0 + r.range(-120.0, 120.0),
            -120.0 + r.range(-80.0, 80.0),
        )
    };
    let mut cmds = vec![Command::SetTimeSlice {
        session: session.to_owned(),
        start,
        end,
    }];
    for _ in 0..4 {
        let (x, y) = pan();
        cmds.push(render(session, 1280.0, 720.0, Some((16.0, x, y))));
    }
    cmds.push(render(session, 1280.0, 720.0, Some((1.0, 0.0, 0.0))));
    let (x, y) = pan();
    cmds.push(render(session, 1280.0, 720.0, Some((64.0, x, y))));
    cmds
}

/// The body of `ingest` append `seq` (≥ 2): `samples` `power_used`
/// samples at time `seq - 1`, on seeded hosts (container ids).
pub fn append_text(seed: u64, seq: u64, hosts: &[u32], samples: usize) -> String {
    let mut r = Rng::new(seed, seq);
    let mut text = String::with_capacity(samples * 24);
    for i in 0..samples {
        let host = hosts[r.below(hosts.len())];
        let v = r.below(100);
        text.push_str(&format!("var,{},{host},1,{v}", seq - 1));
        if i + 1 < samples {
            text.push('\n');
        }
    }
    text
}

/// The `ingest` reader's command `i`: in turn, the slice to the
/// trailing `window` ending at append `end`, a render, and an
/// aggregate over one site.
pub fn reader_command(i: u64, end: f64, window: f64, session: &str, sites: &[String]) -> Command {
    let end = end.max(1.0);
    match i % 3 {
        0 => Command::SetTimeSlice {
            session: session.to_owned(),
            start: (end - window).max(0.0),
            end,
        },
        1 => render(session, 1280.0, 720.0, None),
        _ => Command::Aggregate {
            session: session.to_owned(),
            metric: "power_used".to_owned(),
            group: sites[(i / 3) as usize % sites.len()].clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            end: 120.5,
            clusters: (0..7).map(|i| format!("c{i}")).collect(),
            hosts: (0..50).map(|i| format!("h{i}")).collect(),
        }
    }

    fn bytes(cmds: Vec<Command>) -> String {
        cmds.iter().map(|c| c.encode() + "\n").collect()
    }

    fn all(seed: u64) -> String {
        let u = universe();
        let mut out = String::new();
        for k in 0..4 {
            out += &bytes(explore_loop(seed, 0, k, "a", &u));
            out += &bytes(explore_loop(seed, 1, k, "b", &u));
            out += &bytes(zoom_loop(seed, k, "z", 99));
            out += &append_text(seed, k + 2, &[3, 5, 8], 40);
            out += &bytes(
                (0..3)
                    .map(|i| {
                        reader_command(
                            3 * k + i,
                            40.0 * k as f64,
                            500.0,
                            "live",
                            &["s0".to_owned()],
                        )
                    })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(all(7), all(7));
        assert_ne!(all(7), all(8));
        // Each seeded generator differs on its own, too.
        let u = universe();
        assert_ne!(
            bytes(explore_loop(1, 0, 0, "a", &u)),
            bytes(explore_loop(2, 0, 0, "a", &u))
        );
        assert_ne!(
            bytes(zoom_loop(1, 0, "z", 99)),
            bytes(zoom_loop(2, 0, "z", 99))
        );
        assert_ne!(
            append_text(1, 2, &[3, 5, 8], 40),
            append_text(2, 2, &[3, 5, 8], 40)
        );
    }

    #[test]
    fn zoom_windows_never_repeat_back_to_back() {
        for k in 0..200 {
            let a = zoom_loop(3, k, "z", 99);
            let b = zoom_loop(3, k + 1, "z", 99);
            assert_ne!(a[0], b[0]);
            assert_eq!(a.len(), 7);
        }
    }
}
