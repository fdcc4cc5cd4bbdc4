//! The oracle: a mirror `AnalysisSession` over the server's shared
//! trace, driven through the library's public API. Fed the same
//! commands in the same order, it predicts every response line the
//! server must send; in the traced run its calls are also the spans
//! that split the core, agg and layout layers.

use std::sync::Arc;

use viva::{AnalysisSession, Camera, Viewport};
use viva_agg::AggIndex;
use viva_layout::Vec2;
use viva_server::{Command, Response};
use viva_trace::{ContainerId, Trace};

use crate::run::{metric, Metric};
use crate::spans::SpanLog;
use crate::stats::median;

/// Frame statistics the traced run reports per camera class.
#[derive(Debug, Default, Clone)]
pub struct FrameStat {
    pub class: &'static str,
    pub view_ms: f64,
    pub svg_ms: f64,
    pub nodes: usize,
    pub tiles: usize,
    pub svg_bytes: usize,
}

pub struct Mirror {
    pub session: AnalysisSession,
    /// Frames rendered at the current revision, keyed by the render
    /// command: the server's frame cache can only hit these (revisions
    /// only grow).
    frames: Vec<(String, String)>,
    frames_rev: u64,
    pub frame_stats: Vec<FrameStat>,
}

pub fn camera_class(zoom: Option<f64>) -> &'static str {
    match zoom {
        None => "classic",
        Some(z) if z <= 1.0 => "overview",
        Some(z) if z <= 16.0 => "dense",
        Some(_) => "deep",
    }
}

impl Mirror {
    pub fn new(trace: Arc<Trace>, index: Option<Arc<AggIndex>>) -> Mirror {
        let mut b = AnalysisSession::builder(trace);
        if let Some(index) = index {
            b = b.shared_index(index);
        }
        Mirror {
            session: b.build(),
            frames: Vec::new(),
            frames_rev: 0,
            frame_stats: Vec::new(),
        }
    }

    fn id(&self, name: &str) -> Result<ContainerId, String> {
        self.session
            .trace()
            .containers()
            .by_name(name)
            .map(|c| c.id())
            .ok_or(format!("no container {name}"))
    }

    /// Applies `cmd` and returns the exact line the server must answer.
    /// With a span log, each library call is recorded under its layer.
    pub fn apply(
        &mut self,
        cmd: &Command,
        op: usize,
        mut log: Option<&mut SpanLog>,
    ) -> Result<String, String> {
        let mut span =
            |name: &'static str,
             s: &mut AnalysisSession,
             f: &mut dyn FnMut(&mut AnalysisSession) -> Result<Response, String>| {
                match log.as_deref_mut() {
                    Some(l) => l.time(name, op, None, || f(s)).0,
                    None => f(s),
                }
            };
        let done = |s: &AnalysisSession| Response::Done {
            revision: s.revision(),
        };
        let e = |x: viva::SessionError| x.to_string();
        let resp = match cmd {
            Command::SetTimeSlice { start, end, .. } => {
                span("agg.slice", &mut self.session, &mut |s| {
                    let slice = s.try_set_time_slice(*start, *end).map_err(e)?;
                    Ok(Response::Slice {
                        start: slice.start(),
                        end: slice.end(),
                    })
                })?
            }
            Command::Collapse { container, .. } => {
                let id = self.id(container)?;
                span("core.interact", &mut self.session, &mut |s| {
                    s.collapse(id).map_err(e).map(|_| done(s))
                })?
            }
            Command::Expand { container, .. } => {
                let id = self.id(container)?;
                span("core.interact", &mut self.session, &mut |s| {
                    s.expand(id).map_err(e).map(|_| done(s))
                })?
            }
            Command::CollapseAtDepth { depth, .. } => {
                span("core.interact", &mut self.session, &mut |s| {
                    s.collapse_at_depth(*depth);
                    Ok(done(s))
                })?
            }
            Command::ExpandAll { .. } => span("core.interact", &mut self.session, &mut |s| {
                s.expand_all();
                Ok(done(s))
            })?,
            Command::Drag {
                container, x, y, ..
            } => {
                let id = self.id(container)?;
                span("core.interact", &mut self.session, &mut |s| {
                    s.drag(id, Vec2::new(*x, *y)).map_err(e).map(|_| done(s))
                })?
            }
            Command::SetForces {
                repulsion,
                spring,
                damping,
                ..
            } => span("layout.forces", &mut self.session, &mut |s| {
                let cfg = s.layout_config_mut();
                if let Some(r) = repulsion {
                    cfg.repulsion = *r;
                }
                if let Some(k) = spring {
                    cfg.spring = *k;
                }
                if let Some(d) = damping {
                    cfg.damping = *d;
                }
                *cfg = cfg.sanitized();
                Ok(Response::Forces {
                    repulsion: cfg.repulsion,
                    spring: cfg.spring,
                    damping: cfg.damping,
                })
            })?,
            Command::Relax { steps, .. } => span("layout.relax", &mut self.session, &mut |s| {
                let ran = s.relax(*steps as usize) as u64;
                Ok(Response::Relaxed {
                    steps: ran,
                    frozen: s.layout_freeze_reason().map(|r| r.to_string()),
                })
            })?,
            Command::Aggregate { metric, group, .. } => {
                let id = self.id(group)?;
                span("agg.aggregate", &mut self.session, &mut |s| {
                    let a = s.aggregate(metric, id).map_err(e)?;
                    Ok(Response::Aggregated {
                        members: a.members as u64,
                        integral: a.integral,
                        mean: a.summary.mean,
                        min: a.summary.min,
                        max: a.summary.max,
                        median: a.summary.median,
                        quarantined: a.quarantined,
                        empty: a.is_empty(),
                    })
                })?
            }
            Command::Render {
                width,
                height,
                theme,
                labels,
                zoom,
                pan_x,
                pan_y,
                ..
            } => {
                let mut vp = Viewport::try_new(*width, *height)
                    .map_err(|x| x.to_string())?
                    .with_theme(*theme)
                    .with_labels(*labels);
                if zoom.is_some() || pan_x.is_some() || pan_y.is_some() {
                    let cam = Camera::try_new(
                        zoom.unwrap_or(1.0),
                        pan_x.unwrap_or(0.0),
                        pan_y.unwrap_or(0.0),
                    )
                    .map_err(|x| x.to_string())?;
                    vp = vp.with_camera(cam);
                }
                let revision = self.session.revision();
                if revision != self.frames_rev {
                    self.frames.clear();
                    self.frames_rev = revision;
                }
                let key = cmd.encode();
                if let Some((_, svg)) = self.frames.iter().find(|(k, _)| *k == key) {
                    return Ok(Response::Frame {
                        revision,
                        cached: true,
                        svg: svg.clone(),
                    }
                    .encode());
                }
                let svg = match log {
                    None => self.session.render(&vp),
                    Some(l) => {
                        // Cold scene first, then the render (whose scene
                        // is now warm) and the warm scene alone: the SVG
                        // encoder's share is render minus warm scene.
                        let (view, a) =
                            l.time("core.view_lod", op, None, || self.session.view_lod(&vp));
                        let (svg, b) = l.time("core.render", op, None, || self.session.render(&vp));
                        let (_, c) = l.time("core.view_lod_warm", op, None, || {
                            self.session.view_lod(&vp)
                        });
                        let ms = |i: usize| l.spans[i].dur_ns as f64 / 1e6;
                        self.frame_stats.push(FrameStat {
                            class: camera_class(*zoom),
                            view_ms: ms(a),
                            svg_ms: (ms(b) - ms(c)).max(0.0),
                            nodes: view.nodes.len(),
                            tiles: view.tiles.len(),
                            svg_bytes: svg.len(),
                        });
                        svg
                    }
                };
                self.frames.push((key, svg.clone()));
                Response::Frame {
                    revision,
                    cached: false,
                    svg,
                }
            }
            other => return Err(format!("the mirror does not model {}", other.name())),
        };
        Ok(resp.encode())
    }
}

/// Per-operation medians from the mirror spans and frame statistics.
pub fn metrics(mirrors: &[SpanLog], frames: &[FrameStat]) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: String, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            out.push(metric(name, v, unit));
        }
    };
    let all = |name: &str| -> Vec<f64> { mirrors.iter().flat_map(|l| l.durations(name)).collect() };
    put("agg.slice_ms".into(), median(&all("agg.slice")), "ms");
    put(
        "agg.aggregate_ms".into(),
        median(&all("agg.aggregate")),
        "ms",
    );
    // `relax` is always 5 steps here.
    let steps: Vec<f64> = all("layout.relax").iter().map(|ms| ms / 5.0).collect();
    put("layout.step_ms".into(), median(&steps), "ms");
    for class in ["classic", "overview", "dense", "deep"] {
        let v: Vec<f64> = frames
            .iter()
            .filter(|f| f.class == class)
            .map(|f| f.view_ms)
            .collect();
        put(format!("core.view_lod_ms.{class}"), median(&v), "ms");
    }
    let col = |f: &dyn Fn(&FrameStat) -> f64| median(&frames.iter().map(f).collect::<Vec<_>>());
    put("core.svg_encode_ms".into(), col(&|f| f.svg_ms), "ms");
    put("core.frame_nodes".into(), col(&|f| f.nodes as f64), "count");
    put("core.frame_tiles".into(), col(&|f| f.tiles as f64), "count");
    put(
        "core.svg_bytes_per_node".into(),
        col(&|f| f.svg_bytes as f64 / (f.nodes + f.tiles).max(1) as f64),
        "bytes",
    );
    out
}
