//! The interactive analysis session: the paper's tool loop.
//!
//! An [`AnalysisSession`] owns everything the analyst manipulates:
//!
//! * the **trace** under analysis (and optionally the **platform** it
//!   was recorded on, used to wire the topology graph);
//! * the **time-slice** (§3.2.1) and the **collapse state** (§3.2.2);
//! * the **force-directed layout** with its charge/spring/damping
//!   sliders (§4.2), node pinning and dragging;
//! * the **visual mapping** (§3.1) and **per-type scaling sliders**
//!   (§4.1).
//!
//! Every mutation keeps the layout *warm*: collapsing a group merges
//! its nodes into one aggregate placed at their barycenter, expanding
//! spawns members around the aggregate — so the picture morphs smoothly
//! instead of being recomputed from scratch (§3.3).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use viva_agg::{AggIndex, GroupAggregate, TimeSlice, TimeSliceError, ViewState};
use viva_layout::{FreezeReason, LayoutConfig, LayoutEngine, NodeKey, Vec2};
use viva_obs::{Counter, Histogram, Recorder};
use viva_platform::Platform;
use viva_trace::{ContainerId, MetricId, Trace, TraceError};

use crate::lod::LodGeometry;
use crate::mapping::MappingConfig;
use crate::scaling::ScalingConfig;
use crate::svg;
use crate::view::{build_view_cached, build_view_lod, AggSource, GraphView, NodePartial};
use crate::viewport::{Camera, Viewport};

/// Why a session operation could not be applied. Session inputs come
/// from interactive UI events (clicks on stale node ids, slider
/// positions, typed metric names), so every public operation reports
/// bad input as a value instead of panicking mid-analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The container id does not exist in the trace under analysis.
    UnknownContainer(ContainerId),
    /// The container exists but is not currently visible (it is hidden
    /// inside a collapsed ancestor), so it cannot be dragged.
    HiddenContainer(ContainerId),
    /// No metric with this name is recorded in the trace.
    UnknownMetric(String),
    /// The requested time slice is malformed (NaN/infinite bounds or
    /// end before start).
    InvalidTimeSlice(TimeSliceError),
    /// A drag target position with a NaN/infinite coordinate. Drag
    /// positions come straight from pointer events or wire protocols;
    /// a non-finite coordinate would poison the force simulation.
    NonFinitePosition {
        /// The rejected x coordinate.
        x: f64,
        /// The rejected y coordinate.
        y: f64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownContainer(c) => {
                write!(f, "container {c:?} does not exist in this trace")
            }
            SessionError::HiddenContainer(c) => {
                write!(f, "container {c:?} is hidden inside a collapsed group")
            }
            SessionError::UnknownMetric(name) => {
                write!(f, "metric {name:?} is not recorded in this trace")
            }
            SessionError::InvalidTimeSlice(e) => write!(f, "{e}"),
            SessionError::NonFinitePosition { x, y } => {
                write!(f, "drag position ({x}, {y}) is not finite")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TimeSliceError> for SessionError {
    fn from(e: TimeSliceError) -> SessionError {
        SessionError::InvalidTimeSlice(e)
    }
}

/// Initial configuration of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Metric → visual mapping.
    pub mapping: MappingConfig,
    /// Screen scaling parameters.
    pub scaling: ScalingConfig,
    /// Force-model parameters.
    pub layout: LayoutConfig,
    /// Seed for initial node placement.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            mapping: MappingConfig::default(),
            scaling: ScalingConfig::default(),
            layout: LayoutConfig::default(),
            seed: 0x1234_5678,
        }
    }
}

/// An interactive topology-based analysis of one trace.
#[derive(Debug)]
pub struct AnalysisSession {
    trace: Arc<Trace>,
    mapping: MappingConfig,
    scaling: ScalingConfig,
    state: ViewState,
    slice: TimeSlice,
    layout: LayoutEngine,
    /// Relationships between leaf containers (host ↔ link ↔ router).
    leaf_edges: Vec<(ContainerId, ContainerId)>,
    /// Metrics whose shares fill each node's pie chart (§6 extension).
    breakdown: Vec<String>,
    /// Current visible frontier (mirrors the layout's node set).
    frontier: Vec<ContainerId>,
    /// Prebuilt aggregation index (`None` on
    /// [`SessionBuilder::without_index`] sessions, which fall back to
    /// full rescans — the benchmark baseline). Shared: many sessions
    /// over one stored trace reuse a single build (see
    /// [`SessionBuilder::shared_index`]).
    index: Option<Arc<AggIndex>>,
    /// Per-container cache of first-pass view aggregates. Interior
    /// mutability keeps [`view`](AnalysisSession::view) `&self`;
    /// mutators invalidate exactly what their change dirtied (see
    /// DESIGN.md "Invalidation rules").
    cache: RefCell<HashMap<ContainerId, NodePartial>>,
    /// Monotonically increasing view revision; see
    /// [`revision`](AnalysisSession::revision).
    revision: u64,
    /// Bumped on every change to layout positions or to the frontier —
    /// the key of `geometry`. Slice, slider and mapping changes leave
    /// it alone.
    geometry_generation: u64,
    /// The level-of-detail frame geometry of one geometry generation,
    /// built by the first camera frame after a change and walked by
    /// every frame until the next (DESIGN.md §17).
    geometry: RefCell<Option<(u64, Arc<LodGeometry>)>>,
    /// The observability recorder this session (and its index + layout)
    /// reports into; disabled by default.
    recorder: Recorder,
    /// Cached session-level metric handles, `None` when the recorder is
    /// disabled.
    obs: Option<Box<SessionObs>>,
}

/// Pre-resolved handles for the session's own metrics (`session.*`).
#[derive(Debug)]
struct SessionObs {
    /// `session.slice_changes` — effective time-slice updates.
    slice_changes: Counter,
    /// `session.collapses` / `session.expands` — §3.2.2 operations
    /// (including level jumps and expand-all).
    collapses: Counter,
    expands: Counter,
    /// `session.cache.invalidated` — aggregate-cache entries dropped by
    /// mutations (the cost side of the per-node view cache).
    invalidated: Counter,
    /// `session.views` + `session.view.seconds` — scene recomputations.
    views: Counter,
    view_seconds: Histogram,
    /// `session.render.seconds` — SVG generation on top of the view.
    render_seconds: Histogram,
    /// `session.relax.steps` — layout steps driven through
    /// [`AnalysisSession::relax`].
    relax_steps: Counter,
}

impl SessionObs {
    fn new(recorder: &Recorder) -> SessionObs {
        SessionObs {
            slice_changes: recorder.counter("session.slice_changes"),
            collapses: recorder.counter("session.collapses"),
            expands: recorder.counter("session.expands"),
            invalidated: recorder.counter("session.cache.invalidated"),
            views: recorder.counter("session.views"),
            view_seconds: recorder.histogram("session.view.seconds"),
            render_seconds: recorder.histogram("session.render.seconds"),
            relax_steps: recorder.counter("session.relax.steps"),
        }
    }
}

fn key(c: ContainerId) -> NodeKey {
    NodeKey(c.index() as u64)
}

/// Derives host/router ↔ link adjacency from a platform description by
/// matching resource names to trace containers (§3.1.1's second
/// option). Resources with no matching container are skipped.
fn platform_edges(trace: &Trace, platform: &Platform) -> Vec<(ContainerId, ContainerId)> {
    let tree = trace.containers();
    let by_name = |name: &str| tree.by_name(name).map(|c| c.id());
    let mut edges = Vec::new();
    for link in platform.links() {
        let Some(lc) = by_name(link.name()) else { continue };
        let (a, b) = platform.link_endpoints(link.id());
        for endpoint in [a, b] {
            let name = match endpoint {
                viva_platform::NodeId::Host(h) => platform.host(h).name(),
                viva_platform::NodeId::Router(r) => platform.router(r).name(),
            };
            if let Some(ec) = by_name(name) {
                edges.push((ec, lc));
            }
        }
    }
    edges
}

/// Builds an [`AnalysisSession`] step by step: trace → topology source
/// → config → `build()`.
///
/// The topology graph defaults to the trace's communication pairs
/// (§3.1.1's first option); [`platform`](SessionBuilder::platform)
/// switches to the physical interconnection, and
/// [`edges`](SessionBuilder::edges) to analyst-provided relationships.
/// Whichever is called last wins.
///
/// ```no_run
/// # let trace: viva_trace::Trace = unimplemented!();
/// use viva::{AnalysisSession, SessionConfig};
///
/// let session = AnalysisSession::builder(trace)
///     .config(SessionConfig::default())
///     .build();
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    trace: Arc<Trace>,
    config: SessionConfig,
    edges: Option<Vec<(ContainerId, ContainerId)>>,
    use_index: bool,
    shared_index: Option<Arc<AggIndex>>,
    recorder: Recorder,
}

impl SessionBuilder {
    /// Starts a builder over `trace` with the default configuration,
    /// communication-pair topology, and the aggregation index enabled.
    ///
    /// Accepts either an owned [`Trace`] (the 0.6 calling convention —
    /// it is wrapped in an [`Arc`] via `From<Trace>`) or an
    /// `Arc<Trace>` shared with other sessions. Sharing the `Arc` is
    /// the copy-on-nothing path: N sessions over one trace hold one
    /// copy of the event data.
    pub fn new(trace: impl Into<Arc<Trace>>) -> SessionBuilder {
        SessionBuilder {
            trace: trace.into(),
            config: SessionConfig::default(),
            edges: None,
            use_index: true,
            shared_index: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Wires an observability recorder through the whole session: the
    /// aggregation-index build and queries, the layout engine's per-step
    /// telemetry, and the session's own slice/collapse/cache/view
    /// metrics all report into it. The default disabled recorder keeps
    /// every instrumented path at its uninstrumented cost.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> SessionBuilder {
        self.recorder = recorder;
        self
    }

    /// Sets the session configuration (mapping, scaling, layout, seed).
    #[must_use]
    pub fn config(mut self, config: SessionConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Uses the physical interconnection of `platform` as the topology
    /// graph: every link container connects to the containers of its
    /// two endpoints, matched by name (§3.1.1's second option).
    #[must_use]
    pub fn platform(mut self, platform: &Platform) -> SessionBuilder {
        self.edges = Some(platform_edges(&self.trace, platform));
        self
    }

    /// Uses explicit leaf-container relationships as the topology graph
    /// (§3.1.1's third option: "the information can be dynamically
    /// provided by the analyst").
    #[must_use]
    pub fn edges(mut self, leaf_edges: Vec<(ContainerId, ContainerId)>) -> SessionBuilder {
        self.edges = Some(leaf_edges);
        self
    }

    /// Disables the aggregation index: every view refresh and
    /// [`AnalysisSession::aggregate`] call rescans the trace. Only
    /// useful as a benchmark baseline and for differential testing of
    /// the index itself.
    #[must_use]
    pub fn without_index(mut self) -> SessionBuilder {
        self.use_index = false;
        self.shared_index = None;
        self
    }

    /// Reuses an aggregation index built over the **same** trace
    /// instead of building a fresh one — the attach path: a thousand
    /// sessions over one stored trace share one `O(n log n)` build.
    /// The caller must pass an index built from the identical trace
    /// (the server's `TraceStore` guarantees this by construction).
    #[must_use]
    pub fn shared_index(mut self, index: Arc<AggIndex>) -> SessionBuilder {
        self.use_index = true;
        self.shared_index = Some(index);
        self
    }

    /// Builds the session: computes the topology edges (communication
    /// pairs unless overridden), constructs the aggregation index, and
    /// seeds the layout with the initial visible frontier.
    pub fn build(self) -> AnalysisSession {
        let SessionBuilder { trace, config, edges, use_index, shared_index, recorder } = self;
        let leaf_edges = edges.unwrap_or_else(|| trace.communication_pairs());
        let slice = TimeSlice::new(trace.start(), trace.end());
        let index = shared_index
            .or_else(|| use_index.then(|| Arc::new(AggIndex::build_observed(&trace, &recorder))));
        let mut layout = LayoutEngine::new(config.layout, config.seed);
        layout.set_recorder(recorder.clone());
        let obs = recorder.is_enabled().then(|| Box::new(SessionObs::new(&recorder)));
        let mut session = AnalysisSession {
            layout,
            mapping: config.mapping,
            scaling: config.scaling,
            state: ViewState::new(),
            slice,
            leaf_edges,
            breakdown: Vec::new(),
            frontier: Vec::new(),
            index,
            cache: RefCell::new(HashMap::new()),
            revision: 0,
            geometry_generation: 0,
            geometry: RefCell::new(None),
            recorder,
            obs,
            trace,
        };
        session.frontier = session.state.visible(session.trace.containers());
        for &c in &session.frontier.clone() {
            session.layout.add_node(key(c), session.charge_of(c));
        }
        session.sync_edges();
        session
    }
}

impl AnalysisSession {
    /// Starts a [`SessionBuilder`] over `trace` — the one constructor.
    /// Takes an owned [`Trace`] or a shared `Arc<Trace>`; see
    /// [`SessionBuilder::new`].
    pub fn builder(trace: impl Into<Arc<Trace>>) -> SessionBuilder {
        SessionBuilder::new(trace)
    }

    /// Charge of a (possibly aggregated) node: the number of leaves it
    /// stands for (§4.2: an aggregate's charge is the sum of its
    /// members').
    fn charge_of(&self, c: ContainerId) -> f64 {
        self.trace.containers().leaves_under(c).len().max(1) as f64
    }

    /// The trace under analysis.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared handle to the trace under analysis. Cloning the
    /// `Arc` (not the trace) is how checkpointing and the server's
    /// `TraceStore` hold the same data without copying it.
    pub fn shared_trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// The shared aggregation index, when the session has one. Pass it
    /// to [`SessionBuilder::shared_index`] to build sibling sessions
    /// over the same trace without re-indexing.
    pub fn shared_index(&self) -> Option<Arc<AggIndex>> {
        self.index.clone()
    }

    /// The observability recorder the session reports into (disabled
    /// unless one was wired via [`SessionBuilder::recorder`]). Snapshot
    /// it to read the session's counters, gauges, and span histograms.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Clears the aggregate cache, tallying the dropped entries.
    fn clear_cache(&self) {
        let mut cache = self.cache.borrow_mut();
        if let Some(obs) = &self.obs {
            obs.invalidated.add(cache.len() as u64);
        }
        cache.clear();
    }

    /// The session's **view revision**: a monotonically increasing
    /// counter bumped by every operation that may change what
    /// [`view`](AnalysisSession::view) or
    /// [`render`](AnalysisSession::render) produce next (slice changes,
    /// collapse/expand, slider access, drags, layout steps). Two calls
    /// at the same revision render byte-identically, so `(revision,
    /// viewport, theme)` is a sound cache key for rendered frames — the
    /// serving layer's frame cache is built on it.
    ///
    /// The bump is pessimistic: handing out a `&mut` slider config
    /// counts as a change even if the caller writes nothing. A stale
    /// key then only costs a cache miss, never a stale frame.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Records a state change that may affect subsequent views.
    fn touch(&mut self) {
        self.revision += 1;
    }

    /// Records a change to layout positions or to the frontier: the
    /// next camera frame rebuilds the level-of-detail geometry. Called
    /// by `relax`, `drag`, `release`, `layout_mut` and `apply_state`
    /// (so by every collapse/expand/level jump and by `rebase`).
    fn touch_geometry(&mut self) {
        self.geometry_generation += 1;
    }

    /// Forces the view revision to `revision`, dropping every cached
    /// aggregate. This exists for **session restore only**: a session
    /// rebuilt from a checkpoint replays its state through the normal
    /// mutators (each of which bumps the revision), then snaps the
    /// counter back to the checkpointed value so frame-identity holds
    /// across the restore — two renders at the same revision are
    /// byte-identical, and the restored session's first render carries
    /// the same revision the live session's did. Never call this on a
    /// session whose frames are already cached under higher revisions;
    /// a restored session starts with an empty frame cache.
    pub fn restore_revision(&mut self, revision: u64) {
        self.clear_cache();
        self.revision = revision;
    }

    // -----------------------------------------------------------------
    // Live streaming (see DESIGN.md §16)
    // -----------------------------------------------------------------

    /// Whether the current slice covers the full recorded extent — such
    /// a slice *tracks* the extent as live samples grow it, so a
    /// streaming session keeps showing "everything so far" until the
    /// analyst narrows the window by hand.
    fn slice_tracks_extent(&self) -> bool {
        self.slice.start() == self.trace.start() && self.slice.end() == self.trace.end()
    }

    /// Applies one validated live sample in place: trace signal push,
    /// incremental [`AggIndex`] insert (bit-identical to a rebuild),
    /// extent-tracking slice growth, and precise cache invalidation of
    /// the leaf's ancestor chain. `O(depth)` — a live session never
    /// re-indexes on the sample fast path.
    ///
    /// The shared trace/index `Arc`s are copy-on-write
    /// ([`Arc::make_mut`]): a live session normally holds the only
    /// reference and mutates in place; if a checkpoint or sibling still
    /// shares the allocation, the first live write clones it rather
    /// than mutating data someone else sees.
    ///
    /// # Errors
    ///
    /// [`TraceError`] when the sample is rejected (non-monotonic time,
    /// non-finite input) — callers that pre-validate with
    /// [`viva_trace::live::classify`] never see this, and the session
    /// is unchanged when it happens.
    pub fn live_apply_sample(
        &mut self,
        container: ContainerId,
        metric: MetricId,
        t: f64,
        v: f64,
    ) -> Result<(), TraceError> {
        let tracked = self.slice_tracks_extent();
        let prior = Arc::make_mut(&mut self.trace).live_push_sample(container, metric, t, v)?;
        if let Some(index) = &mut self.index {
            Arc::make_mut(index).insert_sample(&self.trace, container, metric, t, v, prior);
        }
        if tracked && !self.slice_tracks_extent() {
            // The sample grew the extent: follow it, dropping every
            // cached aggregate (they integrated over the old slice).
            self.slice = TimeSlice::new(self.trace.start(), self.trace.end());
            self.clear_cache();
        } else {
            self.invalidate_chain(container);
        }
        self.touch();
        Ok(())
    }

    /// Books one quarantined non-finite live sample: per-pair counter,
    /// dropped tally, index quarantine sums, and the ancestor chain's
    /// cached badges.
    pub fn live_quarantine_sample(&mut self, container: ContainerId, metric: MetricId) {
        Arc::make_mut(&mut self.trace).live_note_quarantined(container, metric);
        if let Some(index) = &mut self.index {
            Arc::make_mut(index).note_quarantine(&self.trace, metric);
        }
        self.invalidate_chain(container);
        self.touch();
    }

    /// Books one dropped (malformed) live record — surfaces in
    /// [`GraphView::ingest_dropped`] and the SVG degraded-data badge.
    pub fn live_note_dropped(&mut self) {
        Arc::make_mut(&mut self.trace).live_note_dropped();
        self.touch();
    }

    /// Swaps the session onto a rebuilt trace/index pair while keeping
    /// the analyst's interaction state — collapse set, layout
    /// positions, sliders — intact.
    ///
    /// This is the structural-record path of a live session: container,
    /// metric, span, state and link records cannot be folded in
    /// incrementally, so the server reloads the accumulated stream text
    /// and rebases. It is sound because live streams are append-only —
    /// container and metric ids are dense and stable, so every
    /// `NodeKey`, collapse entry and cache key minted against the old
    /// trace still names the same entity in the new one. New containers
    /// join the layout frontier exactly as an expand would place them;
    /// the topology edge set is re-derived from the new trace's
    /// communication pairs (live sessions infer edges — platform-wired
    /// sessions are not rebased).
    pub fn rebase(&mut self, trace: impl Into<Arc<Trace>>, index: Option<Arc<AggIndex>>) {
        let tracked = self.slice_tracks_extent();
        self.trace = trace.into();
        self.index = index;
        self.leaf_edges = self.trace.communication_pairs();
        self.slice = if tracked {
            TimeSlice::new(self.trace.start(), self.trace.end())
        } else {
            self.slice.clamped_to(self.trace.start(), self.trace.end())
        };
        self.clear_cache();
        self.apply_state();
        self.touch();
    }

    /// Drops cached aggregates for `c` and its ancestors — the only
    /// visible nodes whose aggregate can include a new sample on `c`.
    fn invalidate_chain(&mut self, c: ContainerId) {
        let tree = self.trace.containers();
        let mut cache = self.cache.borrow_mut();
        let mut removed = 0u64;
        let mut cur = Some(c);
        while let Some(g) = cur {
            if cache.remove(&g).is_some() {
                removed += 1;
            }
            cur = tree.node(g).parent();
        }
        drop(cache);
        if let Some(obs) = &self.obs {
            obs.invalidated.add(removed);
        }
    }

    /// Current time-slice.
    pub fn time_slice(&self) -> TimeSlice {
        self.slice
    }

    /// Sets the time-slice (§3.2.1), clamped to the recorded extent of
    /// the trace (a cursor dragged past the end must not integrate over
    /// time that was never recorded). Returns the effective slice.
    /// Values shown by the next [`view`](AnalysisSession::view) are
    /// aggregated over it.
    pub fn set_time_slice(&mut self, slice: TimeSlice) -> TimeSlice {
        let clamped = slice.clamped_to(self.trace.start(), self.trace.end());
        if clamped != self.slice {
            // Every cached aggregate was integrated over the old slice.
            self.clear_cache();
            if let Some(obs) = &self.obs {
                obs.slice_changes.inc();
            }
            self.touch();
        }
        self.slice = clamped;
        self.slice
    }

    /// Sets the time-slice from raw, untrusted bounds (slider
    /// positions, typed values): rejects NaN/infinite or inverted
    /// bounds, clamps the rest to the trace extent, and returns the
    /// effective slice.
    pub fn try_set_time_slice(&mut self, start: f64, end: f64) -> Result<TimeSlice, SessionError> {
        let slice = TimeSlice::try_new(start, end)?;
        Ok(self.set_time_slice(slice))
    }

    /// Validates that a container id refers to a node of this trace.
    fn check_container(&self, c: ContainerId) -> Result<(), SessionError> {
        if self.trace.containers().get(c).is_none() {
            return Err(SessionError::UnknownContainer(c));
        }
        Ok(())
    }

    /// Configures the pie-chart breakdown: each node shows the relative
    /// shares of these metrics (e.g. `power_used:app1`,
    /// `power_used:app2`) as a pie glyph — the paper's §6 "increasing
    /// graphical object flexibility (e.g., pie-charts...)" extension.
    ///
    /// Every name is validated against the trace's metric registry; on
    /// the first unknown name the whole call is rejected and the
    /// previous breakdown stays in place (metric names are typed UI
    /// input, and a silently-ignored typo would render as "no pie" with
    /// no hint why).
    pub fn set_breakdown_metrics(&mut self, metrics: Vec<String>) -> Result<(), SessionError> {
        if let Some(unknown) = metrics.iter().find(|n| self.trace.metric_id(n).is_none()) {
            return Err(SessionError::UnknownMetric(unknown.clone()));
        }
        self.breakdown = metrics;
        // Cached partials carry the old breakdown's pie segments.
        self.clear_cache();
        self.touch();
        Ok(())
    }

    /// Read access to the collapse state.
    pub fn view_state(&self) -> &ViewState {
        &self.state
    }

    /// The visual mapping (mutable: mappings "can be dynamically
    /// changed at a given point of the analysis", §3.1).
    ///
    /// Handing out the mutable borrow conservatively drops every cached
    /// view aggregate — the mapping decides which metrics each node
    /// aggregates.
    pub fn mapping_mut(&mut self) -> &mut MappingConfig {
        self.clear_cache();
        self.touch();
        &mut self.mapping
    }

    /// Read access to the per-type size scaling (§4.1).
    pub fn scaling(&self) -> &ScalingConfig {
        &self.scaling
    }

    /// The per-type size scaling and its sliders (§4.1). Scaling only
    /// affects the per-frontier pixel pass, which is recomputed on
    /// every [`view`](AnalysisSession::view) — no cached aggregate
    /// depends on it, so no invalidation happens here.
    pub fn scaling_mut(&mut self) -> &mut ScalingConfig {
        self.touch();
        &mut self.scaling
    }

    /// The layout parameters — the charge/spring/damping sliders of
    /// §4.2.
    pub fn layout_config_mut(&mut self) -> &mut LayoutConfig {
        self.touch();
        self.layout.config_mut()
    }

    /// Direct access to the layout engine (pinning, dragging,
    /// stepping). Like the view revision, the level-of-detail geometry
    /// counts the borrow as a change.
    pub fn layout_mut(&mut self) -> &mut LayoutEngine {
        self.touch_geometry();
        self.touch();
        &mut self.layout
    }

    /// Read access to the layout engine.
    pub fn layout(&self) -> &LayoutEngine {
        &self.layout
    }

    /// Collapses `group` into one aggregated node (§3.2.2, Fig. 3).
    /// No-op if the group is already hidden or collapsed; fails on a
    /// container id the trace does not contain.
    pub fn collapse(&mut self, group: ContainerId) -> Result<(), SessionError> {
        self.check_container(group)?;
        if self.state.is_collapsed(group) {
            return Ok(());
        }
        self.state.collapse(group);
        self.invalidate_subtree(group);
        self.apply_state();
        if let Some(obs) = &self.obs {
            obs.collapses.inc();
        }
        self.touch();
        Ok(())
    }

    /// Expands a collapsed group back into its members. No-op if the
    /// group is not collapsed; fails on an unknown container id.
    pub fn expand(&mut self, group: ContainerId) -> Result<(), SessionError> {
        self.check_container(group)?;
        if !self.state.is_collapsed(group) {
            return Ok(());
        }
        self.state.expand(group);
        self.invalidate_subtree(group);
        self.apply_state();
        if let Some(obs) = &self.obs {
            obs.expands.inc();
        }
        self.touch();
        Ok(())
    }

    /// Drops cached view aggregates for `group` and everything under it
    /// — the only entries a collapse/expand of `group` can dirty (other
    /// frontier nodes keep their neighbourhood, hence their values).
    fn invalidate_subtree(&mut self, group: ContainerId) {
        let mut cache = self.cache.borrow_mut();
        let mut removed = 0u64;
        for c in self.trace.containers().subtree(group) {
            if cache.remove(&c).is_some() {
                removed += 1;
            }
        }
        if let Some(obs) = &self.obs {
            obs.invalidated.add(removed);
        }
    }

    /// Jumps to one hierarchy level (Fig. 8: host / cluster / site /
    /// grid views): collapses every grouping container at `depth`.
    pub fn collapse_at_depth(&mut self, depth: u32) {
        let tree = self.trace.containers();
        let mut next = self.state.clone();
        next.collapse_at_depth(tree, depth);
        self.state = next;
        // A level jump can dirty the whole frontier.
        self.clear_cache();
        self.apply_state();
        if let Some(obs) = &self.obs {
            obs.collapses.inc();
        }
        self.touch();
    }

    /// Expands everything (finest view).
    pub fn expand_all(&mut self) {
        self.state.expand_all();
        self.clear_cache();
        self.apply_state();
        if let Some(obs) = &self.obs {
            obs.expands.inc();
        }
        self.touch();
    }

    /// Reconciles the layout with the current collapse state: new
    /// aggregates swallow their visible members (barycenter placement),
    /// expanded groups spawn members around the old aggregate, and the
    /// edge set is re-lifted.
    fn apply_state(&mut self) {
        let tree = self.trace.containers();
        let new_frontier = self.state.visible(tree);
        let old_set: HashSet<ContainerId> = self.frontier.iter().copied().collect();
        let new_set: HashSet<ContainerId> = new_frontier.iter().copied().collect();

        let is_ancestor_of = |anc: ContainerId, node: ContainerId| {
            tree.node(node).depth() > tree.node(anc).depth()
                && tree.ancestor_at_depth(node, tree.node(anc).depth()) == Some(anc)
        };

        // 1. Additions that aggregate existing nodes: merge.
        for &a in &new_frontier {
            if old_set.contains(&a) {
                continue;
            }
            let members: Vec<ContainerId> = self
                .frontier
                .iter()
                .copied()
                .filter(|&o| !new_set.contains(&o) && is_ancestor_of(a, o))
                .collect();
            if !members.is_empty() {
                let member_keys: Vec<NodeKey> = members.iter().map(|&m| key(m)).collect();
                self.layout.merge_nodes(key(a), &member_keys);
                self.layout.set_charge(key(a), self.charge_of(a));
            }
        }
        // 2. Removals that disaggregate into new nodes: split.
        for &r in &self.frontier.clone() {
            if new_set.contains(&r) || self.layout.position(key(r)).is_none() {
                continue;
            }
            let children: Vec<(NodeKey, f64)> = new_frontier
                .iter()
                .copied()
                .filter(|&n| !old_set.contains(&n) && is_ancestor_of(r, n))
                .map(|n| (key(n), self.charge_of(n)))
                .collect();
            if !children.is_empty() {
                self.layout.split_node(key(r), &children);
            } else {
                self.layout.remove_node(key(r));
            }
        }
        // 3. Anything still missing (e.g. a node that is both new and
        // unrelated to the old frontier) gets a fresh spot.
        for &a in &new_frontier {
            if self.layout.position(key(a)).is_none() {
                self.layout.add_node(key(a), self.charge_of(a));
            }
        }
        self.frontier = new_frontier;
        self.sync_edges();
        self.touch_geometry();
    }

    /// Rebuilds the layout's edge set from the leaf relationships
    /// lifted to the visible frontier.
    fn sync_edges(&mut self) {
        let tree = self.trace.containers();
        let mut desired: HashSet<(NodeKey, NodeKey)> = HashSet::new();
        for &(a, b) in &self.leaf_edges {
            let (Some(ra), Some(rb)) = (
                self.state.representative(tree, a),
                self.state.representative(tree, b),
            ) else {
                continue;
            };
            if ra == rb {
                continue;
            }
            let (ka, kb) = (key(ra), key(rb));
            desired.insert(if ka <= kb { (ka, kb) } else { (kb, ka) });
        }
        let current: Vec<(NodeKey, NodeKey)> = self.layout.edges().collect();
        for (a, b) in current {
            if !desired.contains(&(a, b)) {
                self.layout.remove_edge(a, b);
            }
        }
        for (a, b) in desired {
            if !self.layout.has_edge(a, b) {
                self.layout.add_edge(a, b);
            }
        }
    }

    /// Runs up to `steps` layout iterations (stops early on
    /// convergence). Returns the number of steps executed.
    pub fn relax(&mut self, steps: usize) -> usize {
        let _phase = self.recorder.tracer().phase("layout.step");
        let executed = self.layout.run(steps, 1e-4);
        if executed > 0 {
            if let Some(obs) = &self.obs {
                obs.relax_steps.add(executed as u64);
            }
            self.touch_geometry();
            self.touch();
        }
        executed
    }

    /// Sets the repulsion-pass thread policy of the layout engine:
    /// `None` decides from node count and available cores, `Some(1)`
    /// forces serial, `Some(n)` forces `n` threads. Positions are
    /// byte-identical under every policy.
    pub fn set_layout_parallelism(&mut self, threads: Option<usize>) {
        self.layout.set_parallelism(threads);
    }

    /// The current repulsion-pass thread policy.
    pub fn layout_parallelism(&self) -> Option<usize> {
        self.layout.parallelism()
    }

    /// Whether the layout watchdog froze the simulation, and why
    /// (`None` while running). Frozen layouts keep serving their last
    /// healthy positions — views and renders continue to work.
    pub fn layout_freeze_reason(&self) -> Option<FreezeReason> {
        self.layout.freeze_reason()
    }

    /// Lifts a layout watchdog freeze and resumes stepping (see
    /// [`LayoutEngine::thaw`]).
    pub fn thaw_layout(&mut self) {
        self.layout.thaw();
        self.touch();
    }

    /// Sets the opt-in wall-clock budget for a single layout step.
    /// `None` (the default) disables the wall-clock watchdog and keeps
    /// layouts byte-deterministic across machines; interactive
    /// front-ends with a frame deadline opt in.
    pub fn set_layout_step_budget(&mut self, budget: Option<std::time::Duration>) {
        self.layout.set_step_budget(budget);
    }

    /// Validates that `c` is drawn in the current view: known to the
    /// trace, and neither hidden inside a collapsed ancestor nor an
    /// expanded internal grouping (which has no node of its own). The
    /// check is made against the collapse *state*, not against layout
    /// membership, so a hidden container is reported as hidden even if
    /// a stale layout node were ever to linger for it — the layout must
    /// never be silently mutated through an invisible handle.
    fn check_visible(&self, c: ContainerId) -> Result<(), SessionError> {
        self.check_container(c)?;
        if self.state.representative(self.trace.containers(), c) != Some(c) {
            return Err(SessionError::HiddenContainer(c));
        }
        Ok(())
    }

    /// Drags the node of `container` to `pos` and pins it there. Fails
    /// on an unknown container id, on a container that is not currently
    /// visible (hidden inside a collapsed group, or an expanded
    /// grouping with no node of its own), and on a non-finite target
    /// position.
    pub fn drag(&mut self, container: ContainerId, pos: Vec2) -> Result<(), SessionError> {
        self.check_visible(container)?;
        if !(pos.x.is_finite() && pos.y.is_finite()) {
            return Err(SessionError::NonFinitePosition { x: pos.x, y: pos.y });
        }
        let k = key(container);
        // A visible container always has a layout node (`apply_state`
        // keeps the two in lockstep), so this cannot fail — but if the
        // invariant ever broke, report rather than pin thin air.
        if !self.layout.move_node(k, pos) {
            return Err(SessionError::HiddenContainer(container));
        }
        self.layout.pin(k);
        self.touch_geometry();
        self.touch();
        Ok(())
    }

    /// Releases a pinned node back to the force simulation. Fails on
    /// unknown or currently invisible containers, like
    /// [`drag`](AnalysisSession::drag).
    pub fn release(&mut self, container: ContainerId) -> Result<(), SessionError> {
        self.check_visible(container)?;
        if !self.layout.unpin(key(container)) {
            return Err(SessionError::HiddenContainer(container));
        }
        self.touch_geometry();
        self.touch();
        Ok(())
    }

    /// The aggregation source views and aggregates draw from.
    fn agg_source(&self) -> AggSource<'_> {
        match &self.index {
            Some(idx) => AggSource::Indexed(idx),
            None => AggSource::Naive,
        }
    }

    /// Computes the scene for the current slice, collapse state,
    /// mapping, scaling and layout. Per-node aggregates are served from
    /// the session cache when the relevant state did not change since
    /// the last view; missing entries are computed through the
    /// aggregation index (`O(log n)` per query) unless the session was
    /// built [`without_index`](SessionBuilder::without_index).
    pub fn view(&self) -> GraphView {
        let _timer = self.obs.as_ref().map(|obs| {
            obs.views.inc();
            obs.view_seconds.start_timer()
        });
        let mut cache = self.cache.borrow_mut();
        build_view_cached(
            &self.trace,
            &self.state,
            self.slice,
            &self.mapping,
            &self.scaling,
            &|c| self.layout.position(key(c)).unwrap_or_default(),
            &self.leaf_edges,
            &self.breakdown,
            self.agg_source(),
            &mut cache,
        )
    }

    /// The scene under `viewport`'s level-of-detail camera: the cut
    /// decides which frontier nodes are drawn individually and which
    /// subtrees become aggregate [`crate::view::ViewTile`]s. Without a
    /// camera this is exactly [`view`](AnalysisSession::view).
    pub fn view_lod(&self, viewport: &Viewport) -> GraphView {
        match viewport.camera {
            None => self.view(),
            Some(cam) => self.lod_scene(&cam, viewport).0,
        }
    }

    /// The level-of-detail geometry of the current layout generation,
    /// built on the first camera frame after a change to positions or
    /// to the frontier.
    fn lod_geometry(&self) -> Arc<LodGeometry> {
        let mut slot = self.geometry.borrow_mut();
        if let Some((generation, geometry)) = &*slot {
            if *generation == self.geometry_generation {
                return Arc::clone(geometry);
            }
        }
        let _phase = self.recorder.tracer().phase("lod.geometry");
        let tree = self.trace.containers();
        // A dense position table: the bounds fold, the bbox
        // accumulation, the cut and the scene build all read
        // positions, and at 100k hosts a layout map lookup per read
        // would dominate.
        let mut position = vec![Vec2::default(); tree.len()];
        for (k, p) in self.layout.positions() {
            if let Some(slot) = position.get_mut(k.0 as usize) {
                *slot = p;
            }
        }
        let geometry = Arc::new(LodGeometry::new(tree, &self.frontier, position));
        *slot = Some((self.geometry_generation, Arc::clone(&geometry)));
        geometry
    }

    /// Builds the level-of-detail scene and the projection it was cut
    /// against. The projection fits the **full** frontier bounds (so
    /// an identity camera reproduces the classic framing bit for bit)
    /// and must be reused for rendering — refitting to the kept subset
    /// would shift the frame.
    fn lod_scene(&self, camera: &Camera, viewport: &Viewport) -> (GraphView, svg::Projection) {
        let opts = svg::SvgOptions::from(viewport);
        let geometry = self.lod_geometry();
        let proj = svg::Projection::fit_camera(geometry.bounds(), &opts, camera);
        let cut = {
            let _phase = self.recorder.tracer().phase("lod.cut");
            geometry.cut(
                self.trace.containers(),
                &|p| proj.project(p),
                opts.width,
                opts.height,
                camera.detail_px,
            )
        };
        let mut cache = self.cache.borrow_mut();
        let view = build_view_lod(
            &self.trace,
            &self.state,
            self.slice,
            &self.mapping,
            &self.scaling,
            &|c| geometry.position(c),
            &self.leaf_edges,
            &self.breakdown,
            self.agg_source(),
            &mut cache,
            &cut,
        );
        (view, proj)
    }

    /// Renders the current view into `viewport` as an SVG document.
    /// With a [`Camera`] on the viewport, rendering goes through the
    /// level-of-detail cut; without one it takes the classic path,
    /// byte-identical to pre-camera releases.
    pub fn render(&self, viewport: &Viewport) -> String {
        self.render_as(viewport, svg::Encoding::Svg)
    }

    /// [`AnalysisSession::render`]'s document as one JSON string
    /// literal, quotes included: byte for byte what a JSON writer
    /// makes of the SVG. The same scene and the same encoder, which
    /// escapes each fragment as it writes it — so a server can splice
    /// the body into a reply without a pass over the document.
    pub fn render_json_body(&self, viewport: &Viewport) -> String {
        self.render_as(viewport, svg::Encoding::JsonString)
    }

    fn render_as(&self, viewport: &Viewport, enc: svg::Encoding) -> String {
        let opts = svg::SvgOptions::from(viewport);
        match viewport.camera {
            None => {
                let view = self.view();
                let _timer = self.obs.as_ref().map(|obs| obs.render_seconds.start_timer());
                let _phase = self.recorder.tracer().phase("svg.encode");
                svg::render_fitted(&view, &opts, enc)
            }
            Some(cam) => {
                let (view, proj) = self.lod_scene(&cam, viewport);
                let _timer = self.obs.as_ref().map(|obs| obs.render_seconds.start_timer());
                let _phase = self.recorder.tracer().phase("svg.encode");
                svg::render_projected(&view, &opts, &proj, enc)
            }
        }
    }

    /// Aggregates `metric` over the subtree of `group` and the current
    /// slice (Equation 1 plus §6 indicators) — the numeric companion of
    /// the visual view, used by the figure harnesses. Served through
    /// the aggregation index when the session has one. Fails on an
    /// unknown metric name or container id; a *known* group with no
    /// surviving data yields an aggregate with
    /// [`GroupAggregate::is_empty`] set.
    pub fn aggregate(&self, metric: &str, group: ContainerId) -> Result<GroupAggregate, SessionError> {
        let _phase = self.recorder.tracer().phase("agg.query");
        self.check_container(group)?;
        let m = self
            .trace
            .metric_id(metric)
            .ok_or_else(|| SessionError::UnknownMetric(metric.to_string()))?;
        Ok(match &self.index {
            Some(idx) => idx.aggregate(&self.trace, m, group, self.slice),
            None => GroupAggregate::compute(&self.trace, m, group, self.slice),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    /// Two clusters of two hosts; one link per cluster; one backbone
    /// link under the root; edges host—link—host chains.
    fn session() -> AnalysisSession {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        let mut hosts = Vec::new();
        let mut clusters = Vec::new();
        for cn in ["c1", "c2"] {
            let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
            clusters.push(cl);
            for i in 0..2 {
                let h = b
                    .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                    .unwrap();
                b.set_variable(0.0, h, power, 100.0).unwrap();
                b.set_variable(0.0, h, used, 60.0).unwrap();
                hosts.push(h);
            }
        }
        let bb = b.new_container(b.root(), "bb", ContainerKind::Link).unwrap();
        b.set_variable(0.0, bb, bw, 1000.0).unwrap();
        let trace = b.finish(10.0);
        let edges = vec![
            (hosts[0], hosts[1]),
            (hosts[2], hosts[3]),
            (hosts[1], bb),
            (bb, hosts[2]),
        ];
        AnalysisSession::builder(trace).edges(edges).build()
    }

    /// Same topology as [`session`], but reporting into `recorder`.
    fn observed_session(recorder: Recorder) -> AnalysisSession {
        let plain = session();
        let trace = plain.trace().clone();
        let edges = plain.leaf_edges.clone();
        AnalysisSession::builder(trace).edges(edges).recorder(recorder).build()
    }

    #[test]
    fn recorder_observes_session_lifecycle_without_changing_views() {
        let r = Recorder::enabled();
        let mut s = observed_session(r.clone());
        let mut plain = session();
        assert!(s.recorder().is_enabled());
        assert_eq!(r.counter("agg.index.builds").get(), 1);

        // Drive both sessions identically; outputs must agree exactly.
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        for sess in [&mut s, &mut plain] {
            sess.set_time_slice(TimeSlice::new(2.0, 8.0));
            sess.view();
            sess.collapse(c1).unwrap();
            sess.view();
            sess.expand(c1).unwrap();
            sess.view();
            sess.set_time_slice(TimeSlice::new(0.0, 5.0));
            sess.relax(10);
        }
        let vp = Viewport::new(640.0, 480.0);
        assert_eq!(s.render(&vp), plain.render(&vp), "metrics must not change a frame");

        assert_eq!(r.counter("session.slice_changes").get(), 2);
        assert_eq!(r.counter("session.collapses").get(), 1);
        assert_eq!(r.counter("session.expands").get(), 1);
        assert_eq!(r.counter("session.views").get(), 4, "3 views + 1 inside render");
        assert!(r.counter("session.cache.invalidated").get() > 0);
        assert_eq!(r.counter("session.relax.steps").get(), 10);
        assert_eq!(r.counter("layout.steps").get(), 10);
        assert_eq!(r.histogram("session.render.seconds").count(), 1);
        assert!(r.counter("agg.index.queries").get() > 0, "views query the index");
    }

    #[test]
    fn initial_frontier_is_all_leaves() {
        let s = session();
        let view = s.view();
        // 4 hosts + 1 link.
        assert_eq!(view.nodes.len(), 5);
        assert_eq!(s.layout().len(), 5);
        assert_eq!(view.edges.len(), 4);
    }

    #[test]
    fn collapse_merges_layout_nodes_and_lifts_edges() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.collapse(c1).unwrap();
        let view = s.view();
        // c1 aggregate + 2 hosts of c2 + bb link.
        assert_eq!(view.nodes.len(), 4);
        assert_eq!(s.layout().len(), 4);
        let agg = view.node_by_label("c1").unwrap();
        assert_eq!(agg.members, 2);
        assert_eq!(agg.size_value, 200.0);
        // The intra-c1 edge vanished; the bb edge lifted to c1.
        let bb = s.trace().containers().by_name("bb").unwrap().id();
        assert!(view.edges.iter().any(|e| (e.a == c1 && e.b == bb) || (e.a == bb && e.b == c1)));
        // Aggregate charge = 2 leaves.
        assert_eq!(s.layout().charge(key(c1)), Some(2.0));
    }

    #[test]
    fn expand_restores_members_near_aggregate() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.relax(100);
        s.collapse(c1).unwrap();
        let agg_pos = s.layout().position(key(c1)).unwrap();
        s.expand(c1).unwrap();
        let view = s.view();
        assert_eq!(view.nodes.len(), 5);
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        let p = s.layout().position(key(h0)).unwrap();
        assert!(p.distance(agg_pos) < s.layout().config().spring_length * 2.0);
    }

    #[test]
    fn collapse_at_depth_matches_level_views() {
        let mut s = session();
        s.collapse_at_depth(1); // cluster level
        let view = s.view();
        // c1, c2 aggregates + bb link (a leaf at depth 1).
        assert_eq!(view.nodes.len(), 3);
        s.collapse_at_depth(0); // grid level
        assert_eq!(s.view().nodes.len(), 1);
        s.expand_all();
        assert_eq!(s.view().nodes.len(), 5);
    }

    #[test]
    fn double_collapse_is_idempotent() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.collapse(c1).unwrap();
        let n = s.layout().len();
        s.collapse(c1).unwrap();
        assert_eq!(s.layout().len(), n);
        s.expand(c1).unwrap();
        s.expand(c1).unwrap();
        assert_eq!(s.layout().len(), 5);
    }

    #[test]
    fn drag_pins_and_release_unpins() {
        let mut s = session();
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.drag(h, Vec2::new(123.0, 45.0)).unwrap();
        assert_eq!(s.layout().position(key(h)), Some(Vec2::new(123.0, 45.0)));
        s.relax(50);
        assert_eq!(
            s.layout().position(key(h)),
            Some(Vec2::new(123.0, 45.0)),
            "pinned node stays put"
        );
        s.release(h).unwrap();
        assert!(!s.layout().is_pinned(key(h)));
    }

    #[test]
    fn time_slice_drives_view_values() {
        let mut s = session();
        s.set_time_slice(TimeSlice::new(0.0, 5.0));
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        assert_eq!(s.view().node(h).unwrap().fill_value, 60.0);
        let agg = s.aggregate("power_used", h).unwrap();
        assert_eq!(agg.integral, 300.0);
    }

    #[test]
    fn svg_renders_all_nodes() {
        let mut s = session();
        s.relax(100);
        let svg = s.render(&Viewport::new(800.0, 600.0));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("class=\"node").count(), 5);
    }

    /// The identity camera (zoom 1, pan 0, tiling off) runs the whole
    /// level-of-detail machinery — frontier bounds fit, cut, LoD scene
    /// build, explicit-projection render — and must reproduce the
    /// classic path byte for byte.
    #[test]
    fn identity_camera_render_is_byte_identical() {
        let mut s = session();
        s.relax(50);
        for (w, h, labels) in [(800.0, 600.0, false), (640.0, 480.0, true)] {
            let plain = Viewport::new(w, h).with_labels(labels);
            let lod = plain.clone().with_camera(Camera::new(1.0, 0.0, 0.0).with_detail_px(0.0));
            assert_eq!(s.render(&plain), s.render(&lod), "{w}x{h} labels={labels}");
            let lv = s.view_lod(&lod);
            assert!(lv.tiles.is_empty());
            assert_eq!(lv, s.view());
        }
    }

    /// When the camera cannot resolve the scene, everything collapses
    /// into one root tile whose aggregate equals what an explicit
    /// collapse of the root would show — the tile is an automatic
    /// §3.2.2 aggregation, not a new kind of value.
    #[test]
    fn unresolvable_scene_tiles_to_the_root_with_collapse_equal_values() {
        let mut s = session();
        s.relax(50);
        let root = s.trace().containers().root();
        let vp = Viewport::new(800.0, 600.0)
            .with_camera(Camera::new(1.0, 0.0, 0.0).with_detail_px(1e6));
        let view = s.view_lod(&vp);
        assert!(view.nodes.is_empty());
        assert_eq!(view.edges.len(), 0, "edges inside one tile vanish");
        assert_eq!(view.tiles.len(), 1);
        let tile = view.tiles[0].clone();
        assert_eq!(tile.container, root);
        assert_eq!(tile.nodes, 5);
        // The tile renders as a tile glyph carrying its count.
        let svg = s.render(&vp);
        assert!(svg.contains("class=\"tile\""), "{svg}");
        assert!(svg.contains(r#"data-nodes="5""#), "{svg}");
        // Reference: collapse the root for real and compare values.
        s.collapse(root).unwrap();
        let collapsed = s.view();
        let node = collapsed.node(root).unwrap();
        assert_eq!(tile.size_value, node.size_value);
        assert_eq!(tile.fill_value, node.fill_value);
        assert_eq!(tile.fill_fraction, node.fill_fraction);
        assert_eq!(tile.availability, node.availability);
        assert_eq!(tile.quarantined, node.quarantined);
        // After the analyst collapses the root for real, the camera
        // draws the aggregate as a real node — explicit collapse wins
        // over automatic tiling.
        let lod_view = s.view_lod(&vp);
        assert_eq!(lod_view.nodes.len(), 1);
        assert!(lod_view.tiles.is_empty());
    }

    /// Panning the whole scene off the canvas leaves a single
    /// offscreen tile hugging the border.
    #[test]
    fn fully_panned_out_scene_becomes_an_offscreen_tile() {
        let mut s = session();
        s.relax(50);
        let vp = Viewport::new(800.0, 600.0).with_camera(Camera::new(1.0, 100_000.0, 0.0));
        let view = s.view_lod(&vp);
        assert!(view.nodes.is_empty());
        assert_eq!(view.tiles.len(), 1);
        assert!(view.tiles[0].offscreen);
        assert_eq!(view.tiles[0].container, s.trace().containers().root());
        let svg = s.render(&vp);
        assert!(svg.contains("class=\"tile offscreen\""), "{svg}");
    }

    #[test]
    fn unknown_ids_are_reported_not_panicked() {
        let mut s = session();
        let bogus = ContainerId::from_index(999);
        assert_eq!(s.collapse(bogus), Err(SessionError::UnknownContainer(bogus)));
        assert_eq!(s.expand(bogus), Err(SessionError::UnknownContainer(bogus)));
        assert_eq!(
            s.drag(bogus, Vec2::new(0.0, 0.0)),
            Err(SessionError::UnknownContainer(bogus))
        );
        assert_eq!(s.release(bogus), Err(SessionError::UnknownContainer(bogus)));
        assert_eq!(
            s.aggregate("power_used", bogus),
            Err(SessionError::UnknownContainer(bogus))
        );
        // Valid session state is untouched by the failed operations.
        assert_eq!(s.view().nodes.len(), 5);
    }

    #[test]
    fn hidden_container_cannot_be_dragged() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.collapse(c1).unwrap();
        assert_eq!(
            s.drag(h0, Vec2::new(1.0, 1.0)),
            Err(SessionError::HiddenContainer(h0))
        );
    }

    /// Regression: a container hidden *deep* inside nested collapses
    /// (not merely one level down) must be rejected with a typed error
    /// by both `drag` and `release` — never silently pinned. The check
    /// runs against the collapse state, so it holds regardless of what
    /// the layout engine happens to contain.
    #[test]
    fn deeply_hidden_container_cannot_be_dragged_or_released() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        let root = s.trace().containers().root();
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.collapse(c1).unwrap();
        s.collapse(root).unwrap();
        // h0 is hidden two collapse levels deep; c1 one level deep.
        for hidden in [h0, c1] {
            assert_eq!(
                s.drag(hidden, Vec2::new(5.0, 5.0)),
                Err(SessionError::HiddenContainer(hidden))
            );
            assert_eq!(s.release(hidden), Err(SessionError::HiddenContainer(hidden)));
            assert!(!s.layout().is_pinned(key(hidden)), "no invisible pin left behind");
        }
        // The visible aggregate (root) still drags fine.
        s.drag(root, Vec2::new(9.0, 9.0)).unwrap();
    }

    /// Regression: a non-finite drag position on a *visible* node used
    /// to be misreported as `HiddenContainer`; it is its own error now.
    #[test]
    fn non_finite_drag_position_is_typed() {
        let mut s = session();
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        let before = s.layout().position(key(h)).unwrap();
        assert!(matches!(
            s.drag(h, Vec2::new(f64::NAN, 0.0)),
            Err(SessionError::NonFinitePosition { .. })
        ));
        assert!(matches!(
            s.drag(h, Vec2::new(0.0, f64::INFINITY)),
            Err(SessionError::NonFinitePosition { .. })
        ));
        assert_eq!(s.layout().position(key(h)), Some(before), "node untouched");
        assert!(!s.layout().is_pinned(key(h)));
    }

    /// The view revision is a sound frame-cache key: it advances on
    /// every state change that could alter a render, and holds still
    /// across pure reads.
    #[test]
    fn revision_tracks_visible_mutations() {
        let mut s = session();
        let r0 = s.revision();
        // Pure reads leave it alone.
        let _ = s.view();
        let _ = s.render(&Viewport::default());
        let _ = s.aggregate("power_used", s.trace().containers().root()).unwrap();
        assert_eq!(s.revision(), r0);
        // Slice change bumps; a no-op slice change does not.
        s.set_time_slice(TimeSlice::new(0.0, 5.0));
        let r1 = s.revision();
        assert!(r1 > r0);
        s.set_time_slice(TimeSlice::new(0.0, 5.0));
        assert_eq!(s.revision(), r1);
        // Collapse/expand bump; idempotent repeats do not.
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.collapse(c1).unwrap();
        let r2 = s.revision();
        assert!(r2 > r1);
        s.collapse(c1).unwrap();
        assert_eq!(s.revision(), r2);
        // Failed operations leave the revision alone.
        assert!(s.drag(ContainerId::from_index(999), Vec2::new(0.0, 0.0)).is_err());
        assert_eq!(s.revision(), r2);
        // Sliders (pessimistically), drags and layout steps bump.
        s.layout_config_mut().repulsion *= 2.0;
        let r3 = s.revision();
        assert!(r3 > r2);
        let h = s.trace().containers().by_name("c2-h0").unwrap().id();
        s.drag(h, Vec2::new(1.0, 2.0)).unwrap();
        assert!(s.revision() > r3);
        let r4 = s.revision();
        s.relax(10);
        assert!(s.revision() > r4);
    }

    #[test]
    fn unknown_metric_is_reported() {
        let s = session();
        let root = s.trace().containers().root();
        assert_eq!(
            s.aggregate("no_such_metric", root),
            Err(SessionError::UnknownMetric("no_such_metric".into()))
        );
    }

    /// Differential test of the whole session hot path: an indexed
    /// session and a rescan session must agree on every view and every
    /// render through a sequence of slice changes and collapse/expand
    /// operations (this also exercises cache invalidation — a stale
    /// cache entry would show up as a view mismatch).
    #[test]
    fn indexed_session_matches_naive_session() {
        let mut fast = session();
        let mut slow = {
            let mut b = TraceBuilder::new();
            let power = b.metric("power", "MFlop/s");
            let used = b.metric("power_used", "MFlop/s");
            let bw = b.metric("bandwidth", "Mbit/s");
            let mut hosts = Vec::new();
            for cn in ["c1", "c2"] {
                let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
                for i in 0..2 {
                    let h = b
                        .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                        .unwrap();
                    b.set_variable(0.0, h, power, 100.0).unwrap();
                    b.set_variable(0.0, h, used, 60.0).unwrap();
                    hosts.push(h);
                }
            }
            let bb = b.new_container(b.root(), "bb", ContainerKind::Link).unwrap();
            b.set_variable(0.0, bb, bw, 1000.0).unwrap();
            let trace = b.finish(10.0);
            let edges = vec![
                (hosts[0], hosts[1]),
                (hosts[2], hosts[3]),
                (hosts[1], bb),
                (bb, hosts[2]),
            ];
            AnalysisSession::builder(trace).edges(edges).without_index().build()
        };
        let c1 = fast.trace().containers().by_name("c1").unwrap().id();
        let vp = Viewport::default();
        assert_eq!(fast.view(), slow.view());
        for s in [&mut fast, &mut slow] {
            s.set_time_slice(TimeSlice::new(2.0, 7.0));
        }
        assert_eq!(fast.view(), slow.view());
        assert_eq!(fast.render(&vp), slow.render(&vp));
        for s in [&mut fast, &mut slow] {
            s.collapse(c1).unwrap();
        }
        assert_eq!(fast.view(), slow.view());
        for s in [&mut fast, &mut slow] {
            s.set_time_slice(TimeSlice::new(0.0, 4.0));
            s.expand(c1).unwrap();
            s.collapse_at_depth(1);
        }
        assert_eq!(fast.view(), slow.view());
        assert_eq!(fast.render(&vp), slow.render(&vp));
        assert_eq!(
            fast.aggregate("power_used", c1).unwrap(),
            slow.aggregate("power_used", c1).unwrap()
        );
    }

    #[test]
    fn cached_views_are_stable_across_repeats() {
        let mut s = session();
        let first = s.view();
        assert_eq!(first, s.view(), "second (fully cached) view identical");
        s.set_time_slice(TimeSlice::new(1.0, 9.0));
        let after = s.view();
        assert_eq!(after, s.view());
        assert_ne!(first.slice, after.slice);
    }

    #[test]
    fn breakdown_metrics_are_validated() {
        let mut s = session();
        assert_eq!(
            s.set_breakdown_metrics(vec!["power".into(), "nope".into()]),
            Err(SessionError::UnknownMetric("nope".into())),
        );
        // The rejected call left the previous (empty) breakdown alone.
        assert!(s.view().nodes.iter().all(|n| n.segments.is_empty()));
        s.set_breakdown_metrics(vec!["power_used".into()]).unwrap();
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        assert_eq!(s.view().node(h).unwrap().segments.len(), 1);
    }

    #[test]
    fn scaling_slider_applies_without_stale_cache() {
        let mut s = session();
        let before = s.view().nodes[0].px_size;
        s.scaling_mut().max_px = 80.0;
        let after = s.view().nodes[0].px_size;
        assert!(after > before, "{before} -> {after}");
    }

    /// The level-of-detail geometry depends on positions and the
    /// frontier only: slice, slider, mapping and breakdown changes keep
    /// serving the cached one, a drag rebuilds it.
    #[test]
    fn lod_geometry_survives_changes_that_move_nothing() {
        let mut s = session();
        let vp = Viewport::new(400.0, 300.0).with_camera(Camera::new(2.0, 10.0, -5.0));
        s.render(&vp);
        let cached = s.lod_geometry();
        s.set_time_slice(TimeSlice::new(2.0, 6.0));
        s.scaling_mut().set_slider("power", 2.0);
        s.mapping_mut();
        s.set_breakdown_metrics(vec!["power_used".into()]).unwrap();
        s.render(&vp);
        assert!(Arc::ptr_eq(&cached, &s.lod_geometry()));
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.drag(h, Vec2::new(3.0, 4.0)).unwrap();
        assert!(!Arc::ptr_eq(&cached, &s.lod_geometry()));
    }

    #[test]
    fn time_slice_is_clamped_to_trace_extent() {
        let mut s = session();
        // Trace spans [0, 10); a cursor dragged past the end clamps.
        assert_eq!(s.set_time_slice(TimeSlice::new(8.0, 25.0)), TimeSlice::new(8.0, 10.0));
        assert_eq!(s.time_slice(), TimeSlice::new(8.0, 10.0));
        // Raw UI bounds: NaN rejected, valid bounds clamped.
        assert!(matches!(
            s.try_set_time_slice(f64::NAN, 5.0),
            Err(SessionError::InvalidTimeSlice(_))
        ));
        assert!(matches!(
            s.try_set_time_slice(7.0, 3.0),
            Err(SessionError::InvalidTimeSlice(_))
        ));
        assert_eq!(s.try_set_time_slice(-3.0, 4.0), Ok(TimeSlice::new(0.0, 4.0)));
    }

    /// The live fast path is equivalence-tested against the only
    /// definition that matters: a session *built from scratch* over the
    /// trace the live mutations produced. Views, renders and aggregates
    /// must be identical — a stale cache entry, a drifting incremental
    /// index or a missed slice update would all show up here.
    #[test]
    fn live_samples_match_a_fresh_session_over_the_same_trace() {
        let mut live = session();
        let used = live.trace().metrics().by_name("power_used").unwrap().id();
        let power = live.trace().metrics().by_name("power").unwrap().id();
        let h0 = live.trace().containers().by_name("c1-h0").unwrap().id();
        let h3 = live.trace().containers().by_name("c2-h1").unwrap().id();
        // Interleave reads with writes so caches are warm when
        // invalidation runs — and extend the extent past finish(10.0).
        let _ = live.view();
        live.live_apply_sample(h0, used, 12.0, 90.0).unwrap();
        let _ = live.view();
        live.live_apply_sample(h3, power, 14.0, 150.0).unwrap();
        live.live_apply_sample(h3, used, 14.0, 10.0).unwrap();
        let _ = live.view();
        live.live_apply_sample(h0, used, 14.0, 95.0).unwrap();

        let mut fresh = AnalysisSession::builder(live.trace().clone())
            .edges(live.leaf_edges.clone())
            .build();
        assert_eq!(live.time_slice(), fresh.time_slice(), "slice followed the extent");
        assert_eq!(live.view(), fresh.view());
        let vp = Viewport::default();
        assert_eq!(live.render(&vp), fresh.render(&vp));
        for s in [&mut live, &mut fresh] {
            s.set_time_slice(TimeSlice::new(3.0, 13.0));
        }
        assert_eq!(live.view(), fresh.view());
        let root = live.trace().containers().root();
        assert_eq!(
            live.aggregate("power_used", root).unwrap(),
            fresh.aggregate("power_used", root).unwrap()
        );
    }

    /// A full-extent slice follows live growth; a hand-narrowed slice
    /// stays put (the analyst chose a window — don't yank it).
    #[test]
    fn live_slice_tracking_respects_manual_windows() {
        let mut s = session();
        let used = s.trace().metrics().by_name("power_used").unwrap().id();
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        assert_eq!(s.time_slice(), TimeSlice::new(0.0, 10.0));
        s.live_apply_sample(h0, used, 15.0, 70.0).unwrap();
        assert_eq!(s.time_slice(), TimeSlice::new(0.0, 15.0));
        s.set_time_slice(TimeSlice::new(2.0, 6.0));
        s.live_apply_sample(h0, used, 20.0, 80.0).unwrap();
        assert_eq!(s.time_slice(), TimeSlice::new(2.0, 6.0), "narrowed window survives");
        assert_eq!(s.trace().end(), 20.0);
    }

    /// Rejected samples (non-monotonic time) leave the session exactly
    /// as it was — no half-applied trace/index state, no revision bump.
    #[test]
    fn rejected_live_sample_leaves_session_untouched() {
        let mut s = session();
        let used = s.trace().metrics().by_name("power_used").unwrap().id();
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.live_apply_sample(h0, used, 12.0, 90.0).unwrap();
        let before = s.view();
        let rev = s.revision();
        assert!(s.live_apply_sample(h0, used, 5.0, 1.0).is_err());
        assert_eq!(s.revision(), rev);
        assert_eq!(s.view(), before);
    }

    /// Quarantine/drop bookkeeping reaches the view exactly as a
    /// reloaded trace would report it.
    #[test]
    fn live_quarantine_and_drop_surface_in_views() {
        let mut s = session();
        let used = s.trace().metrics().by_name("power_used").unwrap().id();
        let h0 = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.live_quarantine_sample(h0, used);
        s.live_note_dropped();
        assert_eq!(s.trace().quarantined(h0, used), 1);
        assert_eq!(s.trace().ingest_dropped(), 2, "quarantine counts as dropped too");
        let fresh = AnalysisSession::builder(s.trace().clone())
            .edges(s.leaf_edges.clone())
            .build();
        assert_eq!(s.view(), fresh.view());
    }

    /// Rebase swaps the trace under a session while preserving the
    /// analyst's collapse state and pinned layout — the structural
    /// path of a live stream. New containers join the frontier; views
    /// must agree with a fresh session put into the same state.
    #[test]
    fn rebase_preserves_interaction_state_over_a_grown_trace() {
        let mut s = session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        let h3 = s.trace().containers().by_name("c2-h1").unwrap().id();
        s.collapse(c1).unwrap();
        s.drag(h3, Vec2::new(42.0, 7.0)).unwrap();

        // Grow the topology: same prefix plus one extra host in c2.
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        let mut c2 = None;
        for cn in ["c1", "c2"] {
            let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
            if cn == "c2" {
                c2 = Some(cl);
            }
            for i in 0..2 {
                let h = b
                    .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                    .unwrap();
                b.set_variable(0.0, h, power, 100.0).unwrap();
                b.set_variable(0.0, h, used, 60.0).unwrap();
            }
        }
        let bb = b.new_container(b.root(), "bb", ContainerKind::Link).unwrap();
        b.set_variable(0.0, bb, bw, 1000.0).unwrap();
        let h_new = b
            .new_container(c2.unwrap(), "c2-h2", ContainerKind::Host)
            .unwrap();
        b.set_variable(3.0, h_new, power, 100.0).unwrap();
        let grown = Arc::new(b.finish(12.0));
        let index = Arc::new(AggIndex::build(&grown));
        s.rebase(grown.clone(), Some(index.clone()));

        assert_eq!(s.time_slice(), TimeSlice::new(0.0, 12.0), "full slice follows");
        let view = s.view();
        // c1 stays collapsed: c1 aggregate + 3 c2 hosts + bb link.
        assert_eq!(view.nodes.len(), 5);
        assert!(view.node_by_label("c1").is_some());
        assert!(view.node_by_label("c2-h2").is_some());
        assert_eq!(s.layout().position(key(h3)), Some(Vec2::new(42.0, 7.0)), "pin kept");
        // Equivalent fresh session: build, then replay the collapse.
        let mut fresh = AnalysisSession::builder(grown)
            .shared_index(index)
            .build();
        fresh.collapse(c1).unwrap();
        let fv = fresh.view();
        assert_eq!(view.nodes.len(), fv.nodes.len());
        for n in &view.nodes {
            let fn_ = fv.nodes.iter().find(|m| m.label == n.label).unwrap();
            assert_eq!((n.fill_value, n.size_value, n.members), (fn_.fill_value, fn_.size_value, fn_.members));
        }
    }
}
