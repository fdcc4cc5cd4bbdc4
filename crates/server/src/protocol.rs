//! The wire protocol: newline-delimited JSON commands and responses.
//!
//! One request line carries one [`Command`]; the server answers with
//! exactly one [`Response`] line. Encoding is **deterministic** — the
//! same value always serializes to the same bytes (see
//! [`crate::json`]) — which is what makes golden-transcript testing
//! and byte-for-byte replay possible. Decoding accepts member order
//! freely and ignores unknown members, so clients can grow fields
//! without breaking old servers.
//!
//! The command set mirrors the paper's interactive loop one-to-one
//! (§4.2: time-slice selection, collapse/expand, force sliders, node
//! drag/pin) plus the serving concerns around it (trace upload,
//! session management, rendering). Containers and metrics are
//! addressed **by name** — names are stable across loads, ids are not.

use std::fmt;
use std::str::FromStr;

use viva::Theme;
use viva_trace::RecoveryMode;

use crate::checkpoint::SessionCheckpoint;
use crate::json::{write_number, write_string, Json};
use crate::store::TraceEntry;

/// A request from the analyst's client to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Lists the names of live sessions, sorted.
    Sessions,
    /// Closes (drops) a session.
    CloseSession {
        /// Session name.
        session: String,
    },
    /// Uploads a trace (the CSV interchange format of `viva-trace`)
    /// and (re)creates `session` over it. Routed through
    /// `TraceLoader` with the server's resource budget, so hostile
    /// uploads degrade or error — they never crash the server. The
    /// loaded trace is also registered in the server's `TraceStore`
    /// (under `trace` when given, else under the session's name), so
    /// later [`Command::Attach`]es share it without re-uploading.
    LoadTrace {
        /// Session to create or replace.
        session: String,
        /// Ingestion recovery mode.
        mode: RecoveryMode,
        /// The trace text (CSV lines).
        text: String,
        /// Store name to register the trace under; defaults to the
        /// session name. Absent on the wire when `None`, so pre-0.7
        /// scripts encode (and replay) byte-identically.
        trace: Option<String>,
    },
    /// Creates (or replaces) `session` over a trace already registered
    /// in the `TraceStore` — no re-upload, no re-parse, no re-index:
    /// the new session shares the stored `Arc<Trace>` and `AggIndex`.
    Attach {
        /// Session to create or replace.
        session: String,
        /// Store name of the trace to attach to.
        trace: String,
    },
    /// Lists the stored traces (name, content hash, size, live session
    /// count), name-sorted.
    ListTraces,
    /// Drops a trace from the store. Sessions already attached keep
    /// their shared handle; only new attaches are stopped.
    DropTrace {
        /// Store name of the trace to drop.
        trace: String,
    },
    /// Sets the analysis time-slice (§3.2.1); answered with the
    /// effective (clamped) slice.
    SetTimeSlice {
        /// Session name.
        session: String,
        /// Slice start, seconds.
        start: f64,
        /// Slice end, seconds.
        end: f64,
    },
    /// Collapses a group into one aggregated node (§3.2.2).
    Collapse {
        /// Session name.
        session: String,
        /// Container name.
        container: String,
    },
    /// Expands a collapsed group.
    Expand {
        /// Session name.
        session: String,
        /// Container name.
        container: String,
    },
    /// Jumps to one hierarchy level (Fig. 8).
    CollapseAtDepth {
        /// Session name.
        session: String,
        /// Tree depth to collapse at (0 = whole system as one node).
        depth: u32,
    },
    /// Expands everything (finest view).
    ExpandAll {
        /// Session name.
        session: String,
    },
    /// Updates the force sliders (§4.2). Absent fields keep their
    /// value; the result is sanitized through `LayoutConfig::sanitized`
    /// and echoed back.
    SetForces {
        /// Session name.
        session: String,
        /// New Coulomb repulsion constant.
        repulsion: Option<f64>,
        /// New spring constant.
        spring: Option<f64>,
        /// New velocity damping in `(0, 1]`.
        damping: Option<f64>,
    },
    /// Moves a per-size-group scaling slider (§4.1).
    SetScaling {
        /// Session name.
        session: String,
        /// Size-group name (typically a metric name).
        group: String,
        /// Slider multiplier (finite, ≥ 0; 1.0 = automatic).
        factor: f64,
    },
    /// Drags a visible node to a position and pins it there.
    Drag {
        /// Session name.
        session: String,
        /// Container name.
        container: String,
        /// Target x.
        x: f64,
        /// Target y.
        y: f64,
    },
    /// Releases a pinned node back to the simulation.
    Release {
        /// Session name.
        session: String,
        /// Container name.
        container: String,
    },
    /// Runs up to `steps` layout iterations (clamped to the server's
    /// per-command step budget).
    Relax {
        /// Session name.
        session: String,
        /// Requested iteration count.
        steps: u64,
    },
    /// Aggregates a metric over a group × the current slice (Eq. 1).
    Aggregate {
        /// Session name.
        session: String,
        /// Metric name.
        metric: String,
        /// Container name of the group.
        group: String,
    },
    /// Reads the server's observability snapshot — and, when `session`
    /// names a live session, that session's too. Only the
    /// **deterministic** portion of the metrics crosses the wire
    /// (counter values, gauge values, histogram sample counts, event
    /// log); wall-clock timings stay behind `--metrics-out`.
    Stats {
        /// Session whose metrics to include, if any.
        session: Option<String>,
        /// When `true`, atomically snapshot **and zero** the reported
        /// counters and histograms (gauges and event rings untouched),
        /// so closed-loop benches can measure per-window rates. The
        /// returned blocks are the window that just ended. Absent on
        /// the wire when `false`, so pre-0.10 scripts replay
        /// byte-identically.
        reset: bool,
    },
    /// Reads a deterministic subset of the recently finished causal
    /// spans (newest root trees first, capped at `limit` roots). Spans
    /// exist only when the server was started with tracing enabled
    /// (`--self-trace`); otherwise the answer is an empty list. Wall
    /// durations ride along for profiling clients — they are the one
    /// non-deterministic member, and golden scripts simply do not
    /// exercise this command.
    Spans {
        /// Only roots annotated with this session name, when given.
        session: Option<String>,
        /// Maximum root trees to return; default 16.
        limit: Option<u64>,
    },
    /// Renders the current view to SVG. Viewport and theme come from
    /// the request; frames are served from the per-session cache when
    /// the session revision and presentation match.
    Render {
        /// Session name.
        session: String,
        /// Canvas width, pixels (finite, positive).
        width: f64,
        /// Canvas height, pixels (finite, positive).
        height: f64,
        /// Color theme.
        theme: Theme,
        /// Draw node labels.
        labels: bool,
        /// Level-of-detail camera zoom factor. When all three camera
        /// fields are absent the render takes the classic camera-less
        /// path and is byte-identical to pre-LoD servers.
        zoom: Option<f64>,
        /// Camera pan along x, in canvas pixels.
        pan_x: Option<f64>,
        /// Camera pan along y, in canvas pixels.
        pan_y: Option<f64>,
    },
    /// Snapshots a session's view state into a [`SessionCheckpoint`]
    /// and returns it (also writing it to the server's checkpoint
    /// directory when one is configured). Pure read — the session is
    /// not perturbed.
    Checkpoint {
        /// Session name.
        session: String,
    },
    /// Rebuilds a session from a checkpoint: the one supplied inline
    /// in `state`, or — when `state` is absent — the one previously
    /// written to the server's checkpoint directory under this
    /// session's name. Replaces any live session of the same name.
    Restore {
        /// Session to (re)create.
        session: String,
        /// Inline checkpoint; `None` reads the checkpoint directory.
        state: Option<Box<SessionCheckpoint>>,
    },
    /// Appends one trace line to a **live streaming session**,
    /// creating the session on the first append. The record is written
    /// to the session's journal (and acknowledged only after the write
    /// succeeds — journal-before-ack), then applied incrementally to
    /// the live trace. Delivery is at-least-once: a `seq` at or below
    /// the session's high-water mark is acknowledged again without
    /// re-applying (idempotent duplicate), a `seq` beyond
    /// `last_seq + 1` is refused with [`ErrorKind::SeqGap`] carrying
    /// the expected value.
    Append {
        /// Live session to create or extend.
        session: String,
        /// Client-assigned sequence number, contiguous from 1.
        seq: u64,
        /// One trace interchange line (no trailing newline needed).
        text: String,
    },
    /// Seals a live session's journal: the stream is complete, no
    /// further appends are accepted (they fail with
    /// [`ErrorKind::SessionSealed`]). The session itself stays live
    /// for analysis.
    Seal {
        /// Live session to seal.
        session: String,
    },
    /// Subscribes this connection to a live session's view deltas.
    /// Each applied append pushes a [`Push::Delta`] line (changed
    /// nodes only) to every subscriber. Queues are bounded: a slow
    /// subscriber is shed with a single [`Push::Lagging`] line and
    /// must re-subscribe from the carried `resume_seq`.
    Subscribe {
        /// Live session to follow.
        session: String,
        /// First sequence number the subscriber has **not** seen;
        /// anything at or after it is covered by an immediate snapshot
        /// delta. Absent means "from now on".
        from_seq: Option<u64>,
    },
    /// Starts a graceful drain: every live session is checkpointed (to
    /// the checkpoint directory when configured), new connections and
    /// state-changing commands are refused with `overloaded`, in-flight
    /// commands finish, and the accept loops exit.
    Shutdown,
}

/// Deadline classes: commands with similar cost share one budget (a
/// render is allowed far more time than flipping the time slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Constant-time bookkeeping: ping, session listing, stats, close,
    /// shutdown.
    Control,
    /// Interactive view mutations and queries: slice, collapse, forces,
    /// scaling, drag, aggregate.
    Interact,
    /// Trace ingestion: load, checkpoint, restore (all touch the whole
    /// trace).
    Load,
    /// Layout iteration batches.
    Relax,
    /// Frame rendering.
    Render,
}

impl CommandClass {
    /// Every class, in the fixed order the self-trace exporter
    /// enumerates its metrics.
    pub const ALL: [CommandClass; 5] = [
        CommandClass::Control,
        CommandClass::Interact,
        CommandClass::Load,
        CommandClass::Relax,
        CommandClass::Render,
    ];

    /// Stable lowercase label (metric names in the self-trace export).
    pub fn label(self) -> &'static str {
        match self {
            CommandClass::Control => "control",
            CommandClass::Interact => "interact",
            CommandClass::Load => "load",
            CommandClass::Relax => "relax",
            CommandClass::Render => "render",
        }
    }

    /// The class of the command named `name` (the [`Command::name`]
    /// token) — how span records, which carry only the name, find the
    /// metric their duration bills to. `None` for names that are not
    /// commands (phase spans).
    pub fn of_name(name: &str) -> Option<CommandClass> {
        Some(match name {
            "ping" | "sessions" | "close_session" | "list_traces" | "drop_trace" | "stats"
            | "spans" | "shutdown" => CommandClass::Control,
            "set_time_slice" | "collapse" | "expand" | "collapse_at_depth" | "expand_all"
            | "set_forces" | "set_scaling" | "drag" | "release" | "aggregate" | "append"
            | "seal" | "subscribe" => CommandClass::Interact,
            "load_trace" | "attach" | "checkpoint" | "restore" => CommandClass::Load,
            "relax" => CommandClass::Relax,
            "render" => CommandClass::Render,
            _ => return None,
        })
    }
}

/// Why a command was rejected. The variant is the wire-visible `err`
/// kind; the accompanying message is human-readable detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid protocol message (bad JSON,
    /// missing/ill-typed field, oversized line).
    Protocol,
    /// Valid JSON, but an unknown `cmd`.
    UnknownCommand,
    /// The named session does not exist (never created, closed, or
    /// evicted).
    NoSession,
    /// The named container is not part of the session's trace.
    UnknownContainer,
    /// The container exists but is hidden inside a collapsed group.
    HiddenContainer,
    /// The named metric is not recorded in the trace.
    UnknownMetric,
    /// NaN/infinite or inverted time-slice bounds.
    InvalidTimeSlice,
    /// A drag position with a NaN/infinite coordinate.
    NonFinitePosition,
    /// A render viewport with non-finite or non-positive dimensions.
    BadViewport,
    /// An unknown theme name.
    BadTheme,
    /// An argument outside its legal range (e.g. a negative or
    /// non-finite scaling factor).
    BadArgument,
    /// A strict-mode trace upload failed to parse.
    ParseTrace,
    /// A strict-mode trace upload exhausted the server's resource
    /// budget.
    BudgetExceeded,
    /// The server shed this command instead of queueing it: admission
    /// control (too many in-flight commands or too many waiters on the
    /// session) or a drain in progress. The work was **not** started;
    /// retry after the hinted delay.
    Overloaded {
        /// Client back-off hint, milliseconds.
        retry_after_ms: u64,
    },
    /// The command exceeded its deadline budget and was abandoned; the
    /// session is at its last consistent revision.
    DeadlineExceeded,
    /// A `restore` was given a checkpoint the server cannot honor
    /// (unsupported version, rejected trace, state that does not fit
    /// the trace, or no stored checkpoint for the session).
    BadCheckpoint,
    /// An `attach`/`drop_trace` named a trace the store does not hold.
    NoTrace,
    /// An `append` skipped ahead of the session's high-water mark. The
    /// journal never holds a gap; resend from `expected`.
    SeqGap {
        /// The sequence number the session expects next.
        expected: u64,
    },
    /// An `append`/`seal`/`subscribe` named a session that exists but
    /// is not a live streaming session (it was created by
    /// `load_trace`/`attach`/`restore` without a journal).
    NotLive,
    /// An `append` on a sealed live session.
    SessionSealed,
    /// The journal write behind an `append` (or `seal`) failed at the
    /// filesystem. The event was **not** acknowledged and was not
    /// applied — the ack is a durability promise, so an event the
    /// journal could not hold must be resent once the disk recovers.
    JournalIo,
}

impl ErrorKind {
    /// The stable wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::UnknownCommand => "unknown_command",
            ErrorKind::NoSession => "no_session",
            ErrorKind::UnknownContainer => "unknown_container",
            ErrorKind::HiddenContainer => "hidden_container",
            ErrorKind::UnknownMetric => "unknown_metric",
            ErrorKind::InvalidTimeSlice => "invalid_time_slice",
            ErrorKind::NonFinitePosition => "non_finite_position",
            ErrorKind::BadViewport => "bad_viewport",
            ErrorKind::BadTheme => "bad_theme",
            ErrorKind::BadArgument => "bad_argument",
            ErrorKind::ParseTrace => "parse_trace",
            ErrorKind::BudgetExceeded => "budget_exceeded",
            ErrorKind::Overloaded { .. } => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::BadCheckpoint => "bad_checkpoint",
            ErrorKind::NoTrace => "no_trace",
            ErrorKind::SeqGap { .. } => "seq_gap",
            ErrorKind::NotLive => "not_live",
            ErrorKind::SessionSealed => "sealed",
            ErrorKind::JournalIo => "journal_io",
        }
    }

    fn from_token(s: &str) -> Option<ErrorKind> {
        use ErrorKind::*;
        Some(match s {
            "protocol" => Protocol,
            "unknown_command" => UnknownCommand,
            "no_session" => NoSession,
            "unknown_container" => UnknownContainer,
            "hidden_container" => HiddenContainer,
            "unknown_metric" => UnknownMetric,
            "invalid_time_slice" => InvalidTimeSlice,
            "non_finite_position" => NonFinitePosition,
            "bad_viewport" => BadViewport,
            "bad_theme" => BadTheme,
            "bad_argument" => BadArgument,
            "parse_trace" => ParseTrace,
            "budget_exceeded" => BudgetExceeded,
            // The hint rides in a separate response member;
            // `Response::decode` fills it in.
            "overloaded" => Overloaded { retry_after_ms: 0 },
            "deadline_exceeded" => DeadlineExceeded,
            "bad_checkpoint" => BadCheckpoint,
            "no_trace" => NoTrace,
            // The expected seq rides in a separate response member;
            // `Response::decode` fills it in.
            "seq_gap" => SeqGap { expected: 0 },
            "not_live" => NotLive,
            "sealed" => SessionSealed,
            "journal_io" => JournalIo,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One discrete event from an observability ring buffer, on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsEvent {
    /// Logical-clock stamp (deterministic).
    pub seq: u64,
    /// Event name, e.g. `layout.freeze`.
    pub name: String,
    /// Machine-readable detail, e.g. the freeze reason token.
    pub detail: String,
}

/// The deterministic portion of one recorder scope's metrics: counter
/// values, gauge values, histogram **sample counts**, and the event
/// log. Histogram sums and bucket occupancy are wall-clock-dependent,
/// so they never cross the wire — that is what keeps the `stats`
/// command inside the golden-transcript byte-determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsBlock {
    /// Logical clock at snapshot time (advances per event).
    pub clock: u64,
    /// Name-sorted counter values.
    pub counters: Vec<(String, u64)>,
    /// Name-sorted gauge values. Non-finite readings are reported as
    /// `0` (JSON carries no NaN/∞); the watchdog freezes layouts
    /// before non-finite state normally reaches a gauge.
    pub gauges: Vec<(String, f64)>,
    /// Name-sorted histogram sample counts.
    pub histograms: Vec<(String, u64)>,
    /// Ring-buffer contents, oldest first.
    pub events: Vec<StatsEvent>,
    /// Events evicted from the ring buffer.
    pub events_dropped: u64,
}

impl StatsBlock {
    /// Projects a recorder snapshot onto its wire-safe subset.
    pub fn from_snapshot(snap: &viva_obs::Snapshot) -> StatsBlock {
        StatsBlock {
            clock: snap.clock,
            counters: snap.counters.clone(),
            gauges: snap
                .gauges
                .iter()
                .map(|(n, v)| (n.clone(), if v.is_finite() { *v } else { 0.0 }))
                .collect(),
            histograms: snap.histograms.iter().map(|h| (h.name.clone(), h.count)).collect(),
            events: snap
                .events
                .iter()
                .map(|e| StatsEvent {
                    seq: e.seq,
                    name: e.name.clone(),
                    detail: e.detail.clone(),
                })
                .collect(),
            events_dropped: snap.events_dropped,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("clock", Json::Num(self.clock as f64)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            obj(vec![
                                ("seq", Json::Num(e.seq as f64)),
                                ("name", Json::Str(e.name.clone())),
                                ("detail", Json::Str(e.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("events_dropped", Json::Num(self.events_dropped as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<StatsBlock, DecodeError> {
        let u64_map = |key: &str| -> Result<Vec<(String, u64)>, DecodeError> {
            match v.get(key) {
                Some(Json::Obj(members)) => members
                    .iter()
                    .map(|(k, m)| {
                        m.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| bad(format!("non-integer entry in {key:?}")))
                    })
                    .collect(),
                _ => Err(bad(format!("missing or non-object field {key:?}"))),
            }
        };
        let gauges = match v.get("gauges") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, m)| {
                    m.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| bad("non-numeric entry in \"gauges\""))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("missing or non-object field \"gauges\"")),
        };
        let events = match v.get("events") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| {
                    Ok(StatsEvent {
                        seq: uint_field(e, "seq")?,
                        name: str_field(e, "name")?,
                        detail: str_field(e, "detail")?,
                    })
                })
                .collect::<Result<Vec<_>, DecodeError>>()?,
            _ => return Err(bad("missing or non-array field \"events\"")),
        };
        Ok(StatsBlock {
            clock: uint_field(v, "clock")?,
            counters: u64_map("counters")?,
            gauges,
            histograms: u64_map("histograms")?,
            events,
            events_dropped: uint_field(v, "events_dropped")?,
        })
    }
}

/// One finished causal span on the wire (flat tree encoding: children
/// point at their parent's `id`; roots carry `parent: 0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNode {
    /// Tree identity — every span of one command shares it.
    pub trace: u64,
    /// This span's id; ids are allocated at span start, so a parent's
    /// id is always smaller than its children's.
    pub id: u64,
    /// Parent span id; `0` marks a root.
    pub parent: u64,
    /// Phase name (command name on roots, e.g. `render`; phase name on
    /// children, e.g. `svg.encode`).
    pub name: String,
    /// Session annotation on command roots, empty otherwise.
    pub detail: String,
    /// Shard worker the span ran on.
    pub shard: u64,
    /// Logical start tick (deterministic under a fixed sampling seed).
    pub start_tick: u64,
    /// Logical end tick.
    pub end_tick: u64,
    /// Wall-clock duration in nanoseconds — profiling data, the one
    /// non-deterministic member.
    pub duration_ns: u64,
}

impl SpanNode {
    fn to_json(&self) -> Json {
        obj(vec![
            ("trace", Json::Num(self.trace as f64)),
            ("id", Json::Num(self.id as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("name", Json::Str(self.name.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("shard", Json::Num(self.shard as f64)),
            ("start_tick", Json::Num(self.start_tick as f64)),
            ("end_tick", Json::Num(self.end_tick as f64)),
            ("duration_ns", Json::Num(self.duration_ns as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<SpanNode, DecodeError> {
        Ok(SpanNode {
            trace: uint_field(v, "trace")?,
            id: uint_field(v, "id")?,
            parent: uint_field(v, "parent")?,
            name: str_field(v, "name")?,
            detail: str_field(v, "detail")?,
            shard: uint_field(v, "shard")?,
            start_tick: uint_field(v, "start_tick")?,
            end_tick: uint_field(v, "end_tick")?,
            duration_ns: uint_field(v, "duration_ns")?,
        })
    }
}

/// One session's metrics plus the session-level state the analyst
/// cares about while reading them (revision, watchdog freeze).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// The session's name.
    pub name: String,
    /// Current view revision.
    pub revision: u64,
    /// Watchdog freeze reason token, if the layout is frozen.
    pub frozen: Option<String>,
    /// The session recorder's deterministic metrics.
    pub stats: StatsBlock,
}

impl SessionStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("revision", Json::Num(self.revision as f64)),
            (
                "frozen",
                match &self.frozen {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
            ("stats", self.stats.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<SessionStats, DecodeError> {
        Ok(SessionStats {
            name: str_field(v, "name")?,
            revision: uint_field(v, "revision")?,
            frozen: opt_str_field(v, "frozen")?,
            stats: StatsBlock::from_json(
                v.get("stats").ok_or_else(|| bad("missing field \"stats\""))?,
            )?,
        })
    }
}

/// The server's answer to one [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Command::Ping`].
    Pong,
    /// Answer to [`Command::Sessions`]: live session names, sorted.
    SessionList {
        /// Sorted session names.
        names: Vec<String>,
    },
    /// A session was closed.
    Closed {
        /// The closed session's name.
        session: String,
    },
    /// A trace was loaded and a session created over it. Quarantine
    /// and drop counts surface ingestion degradation; `breach` names
    /// the budget axis that stopped a lenient load early.
    Loaded {
        /// The session name.
        session: String,
        /// Containers in the trace.
        containers: u64,
        /// Event records ingested.
        events: u64,
        /// Records dropped by lenient recovery.
        dropped: u64,
        /// Non-finite samples quarantined.
        quarantined: u64,
        /// Trace span start, seconds.
        start: f64,
        /// Trace span end, seconds.
        end: f64,
        /// Budget breach summary, if a budget axis stopped the load.
        breach: Option<String>,
    },
    /// A session was created over a stored trace, after
    /// [`Command::Attach`]. No degradation fields: the stored trace
    /// already survived its load-time budget.
    Attached {
        /// The session name.
        session: String,
        /// The store name attached to.
        trace: String,
        /// Containers in the trace.
        containers: u64,
        /// Event records in the trace.
        events: u64,
        /// Trace span start, seconds.
        start: f64,
        /// Trace span end, seconds.
        end: f64,
    },
    /// The stored traces, after [`Command::ListTraces`]; name-sorted.
    TraceList {
        /// One row per stored trace.
        traces: Vec<TraceEntry>,
    },
    /// A trace was dropped from the store.
    TraceDropped {
        /// The dropped trace's store name.
        trace: String,
    },
    /// The effective (clamped) time-slice after
    /// [`Command::SetTimeSlice`].
    Slice {
        /// Effective start.
        start: f64,
        /// Effective end.
        end: f64,
    },
    /// Generic acknowledgement carrying the session's new view
    /// revision (collapse/expand/drag/release/scaling).
    Done {
        /// View revision after the command.
        revision: u64,
    },
    /// The sanitized force parameters after [`Command::SetForces`].
    Forces {
        /// Effective repulsion.
        repulsion: f64,
        /// Effective spring constant.
        spring: f64,
        /// Effective damping.
        damping: f64,
    },
    /// Layout iterations ran. `frozen` carries the watchdog's
    /// `FreezeReason` when the layout froze instead of diverging.
    Relaxed {
        /// Iterations actually executed.
        steps: u64,
        /// Watchdog freeze reason, if frozen.
        frozen: Option<String>,
    },
    /// Numeric aggregate of a metric over a group (Eq. 1 + §6).
    Aggregated {
        /// Members carrying the metric.
        members: u64,
        /// Space × time integral.
        integral: f64,
        /// Mean of member time-averages.
        mean: f64,
        /// Minimum member time-average.
        min: f64,
        /// Maximum member time-average.
        max: f64,
        /// Median member time-average.
        median: f64,
        /// Quarantined samples under the group.
        quarantined: u64,
        /// Whether no member carries the metric.
        empty: bool,
    },
    /// The observability snapshot after [`Command::Stats`]. Boxed:
    /// the blocks are by far the largest payload in the enum.
    Stats {
        /// Live sessions in the registry.
        sessions: u64,
        /// Server-scope metrics (per-command counters and registry
        /// occupancy).
        server: Box<StatsBlock>,
        /// The requested session's metrics, when one was named.
        session: Option<Box<SessionStats>>,
    },
    /// Recent causal span trees, after [`Command::Spans`]: flat,
    /// ordered by `(trace, id)` — rebuild trees by following `parent`.
    Spans {
        /// Spans evicted from the tracer's bounded rings (history the
        /// answer cannot include).
        dropped: u64,
        /// The selected spans.
        spans: Vec<SpanNode>,
    },
    /// A rendered frame.
    Frame {
        /// Session view revision the frame was rendered at.
        revision: u64,
        /// Whether the frame came from the cache.
        cached: bool,
        /// The SVG document.
        svg: String,
    },
    /// A session's checkpoint, after [`Command::Checkpoint`]. Boxed:
    /// the checkpoint embeds the whole trace.
    Checkpointed {
        /// The checkpointed session's name.
        session: String,
        /// The snapshot.
        state: Box<SessionCheckpoint>,
    },
    /// A session was rebuilt from a checkpoint.
    Restored {
        /// The restored session's name.
        session: String,
        /// The session's view revision (as captured).
        revision: u64,
    },
    /// One append was journaled and applied (or recognized as an
    /// idempotent duplicate).
    Appended {
        /// The live session's name.
        session: String,
        /// The acknowledged sequence number.
        seq: u64,
        /// View revision after the append (unchanged for duplicates
        /// and for records the lenient loader skips).
        revision: u64,
        /// Whether this `seq` was already applied (at-least-once
        /// retransmit); the record was **not** re-applied.
        duplicate: bool,
    },
    /// A live session's journal was sealed.
    Sealed {
        /// The sealed session's name.
        session: String,
        /// High-water sequence number at seal time.
        last_seq: u64,
    },
    /// This connection now follows a live session.
    Subscribed {
        /// The followed session's name.
        session: String,
        /// High-water sequence number at subscribe time — deltas for
        /// later appends arrive as [`Push::Delta`] lines.
        last_seq: u64,
    },
    /// A graceful drain started (or was already in progress).
    ShutdownStarted {
        /// Sessions live at drain time.
        sessions: u64,
        /// Sessions checkpointed to the checkpoint directory.
        checkpointed: u64,
    },
    /// The command failed; the session (if any) is unchanged.
    Error {
        /// Machine-readable failure kind.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// A line that failed to decode into a [`Command`] or [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

fn bad(message: impl Into<String>) -> DecodeError {
    DecodeError { message: message.into() }
}

/// Fetches a required string member.
fn str_field(obj: &Json, key: &str) -> Result<String, DecodeError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing or non-string field {key:?}")))
}

/// Fetches a required (finite) number member.
fn num_field(obj: &Json, key: &str) -> Result<f64, DecodeError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric field {key:?}")))
}

/// Fetches a required non-negative integer member.
fn uint_field(obj: &Json, key: &str) -> Result<u64, DecodeError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field {key:?}")))
}

/// Fetches an optional number member (absent or `null` → `None`).
fn opt_num_field(obj: &Json, key: &str) -> Result<Option<f64>, DecodeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("non-numeric field {key:?}"))),
    }
}

/// Fetches an optional string member (absent or `null` → `None`).
fn opt_str_field(obj: &Json, key: &str) -> Result<Option<String>, DecodeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| bad(format!("non-string field {key:?}"))),
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn mode_token(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::Strict => "strict",
        RecoveryMode::Lenient => "lenient",
    }
}

impl Command {
    /// The wire token naming this command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Sessions => "sessions",
            Command::CloseSession { .. } => "close_session",
            Command::LoadTrace { .. } => "load_trace",
            Command::Attach { .. } => "attach",
            Command::ListTraces => "list_traces",
            Command::DropTrace { .. } => "drop_trace",
            Command::SetTimeSlice { .. } => "set_time_slice",
            Command::Collapse { .. } => "collapse",
            Command::Expand { .. } => "expand",
            Command::CollapseAtDepth { .. } => "collapse_at_depth",
            Command::ExpandAll { .. } => "expand_all",
            Command::SetForces { .. } => "set_forces",
            Command::SetScaling { .. } => "set_scaling",
            Command::Drag { .. } => "drag",
            Command::Release { .. } => "release",
            Command::Relax { .. } => "relax",
            Command::Aggregate { .. } => "aggregate",
            Command::Stats { .. } => "stats",
            Command::Spans { .. } => "spans",
            Command::Render { .. } => "render",
            Command::Checkpoint { .. } => "checkpoint",
            Command::Restore { .. } => "restore",
            Command::Append { .. } => "append",
            Command::Seal { .. } => "seal",
            Command::Subscribe { .. } => "subscribe",
            Command::Shutdown => "shutdown",
        }
    }

    /// The deadline class this command is billed under.
    pub fn class(&self) -> CommandClass {
        match self {
            Command::Ping
            | Command::Sessions
            | Command::CloseSession { .. }
            | Command::ListTraces
            | Command::DropTrace { .. }
            | Command::Stats { .. }
            | Command::Spans { .. }
            | Command::Shutdown => CommandClass::Control,
            Command::SetTimeSlice { .. }
            | Command::Collapse { .. }
            | Command::Expand { .. }
            | Command::CollapseAtDepth { .. }
            | Command::ExpandAll { .. }
            | Command::SetForces { .. }
            | Command::SetScaling { .. }
            | Command::Drag { .. }
            | Command::Release { .. }
            | Command::Aggregate { .. }
            // The append fast path applies one incremental sample;
            // structural records (rare) escalate to a reload that runs
            // to completion — the journal already holds the record, so
            // abandoning it mid-reload would lose the ack.
            | Command::Append { .. }
            | Command::Seal { .. }
            | Command::Subscribe { .. } => CommandClass::Interact,
            Command::LoadTrace { .. }
            | Command::Attach { .. }
            | Command::Checkpoint { .. }
            | Command::Restore { .. } => CommandClass::Load,
            Command::Relax { .. } => CommandClass::Relax,
            Command::Render { .. } => CommandClass::Render,
        }
    }

    /// Serializes to the canonical one-line JSON form.
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    fn to_json(&self) -> Json {
        let name = Json::Str(self.name().to_owned());
        match self {
            Command::Ping | Command::Sessions => obj(vec![("cmd", name)]),
            Command::CloseSession { session } => {
                obj(vec![("cmd", name), ("session", Json::Str(session.clone()))])
            }
            Command::LoadTrace { session, mode, text, trace } => {
                let mut members = vec![
                    ("cmd", name),
                    ("session", Json::Str(session.clone())),
                    ("mode", Json::Str(mode_token(*mode).to_owned())),
                    ("text", Json::Str(text.clone())),
                ];
                if let Some(t) = trace {
                    members.push(("trace", Json::Str(t.clone())));
                }
                obj(members)
            }
            Command::Attach { session, trace } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("trace", Json::Str(trace.clone())),
            ]),
            Command::ListTraces => obj(vec![("cmd", name)]),
            Command::DropTrace { trace } => {
                obj(vec![("cmd", name), ("trace", Json::Str(trace.clone()))])
            }
            Command::SetTimeSlice { session, start, end } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
            ]),
            Command::Collapse { session, container } | Command::Expand { session, container } => {
                obj(vec![
                    ("cmd", name),
                    ("session", Json::Str(session.clone())),
                    ("container", Json::Str(container.clone())),
                ])
            }
            Command::CollapseAtDepth { session, depth } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("depth", Json::Num(*depth as f64)),
            ]),
            Command::ExpandAll { session } => {
                obj(vec![("cmd", name), ("session", Json::Str(session.clone()))])
            }
            Command::SetForces { session, repulsion, spring, damping } => {
                let mut members = vec![("cmd", name), ("session", Json::Str(session.clone()))];
                if let Some(r) = repulsion {
                    members.push(("repulsion", Json::Num(*r)));
                }
                if let Some(s) = spring {
                    members.push(("spring", Json::Num(*s)));
                }
                if let Some(d) = damping {
                    members.push(("damping", Json::Num(*d)));
                }
                obj(members)
            }
            Command::SetScaling { session, group, factor } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("group", Json::Str(group.clone())),
                ("factor", Json::Num(*factor)),
            ]),
            Command::Drag { session, container, x, y } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("container", Json::Str(container.clone())),
                ("x", Json::Num(*x)),
                ("y", Json::Num(*y)),
            ]),
            Command::Release { session, container } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("container", Json::Str(container.clone())),
            ]),
            Command::Relax { session, steps } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("steps", Json::Num(*steps as f64)),
            ]),
            Command::Aggregate { session, metric, group } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("metric", Json::Str(metric.clone())),
                ("group", Json::Str(group.clone())),
            ]),
            Command::Stats { session, reset } => {
                let mut members = vec![("cmd", name)];
                if let Some(s) = session {
                    members.push(("session", Json::Str(s.clone())));
                }
                if *reset {
                    members.push(("reset", Json::Bool(true)));
                }
                obj(members)
            }
            Command::Spans { session, limit } => {
                let mut members = vec![("cmd", name)];
                if let Some(s) = session {
                    members.push(("session", Json::Str(s.clone())));
                }
                if let Some(l) = limit {
                    members.push(("limit", Json::Num(*l as f64)));
                }
                obj(members)
            }
            Command::Render { session, width, height, theme, labels, zoom, pan_x, pan_y } => {
                let mut members = vec![
                    ("cmd", name),
                    ("session", Json::Str(session.clone())),
                    ("width", Json::Num(*width)),
                    ("height", Json::Num(*height)),
                    ("theme", Json::Str(theme.to_string())),
                    ("labels", Json::Bool(*labels)),
                ];
                if let Some(z) = zoom {
                    members.push(("zoom", Json::Num(*z)));
                }
                if let Some(p) = pan_x {
                    members.push(("pan_x", Json::Num(*p)));
                }
                if let Some(p) = pan_y {
                    members.push(("pan_y", Json::Num(*p)));
                }
                obj(members)
            }
            Command::Checkpoint { session } => {
                obj(vec![("cmd", name), ("session", Json::Str(session.clone()))])
            }
            Command::Restore { session, state } => {
                let mut members = vec![("cmd", name), ("session", Json::Str(session.clone()))];
                if let Some(s) = state {
                    members.push(("state", s.to_json()));
                }
                obj(members)
            }
            Command::Append { session, seq, text } => obj(vec![
                ("cmd", name),
                ("session", Json::Str(session.clone())),
                ("seq", Json::Num(*seq as f64)),
                ("text", Json::Str(text.clone())),
            ]),
            Command::Seal { session } => {
                obj(vec![("cmd", name), ("session", Json::Str(session.clone()))])
            }
            Command::Subscribe { session, from_seq } => {
                let mut members = vec![("cmd", name), ("session", Json::Str(session.clone()))];
                if let Some(f) = from_seq {
                    members.push(("from_seq", Json::Num(*f as f64)));
                }
                obj(members)
            }
            Command::Shutdown => obj(vec![("cmd", name)]),
        }
    }

    /// Decodes one request line. Unknown members are ignored; missing
    /// or ill-typed required members are a [`DecodeError`].
    pub fn decode(line: &str) -> Result<Command, DecodeError> {
        let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        let cmd = str_field(&v, "cmd")?;
        let session = || str_field(&v, "session");
        Ok(match cmd.as_str() {
            "ping" => Command::Ping,
            "sessions" => Command::Sessions,
            "close_session" => Command::CloseSession { session: session()? },
            "load_trace" => {
                let mode = match str_field(&v, "mode")?.as_str() {
                    "strict" => RecoveryMode::Strict,
                    "lenient" => RecoveryMode::Lenient,
                    other => {
                        return Err(bad(format!(
                            "unknown mode {other:?} (expected \"strict\" or \"lenient\")"
                        )))
                    }
                };
                Command::LoadTrace {
                    session: session()?,
                    mode,
                    text: str_field(&v, "text")?,
                    trace: opt_str_field(&v, "trace")?,
                }
            }
            "attach" => Command::Attach { session: session()?, trace: str_field(&v, "trace")? },
            "list_traces" => Command::ListTraces,
            "drop_trace" => Command::DropTrace { trace: str_field(&v, "trace")? },
            "set_time_slice" => Command::SetTimeSlice {
                session: session()?,
                start: num_field(&v, "start")?,
                end: num_field(&v, "end")?,
            },
            "collapse" => {
                Command::Collapse { session: session()?, container: str_field(&v, "container")? }
            }
            "expand" => {
                Command::Expand { session: session()?, container: str_field(&v, "container")? }
            }
            "collapse_at_depth" => {
                let depth = uint_field(&v, "depth")?;
                let depth = u32::try_from(depth).map_err(|_| bad("depth out of range"))?;
                Command::CollapseAtDepth { session: session()?, depth }
            }
            "expand_all" => Command::ExpandAll { session: session()? },
            "set_forces" => Command::SetForces {
                session: session()?,
                repulsion: opt_num_field(&v, "repulsion")?,
                spring: opt_num_field(&v, "spring")?,
                damping: opt_num_field(&v, "damping")?,
            },
            "set_scaling" => Command::SetScaling {
                session: session()?,
                group: str_field(&v, "group")?,
                factor: num_field(&v, "factor")?,
            },
            "drag" => Command::Drag {
                session: session()?,
                container: str_field(&v, "container")?,
                x: num_field(&v, "x")?,
                y: num_field(&v, "y")?,
            },
            "release" => {
                Command::Release { session: session()?, container: str_field(&v, "container")? }
            }
            "relax" => Command::Relax { session: session()?, steps: uint_field(&v, "steps")? },
            "aggregate" => Command::Aggregate {
                session: session()?,
                metric: str_field(&v, "metric")?,
                group: str_field(&v, "group")?,
            },
            "stats" => Command::Stats {
                session: opt_str_field(&v, "session")?,
                reset: v
                    .get("reset")
                    .map(|r| r.as_bool().ok_or_else(|| bad("non-boolean field \"reset\"")))
                    .transpose()?
                    .unwrap_or(false),
            },
            "spans" => Command::Spans {
                session: opt_str_field(&v, "session")?,
                limit: match v.get("limit") {
                    None | Some(Json::Null) => None,
                    Some(l) => {
                        Some(l.as_u64().ok_or_else(|| bad("non-integer field \"limit\""))?)
                    }
                },
            },
            "render" => {
                let theme_name = str_field(&v, "theme")?;
                let theme = Theme::from_str(&theme_name)
                    .map_err(|e| bad(format!("bad theme: {e}")))?;
                Command::Render {
                    session: session()?,
                    width: num_field(&v, "width")?,
                    height: num_field(&v, "height")?,
                    theme,
                    labels: v
                        .get("labels")
                        .map(|l| l.as_bool().ok_or_else(|| bad("non-boolean field \"labels\"")))
                        .transpose()?
                        .unwrap_or(false),
                    zoom: opt_num_field(&v, "zoom")?,
                    pan_x: opt_num_field(&v, "pan_x")?,
                    pan_y: opt_num_field(&v, "pan_y")?,
                }
            }
            "checkpoint" => Command::Checkpoint { session: session()? },
            "restore" => Command::Restore {
                session: session()?,
                state: match v.get("state") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(Box::new(SessionCheckpoint::from_json(s)?)),
                },
            },
            "append" => Command::Append {
                session: session()?,
                seq: uint_field(&v, "seq")?,
                text: str_field(&v, "text")?,
            },
            "seal" => Command::Seal { session: session()? },
            "subscribe" => Command::Subscribe {
                session: session()?,
                from_seq: match v.get("from_seq") {
                    None | Some(Json::Null) => None,
                    Some(f) => Some(
                        f.as_u64().ok_or_else(|| bad("non-integer field \"from_seq\""))?,
                    ),
                },
            },
            "shutdown" => Command::Shutdown,
            other => return Err(bad(format!("unknown command {other:?}"))),
        })
    }
}

/// Room for a frame reply's members before the SVG string.
const FRAME_PREFIX_BYTES: usize = 64;

/// Writes a frame reply up to its `"svg":` member name: the members
/// [`Response::Frame`] encodes ahead of the document, in the same
/// order and number format.
fn frame_prefix(out: &mut String, revision: u64, cached: bool) {
    out.push_str(r#"{"ok":"frame","revision":"#);
    write_number(revision as f64, out);
    out.push_str(if cached { r#","cached":true,"svg":"# } else { r#","cached":false,"svg":"# });
}

/// Appends the line [`Response::Frame`] encodes to, given the SVG as
/// an already escaped JSON string `body` (quotes included, as
/// [`viva::AnalysisSession::render_json_body`] writes it): the members
/// ahead of it, the body as is, and the closing brace.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, revision: u64, cached: bool, body: &str) {
    let mut prefix = String::with_capacity(FRAME_PREFIX_BYTES);
    frame_prefix(&mut prefix, revision, cached);
    out.reserve(prefix.len() + body.len() + 1);
    out.extend_from_slice(prefix.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out.push(b'}');
}

impl Response {
    /// Serializes to the canonical one-line JSON form.
    pub fn encode(&self) -> String {
        match self {
            // The SVG is nearly all of a frame's line: it is escaped
            // straight into one buffer reserved up front, never cloned
            // into a `Json` tree first.
            Response::Frame { revision, cached, svg } => {
                let mut out = String::with_capacity(FRAME_PREFIX_BYTES + svg.len() + svg.len() / 8);
                frame_prefix(&mut out, *revision, *cached);
                write_string(svg, &mut out);
                out.push('}');
                out
            }
            _ => self.to_json().encode(),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Response::Pong => obj(vec![("ok", Json::Str("pong".into()))]),
            Response::SessionList { names } => obj(vec![
                ("ok", Json::Str("sessions".into())),
                ("names", Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect())),
            ]),
            Response::Closed { session } => obj(vec![
                ("ok", Json::Str("closed".into())),
                ("session", Json::Str(session.clone())),
            ]),
            Response::Loaded {
                session,
                containers,
                events,
                dropped,
                quarantined,
                start,
                end,
                breach,
            } => obj(vec![
                ("ok", Json::Str("loaded".into())),
                ("session", Json::Str(session.clone())),
                ("containers", Json::Num(*containers as f64)),
                ("events", Json::Num(*events as f64)),
                ("dropped", Json::Num(*dropped as f64)),
                ("quarantined", Json::Num(*quarantined as f64)),
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
                (
                    "breach",
                    match breach {
                        Some(b) => Json::Str(b.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Attached { session, trace, containers, events, start, end } => obj(vec![
                ("ok", Json::Str("attached".into())),
                ("session", Json::Str(session.clone())),
                ("trace", Json::Str(trace.clone())),
                ("containers", Json::Num(*containers as f64)),
                ("events", Json::Num(*events as f64)),
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
            ]),
            Response::TraceList { traces } => obj(vec![
                ("ok", Json::Str("traces".into())),
                (
                    "traces",
                    Json::Arr(
                        traces
                            .iter()
                            .map(|t| {
                                obj(vec![
                                    ("name", Json::Str(t.name.clone())),
                                    ("hash", Json::Str(t.hash.clone())),
                                    ("containers", Json::Num(t.containers as f64)),
                                    ("events", Json::Num(t.events as f64)),
                                    ("sessions", Json::Num(t.sessions as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::TraceDropped { trace } => obj(vec![
                ("ok", Json::Str("trace_dropped".into())),
                ("trace", Json::Str(trace.clone())),
            ]),
            Response::Slice { start, end } => obj(vec![
                ("ok", Json::Str("slice".into())),
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
            ]),
            Response::Done { revision } => obj(vec![
                ("ok", Json::Str("done".into())),
                ("revision", Json::Num(*revision as f64)),
            ]),
            Response::Forces { repulsion, spring, damping } => obj(vec![
                ("ok", Json::Str("forces".into())),
                ("repulsion", Json::Num(*repulsion)),
                ("spring", Json::Num(*spring)),
                ("damping", Json::Num(*damping)),
            ]),
            Response::Relaxed { steps, frozen } => obj(vec![
                ("ok", Json::Str("relaxed".into())),
                ("steps", Json::Num(*steps as f64)),
                (
                    "frozen",
                    match frozen {
                        Some(f) => Json::Str(f.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Aggregated {
                members,
                integral,
                mean,
                min,
                max,
                median,
                quarantined,
                empty,
            } => obj(vec![
                ("ok", Json::Str("aggregate".into())),
                ("members", Json::Num(*members as f64)),
                ("integral", Json::Num(*integral)),
                ("mean", Json::Num(*mean)),
                ("min", Json::Num(*min)),
                ("max", Json::Num(*max)),
                ("median", Json::Num(*median)),
                ("quarantined", Json::Num(*quarantined as f64)),
                ("empty", Json::Bool(*empty)),
            ]),
            Response::Stats { sessions, server, session } => obj(vec![
                ("ok", Json::Str("stats".into())),
                ("sessions", Json::Num(*sessions as f64)),
                // The exact histogram bucket upper bounds — a protocol
                // constant (not state), so clients can turn the
                // reported sample counts into real quantiles without
                // hard-coding the log-linear scheme. Deterministic:
                // every bound is a power of two times a 2-bit fraction.
                (
                    "bucket_bounds",
                    Json::Arr(viva_obs::bucket_bounds().into_iter().map(Json::Num).collect()),
                ),
                ("server", server.to_json()),
                (
                    "session",
                    match session {
                        Some(s) => s.to_json(),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Spans { dropped, spans } => obj(vec![
                ("ok", Json::Str("spans".into())),
                ("dropped", Json::Num(*dropped as f64)),
                ("spans", Json::Arr(spans.iter().map(SpanNode::to_json).collect())),
            ]),
            Response::Frame { .. } => unreachable!("Response::encode writes frames directly"),
            Response::Checkpointed { session, state } => obj(vec![
                ("ok", Json::Str("checkpoint".into())),
                ("session", Json::Str(session.clone())),
                ("state", state.to_json()),
            ]),
            Response::Restored { session, revision } => obj(vec![
                ("ok", Json::Str("restored".into())),
                ("session", Json::Str(session.clone())),
                ("revision", Json::Num(*revision as f64)),
            ]),
            Response::Appended { session, seq, revision, duplicate } => obj(vec![
                ("ok", Json::Str("appended".into())),
                ("session", Json::Str(session.clone())),
                ("seq", Json::Num(*seq as f64)),
                ("revision", Json::Num(*revision as f64)),
                ("duplicate", Json::Bool(*duplicate)),
            ]),
            Response::Sealed { session, last_seq } => obj(vec![
                ("ok", Json::Str("sealed".into())),
                ("session", Json::Str(session.clone())),
                ("last_seq", Json::Num(*last_seq as f64)),
            ]),
            Response::Subscribed { session, last_seq } => obj(vec![
                ("ok", Json::Str("subscribed".into())),
                ("session", Json::Str(session.clone())),
                ("last_seq", Json::Num(*last_seq as f64)),
            ]),
            Response::ShutdownStarted { sessions, checkpointed } => obj(vec![
                ("ok", Json::Str("shutdown".into())),
                ("sessions", Json::Num(*sessions as f64)),
                ("checkpointed", Json::Num(*checkpointed as f64)),
            ]),
            Response::Error { kind, message } => {
                let mut members = vec![
                    ("err", Json::Str(kind.token().to_owned())),
                    ("message", Json::Str(message.clone())),
                ];
                if let ErrorKind::Overloaded { retry_after_ms } = kind {
                    members.push(("retry_after_ms", Json::Num(*retry_after_ms as f64)));
                }
                if let ErrorKind::SeqGap { expected } = kind {
                    members.push(("expected", Json::Num(*expected as f64)));
                }
                obj(members)
            }
        }
    }

    /// Decodes one response line (used by clients and the transcript
    /// tooling; the server only encodes).
    pub fn decode(line: &str) -> Result<Response, DecodeError> {
        let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if let Some(err) = v.get("err") {
            let token = err.as_str().ok_or_else(|| bad("non-string \"err\""))?;
            let mut kind = ErrorKind::from_token(token)
                .ok_or_else(|| bad(format!("unknown error kind {token:?}")))?;
            if matches!(kind, ErrorKind::Overloaded { .. }) {
                kind = ErrorKind::Overloaded { retry_after_ms: uint_field(&v, "retry_after_ms")? };
            }
            if matches!(kind, ErrorKind::SeqGap { .. }) {
                kind = ErrorKind::SeqGap { expected: uint_field(&v, "expected")? };
            }
            return Ok(Response::Error { kind, message: str_field(&v, "message")? });
        }
        let ok = str_field(&v, "ok")?;
        Ok(match ok.as_str() {
            "pong" => Response::Pong,
            "sessions" => {
                let names = match v.get("names") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|i| {
                            i.as_str().map(str::to_owned).ok_or_else(|| bad("non-string name"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(bad("missing or non-array field \"names\"")),
                };
                Response::SessionList { names }
            }
            "closed" => Response::Closed { session: str_field(&v, "session")? },
            "loaded" => Response::Loaded {
                session: str_field(&v, "session")?,
                containers: uint_field(&v, "containers")?,
                events: uint_field(&v, "events")?,
                dropped: uint_field(&v, "dropped")?,
                quarantined: uint_field(&v, "quarantined")?,
                start: num_field(&v, "start")?,
                end: num_field(&v, "end")?,
                breach: opt_str_field(&v, "breach")?,
            },
            "attached" => Response::Attached {
                session: str_field(&v, "session")?,
                trace: str_field(&v, "trace")?,
                containers: uint_field(&v, "containers")?,
                events: uint_field(&v, "events")?,
                start: num_field(&v, "start")?,
                end: num_field(&v, "end")?,
            },
            "traces" => {
                let traces = match v.get("traces") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|t| {
                            Ok(TraceEntry {
                                name: str_field(t, "name")?,
                                hash: str_field(t, "hash")?,
                                containers: uint_field(t, "containers")?,
                                events: uint_field(t, "events")?,
                                sessions: uint_field(t, "sessions")?,
                            })
                        })
                        .collect::<Result<Vec<_>, DecodeError>>()?,
                    _ => return Err(bad("missing or non-array field \"traces\"")),
                };
                Response::TraceList { traces }
            }
            "trace_dropped" => Response::TraceDropped { trace: str_field(&v, "trace")? },
            "slice" => {
                Response::Slice { start: num_field(&v, "start")?, end: num_field(&v, "end")? }
            }
            "done" => Response::Done { revision: uint_field(&v, "revision")? },
            "forces" => Response::Forces {
                repulsion: num_field(&v, "repulsion")?,
                spring: num_field(&v, "spring")?,
                damping: num_field(&v, "damping")?,
            },
            "relaxed" => Response::Relaxed {
                steps: uint_field(&v, "steps")?,
                frozen: opt_str_field(&v, "frozen")?,
            },
            "aggregate" => Response::Aggregated {
                members: uint_field(&v, "members")?,
                integral: num_field(&v, "integral")?,
                mean: num_field(&v, "mean")?,
                min: num_field(&v, "min")?,
                max: num_field(&v, "max")?,
                median: num_field(&v, "median")?,
                quarantined: uint_field(&v, "quarantined")?,
                empty: v
                    .get("empty")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing or non-boolean field \"empty\""))?,
            },
            "stats" => Response::Stats {
                sessions: uint_field(&v, "sessions")?,
                server: Box::new(StatsBlock::from_json(
                    v.get("server").ok_or_else(|| bad("missing field \"server\""))?,
                )?),
                session: match v.get("session") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(Box::new(SessionStats::from_json(s)?)),
                },
            },
            "spans" => Response::Spans {
                dropped: uint_field(&v, "dropped")?,
                spans: match v.get("spans") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(SpanNode::from_json)
                        .collect::<Result<Vec<_>, DecodeError>>()?,
                    _ => return Err(bad("missing or non-array field \"spans\"")),
                },
            },
            "frame" => Response::Frame {
                revision: uint_field(&v, "revision")?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing or non-boolean field \"cached\""))?,
                svg: str_field(&v, "svg")?,
            },
            "checkpoint" => Response::Checkpointed {
                session: str_field(&v, "session")?,
                state: Box::new(SessionCheckpoint::from_json(
                    v.get("state").ok_or_else(|| bad("missing field \"state\""))?,
                )?),
            },
            "restored" => Response::Restored {
                session: str_field(&v, "session")?,
                revision: uint_field(&v, "revision")?,
            },
            "appended" => Response::Appended {
                session: str_field(&v, "session")?,
                seq: uint_field(&v, "seq")?,
                revision: uint_field(&v, "revision")?,
                duplicate: v
                    .get("duplicate")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing or non-boolean field \"duplicate\""))?,
            },
            "sealed" => Response::Sealed {
                session: str_field(&v, "session")?,
                last_seq: uint_field(&v, "last_seq")?,
            },
            "subscribed" => Response::Subscribed {
                session: str_field(&v, "session")?,
                last_seq: uint_field(&v, "last_seq")?,
            },
            "shutdown" => Response::ShutdownStarted {
                sessions: uint_field(&v, "sessions")?,
                checkpointed: uint_field(&v, "checkpointed")?,
            },
            other => return Err(bad(format!("unknown response kind {other:?}"))),
        })
    }
}

/// One node's worth of view delta, as pushed to subscribers. A compact
/// projection of the session's `GraphView` node: identity plus the
/// values an observer dashboard needs, not geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaNode {
    /// Container id (stable within the live trace).
    pub container: u64,
    /// Container name.
    pub label: String,
    /// Fill (color) value — the time-averaged fill metric.
    pub fill: f64,
    /// Size value — the aggregated size metric.
    pub size: f64,
    /// Leaf members aggregated under this node (1 for a leaf).
    pub members: u64,
}

/// A server-initiated line pushed to a subscribed connection, distinct
/// from command responses by its leading `push` member (see
/// [`Push::is_push`]). Pushes interleave *between* request/response
/// pairs, never inside one.
#[derive(Debug, Clone, PartialEq)]
pub enum Push {
    /// The view changed after an applied append: the nodes whose view
    /// row changed (or appeared), and the container ids of nodes that
    /// vanished. A subscribe with a `from_seq` in the past receives
    /// one snapshot delta carrying every visible node.
    Delta {
        /// The live session.
        session: String,
        /// The append that caused this delta (the session high-water
        /// mark for a subscribe-time snapshot).
        seq: u64,
        /// Session view revision after the change.
        revision: u64,
        /// Changed or new nodes, view order.
        changed: Vec<DeltaNode>,
        /// Container ids no longer visible, ascending.
        removed: Vec<u64>,
    },
    /// The subscriber fell behind and its queue was shed. No further
    /// pushes will arrive; re-subscribe with `from_seq = resume_seq`
    /// to resynchronize via a snapshot delta.
    Lagging {
        /// The live session.
        session: String,
        /// First sequence number not covered by deltas already
        /// delivered to this subscriber.
        resume_seq: u64,
    },
}

impl Push {
    /// Cheap syntactic test: does this line look like a push (as
    /// opposed to a response)? Exact for lines the server produced.
    pub fn is_push(line: &str) -> bool {
        line.starts_with("{\"push\":")
    }

    /// Serializes to the canonical one-line JSON form.
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    fn to_json(&self) -> Json {
        match self {
            Push::Delta { session, seq, revision, changed, removed } => obj(vec![
                ("push", Json::Str("delta".into())),
                ("session", Json::Str(session.clone())),
                ("seq", Json::Num(*seq as f64)),
                ("revision", Json::Num(*revision as f64)),
                (
                    "changed",
                    Json::Arr(
                        changed
                            .iter()
                            .map(|n| {
                                obj(vec![
                                    ("c", Json::Num(n.container as f64)),
                                    ("label", Json::Str(n.label.clone())),
                                    ("fill", Json::Num(n.fill)),
                                    ("size", Json::Num(n.size)),
                                    ("members", Json::Num(n.members as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "removed",
                    Json::Arr(removed.iter().map(|c| Json::Num(*c as f64)).collect()),
                ),
            ]),
            Push::Lagging { session, resume_seq } => obj(vec![
                ("push", Json::Str("lagging".into())),
                ("session", Json::Str(session.clone())),
                ("resume_seq", Json::Num(*resume_seq as f64)),
            ]),
        }
    }

    /// Decodes one pushed line.
    pub fn decode(line: &str) -> Result<Push, DecodeError> {
        let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let kind = str_field(&v, "push")?;
        Ok(match kind.as_str() {
            "delta" => {
                let changed = match v.get("changed") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|n| {
                            Ok(DeltaNode {
                                container: uint_field(n, "c")?,
                                label: str_field(n, "label")?,
                                fill: num_field(n, "fill")?,
                                size: num_field(n, "size")?,
                                members: uint_field(n, "members")?,
                            })
                        })
                        .collect::<Result<Vec<_>, DecodeError>>()?,
                    _ => return Err(bad("missing or non-array field \"changed\"")),
                };
                let removed = match v.get("removed") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|c| c.as_u64().ok_or_else(|| bad("non-integer removed id")))
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(bad("missing or non-array field \"removed\"")),
                };
                Push::Delta {
                    session: str_field(&v, "session")?,
                    seq: uint_field(&v, "seq")?,
                    revision: uint_field(&v, "revision")?,
                    changed,
                    removed,
                }
            }
            "lagging" => Push::Lagging {
                session: str_field(&v, "session")?,
                resume_seq: uint_field(&v, "resume_seq")?,
            },
            other => return Err(bad(format!("unknown push kind {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{NodePlacement, CHECKPOINT_VERSION};

    fn tiny_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            session: "s".into(),
            revision: 3,
            slice_start: 0.5,
            slice_end: 9.25,
            collapsed: vec![1, 4],
            forces: (100.0, 2.0, 0.6),
            scaling: vec![("power".into(), 2.0)],
            placements: vec![NodePlacement { container: 2, x: -1.5, y: 3.25, pinned: true }],
            quarantined: vec![(2, 0, 7)],
            ingest_dropped: 1,
            journal: Some(("s".into(), 12)),
            trace_hash: crate::store::hash_token(crate::store::content_hash(b"span,0,10\n")),
            trace_csv: "span,0,10\n".into(),
        }
    }

    #[test]
    fn command_encoding_is_stable() {
        let cmd = Command::Render {
            session: "a".into(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Dark,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        };
        assert_eq!(
            cmd.encode(),
            r#"{"cmd":"render","session":"a","width":800,"height":600,"theme":"dark","labels":false}"#
        );
        assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);

        let lod = Command::Render {
            session: "a".into(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Dark,
            labels: false,
            zoom: Some(4.0),
            pan_x: Some(-12.5),
            pan_y: None,
        };
        assert_eq!(
            lod.encode(),
            r#"{"cmd":"render","session":"a","width":800,"height":600,"theme":"dark","labels":false,"zoom":4,"pan_x":-12.5}"#
        );
        assert_eq!(Command::decode(&lod.encode()).unwrap(), lod);
    }

    #[test]
    fn commands_round_trip() {
        let cmds = vec![
            Command::Ping,
            Command::Sessions,
            Command::CloseSession { session: "s".into() },
            Command::LoadTrace {
                session: "s".into(),
                mode: RecoveryMode::Lenient,
                text: "span,0.0,10.0\n".into(),
                trace: None,
            },
            Command::LoadTrace {
                session: "s".into(),
                mode: RecoveryMode::Strict,
                text: "span,0.0,10.0\n".into(),
                trace: Some("shared".into()),
            },
            Command::Attach { session: "s2".into(), trace: "shared".into() },
            Command::ListTraces,
            Command::DropTrace { trace: "shared".into() },
            Command::SetTimeSlice { session: "s".into(), start: 0.25, end: 7.5 },
            Command::Collapse { session: "s".into(), container: "c1".into() },
            Command::Expand { session: "s".into(), container: "c1".into() },
            Command::CollapseAtDepth { session: "s".into(), depth: 2 },
            Command::ExpandAll { session: "s".into() },
            Command::SetForces {
                session: "s".into(),
                repulsion: Some(250.0),
                spring: None,
                damping: Some(0.5),
            },
            Command::SetScaling { session: "s".into(), group: "bandwidth".into(), factor: 2.0 },
            Command::Drag { session: "s".into(), container: "h1".into(), x: -3.5, y: 10.0 },
            Command::Release { session: "s".into(), container: "h1".into() },
            Command::Relax { session: "s".into(), steps: 500 },
            Command::Aggregate {
                session: "s".into(),
                metric: "power_used".into(),
                group: "c1".into(),
            },
            Command::Stats { session: None, reset: false },
            Command::Stats { session: Some("s".into()), reset: false },
            Command::Checkpoint { session: "s".into() },
            Command::Restore { session: "s".into(), state: None },
            Command::Restore { session: "s".into(), state: Some(Box::new(tiny_checkpoint())) },
            Command::Append { session: "live".into(), seq: 42, text: "var,1.0,1,0,3.5".into() },
            Command::Seal { session: "live".into() },
            Command::Subscribe { session: "live".into(), from_seq: None },
            Command::Subscribe { session: "live".into(), from_seq: Some(7) },
            Command::Shutdown,
        ];
        for cmd in cmds {
            let line = cmd.encode();
            assert_eq!(Command::decode(&line).unwrap(), cmd, "{line}");
            assert_eq!(Command::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Pong,
            Response::SessionList { names: vec!["a".into(), "b".into()] },
            Response::Closed { session: "a".into() },
            Response::Loaded {
                session: "a".into(),
                containers: 12,
                events: 300,
                dropped: 2,
                quarantined: 1,
                start: 0.0,
                end: 10.0,
                breach: Some("event count budget (10) exhausted at line 7 (byte 130)".into()),
            },
            Response::Attached {
                session: "s2".into(),
                trace: "shared".into(),
                containers: 12,
                events: 300,
                start: 0.0,
                end: 10.0,
            },
            Response::TraceList {
                traces: vec![TraceEntry {
                    name: "shared".into(),
                    hash: "00c0ffee00c0ffee".into(),
                    containers: 12,
                    events: 300,
                    sessions: 2,
                }],
            },
            Response::TraceList { traces: vec![] },
            Response::TraceDropped { trace: "shared".into() },
            Response::Slice { start: 0.0, end: 2.5 },
            Response::Done { revision: 42 },
            Response::Forces { repulsion: 100.0, spring: 2.0, damping: 0.6 },
            Response::Relaxed { steps: 137, frozen: None },
            Response::Relaxed { steps: 0, frozen: Some("non-finite force".into()) },
            Response::Aggregated {
                members: 4,
                integral: 2400.0,
                mean: 60.0,
                min: 60.0,
                max: 60.0,
                median: 60.0,
                quarantined: 0,
                empty: false,
            },
            Response::Frame { revision: 7, cached: true, svg: "<svg>…</svg>\n".into() },
            Response::Stats {
                sessions: 2,
                server: Box::new(StatsBlock {
                    clock: 0,
                    counters: vec![("server.cmd.ping".into(), 3)],
                    gauges: vec![("server.sessions".into(), 2.0)],
                    histograms: vec![("server.cmd.ping.seconds".into(), 3)],
                    events: vec![],
                    events_dropped: 0,
                }),
                session: None,
            },
            Response::Stats {
                sessions: 1,
                server: Box::new(StatsBlock::default()),
                session: Some(Box::new(SessionStats {
                    name: "a".into(),
                    revision: 9,
                    frozen: Some("non_finite_force".into()),
                    stats: StatsBlock {
                        clock: 2,
                        counters: vec![("layout.steps".into(), 40)],
                        gauges: vec![("layout.kinetic_energy".into(), 0.125)],
                        histograms: vec![("layout.step.seconds".into(), 40)],
                        events: vec![
                            StatsEvent {
                                seq: 0,
                                name: "layout.freeze".into(),
                                detail: "non_finite_force".into(),
                            },
                            StatsEvent {
                                seq: 1,
                                name: "layout.thaw".into(),
                                detail: "non_finite_force".into(),
                            },
                        ],
                        events_dropped: 0,
                    },
                })),
            },
            Response::Checkpointed { session: "a".into(), state: Box::new(tiny_checkpoint()) },
            Response::Restored { session: "a".into(), revision: 3 },
            Response::Appended { session: "live".into(), seq: 42, revision: 17, duplicate: false },
            Response::Appended { session: "live".into(), seq: 41, revision: 17, duplicate: true },
            Response::Sealed { session: "live".into(), last_seq: 42 },
            Response::Subscribed { session: "live".into(), last_seq: 42 },
            Response::ShutdownStarted { sessions: 2, checkpointed: 2 },
            Response::Error { kind: ErrorKind::NoSession, message: "session \"x\"".into() },
            Response::Error {
                kind: ErrorKind::Overloaded { retry_after_ms: 50 },
                message: "64 commands in flight".into(),
            },
            Response::Error { kind: ErrorKind::DeadlineExceeded, message: "render".into() },
            Response::Error { kind: ErrorKind::BadCheckpoint, message: "version 9".into() },
            Response::Error { kind: ErrorKind::NoTrace, message: "trace \"shared\"".into() },
            Response::Error {
                kind: ErrorKind::SeqGap { expected: 8 },
                message: "expected seq 8, got 12".into(),
            },
            Response::Error { kind: ErrorKind::NotLive, message: "session \"s\"".into() },
            Response::Error { kind: ErrorKind::SessionSealed, message: "session \"s\"".into() },
        ];
        for r in responses {
            let line = r.encode();
            assert_eq!(Response::decode(&line).unwrap(), r, "{line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
    }

    #[test]
    fn stats_command_encoding_is_stable() {
        assert_eq!(Command::Stats { session: None, reset: false }.encode(), r#"{"cmd":"stats"}"#);
        assert_eq!(
            Command::Stats { session: Some("a".into()), reset: false }.encode(),
            r#"{"cmd":"stats","session":"a"}"#
        );
    }

    #[test]
    fn stats_block_projection_keeps_only_deterministic_data() {
        let rec = viva_obs::Recorder::enabled();
        rec.counter("c").add(7);
        rec.gauge("bad").set(f64::NAN);
        rec.histogram("h.seconds").record(0.25);
        rec.event("e", "d");
        let block = StatsBlock::from_snapshot(&rec.snapshot());
        assert_eq!(block.counters, vec![("c".to_owned(), 7)]);
        assert_eq!(block.gauges, vec![("bad".to_owned(), 0.0)], "NaN gauge sanitized");
        assert_eq!(
            block.histograms,
            vec![("h.seconds".to_owned(), 1)],
            "count only — no sum, no buckets"
        );
        assert_eq!(
            block.events,
            vec![StatsEvent { seq: 0, name: "e".into(), detail: "d".into() }]
        );
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "[]",
            "42",
            r#"{"cmd":"no_such_command"}"#,
            r#"{"cmd":"collapse"}"#,
            r#"{"cmd":"collapse","session":"s"}"#,
            r#"{"cmd":"render","session":"s","width":800,"height":600,"theme":"sepia"}"#,
            r#"{"cmd":"relax","session":"s","steps":-1}"#,
            r#"{"cmd":"relax","session":"s","steps":2.5}"#,
            r#"{"cmd":"load_trace","session":"s","mode":"yolo","text":""}"#,
            r#"{"cmd":"set_time_slice","session":"s","start":"a","end":1}"#,
        ] {
            assert!(Command::decode(bad).is_err(), "{bad:?} should fail to decode");
        }
    }

    #[test]
    fn pushes_round_trip() {
        let pushes = vec![
            Push::Delta {
                session: "live".into(),
                seq: 42,
                revision: 17,
                changed: vec![
                    DeltaNode {
                        container: 3,
                        label: "h0".into(),
                        fill: 0.5,
                        size: 120.0,
                        members: 1,
                    },
                    DeltaNode {
                        container: 1,
                        label: "c1".into(),
                        fill: 0.25,
                        size: 240.0,
                        members: 2,
                    },
                ],
                removed: vec![4, 9],
            },
            Push::Delta {
                session: "live".into(),
                seq: 1,
                revision: 1,
                changed: vec![],
                removed: vec![],
            },
            Push::Lagging { session: "live".into(), resume_seq: 40 },
        ];
        for p in pushes {
            let line = p.encode();
            assert!(Push::is_push(&line), "{line}");
            assert_eq!(Push::decode(&line).unwrap(), p, "{line}");
            assert_eq!(Push::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
        // Responses never look like pushes.
        assert!(!Push::is_push(&Response::Pong.encode()));
        assert!(!Push::is_push(
            &Response::Appended {
                session: "s".into(),
                seq: 1,
                revision: 1,
                duplicate: false
            }
            .encode()
        ));
    }

    #[test]
    fn unknown_members_are_ignored() {
        let cmd =
            Command::decode(r#"{"cmd":"ping","future_field":123,"another":{"x":[1,2]}}"#).unwrap();
        assert_eq!(cmd, Command::Ping);
    }
}
