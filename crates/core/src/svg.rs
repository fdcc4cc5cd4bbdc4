//! Deterministic SVG rendering of [`GraphView`]s.
//!
//! The renderer draws exactly the paper's vocabulary: squares, diamonds
//! and circles with an optional proportional fill (a bottom-up filled
//! portion for squares, an inner scaled shape for diamonds/circles),
//! colored by container kind, connected by thin edges. Output is a
//! plain string, byte-stable for identical views — golden tests rely on
//! this.

use std::fmt::Write as _;

use viva_layout::Vec2;

use crate::color::{kind_color, Color};
use crate::mapping::Shape;
use crate::view::{GraphView, ViewNode, ViewTile};
use crate::viewport::{Theme, Viewport};

/// Rendering options.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgOptions {
    /// Canvas width, pixels.
    pub width: f64,
    /// Canvas height, pixels.
    pub height: f64,
    /// Draw node labels.
    pub labels: bool,
    /// Padding around the drawing, pixels.
    pub padding: f64,
    /// Color theme.
    pub theme: Theme,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 800.0,
            height: 600.0,
            labels: false,
            padding: 30.0,
            theme: Theme::Light,
        }
    }
}

impl From<&Viewport> for SvgOptions {
    fn from(vp: &Viewport) -> SvgOptions {
        SvgOptions {
            width: vp.width,
            height: vp.height,
            labels: vp.labels,
            padding: vp.padding,
            theme: vp.theme,
        }
    }
}

/// Maps layout coordinates to the SVG viewport (uniform scale,
/// centered).
pub(crate) struct Projection {
    scale: f64,
    offset: Vec2,
}

impl Projection {
    fn fit(view: &GraphView, opts: &SvgOptions) -> Projection {
        Projection::fit_bounds(view.bounds(), opts)
    }

    /// Fits a world bounding box into the padded canvas — the one
    /// place the fit arithmetic lives. The camera path feeds it the
    /// *full-frontier* bounds so an identity camera reproduces the
    /// classic fit bit for bit even when the view it draws keeps only
    /// a subset of the frontier.
    pub(crate) fn fit_bounds(bounds: Option<(Vec2, Vec2)>, opts: &SvgOptions) -> Projection {
        let (lo, hi) = bounds.unwrap_or((Vec2::default(), Vec2::default()));
        let span = hi - lo;
        let usable_w = (opts.width - 2.0 * opts.padding).max(1.0);
        let usable_h = (opts.height - 2.0 * opts.padding).max(1.0);
        let sx = if span.x > 0.0 { usable_w / span.x } else { f64::INFINITY };
        let sy = if span.y > 0.0 { usable_h / span.y } else { f64::INFINITY };
        let scale = sx.min(sy);
        let scale = if scale.is_finite() { scale } else { 1.0 };
        let center = (lo + hi) * 0.5;
        let canvas_center = Vec2::new(opts.width / 2.0, opts.height / 2.0);
        Projection { scale, offset: canvas_center - center * scale }
    }

    /// [`Projection::fit_bounds`] followed by the camera transform:
    /// zoom multiplies the fitted scale about the canvas center, pan
    /// shifts the canvas in pixels. Every step is guarded so the
    /// identity camera leaves the fitted projection bit-identical —
    /// `scale * 1.0` and `offset - 0.0` are *not* no-ops for every
    /// float (`-0.0` flips under `+ 0.0`), so they are skipped rather
    /// than trusted.
    pub(crate) fn fit_camera(
        bounds: Option<(Vec2, Vec2)>,
        opts: &SvgOptions,
        camera: &crate::viewport::Camera,
    ) -> Projection {
        let base = Projection::fit_bounds(bounds, opts);
        let mut scale = base.scale;
        let mut offset = base.offset;
        if camera.zoom != 1.0 {
            let canvas_center = Vec2::new(opts.width / 2.0, opts.height / 2.0);
            let world_center = Vec2::new(
                (canvas_center.x - base.offset.x) / base.scale,
                (canvas_center.y - base.offset.y) / base.scale,
            );
            scale = base.scale * camera.zoom;
            offset = canvas_center - world_center * scale;
        }
        if camera.pan_x != 0.0 {
            offset.x -= camera.pan_x;
        }
        if camera.pan_y != 0.0 {
            offset.y -= camera.pan_y;
        }
        Projection { scale, offset }
    }

    pub(crate) fn project(&self, p: Vec2) -> Vec2 {
        p * self.scale + self.offset
    }
}

/// What the encoder writes: the SVG document itself, or the same
/// document as one JSON string literal, quotes included — the body of
/// a frame reply. The JSON form is escaped where each fragment is
/// written, not by a pass over the finished document: a dense frame
/// needs an escape every few bytes, and a post-pass pays per escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Encoding {
    /// The SVG document.
    Svg,
    /// The SVG document as a JSON string literal.
    JsonString,
}

/// The JSON escape of byte `b` — exactly what the server's JSON writer
/// emits for it — or `""` when `b` stands for itself.
const fn json_escape(b: u8) -> &'static str {
    const CONTROL: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f",
        "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
        "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    match b {
        b'"' => "\\\"",
        b'\\' => "\\\\",
        0x00..=0x1f => CONTROL[b as usize],
        _ => "",
    }
}

/// Length of `s` JSON-escaped (without surrounding quotes).
const fn json_len(s: &str) -> usize {
    let b = s.as_bytes();
    let (mut i, mut n) = (0, 0);
    while i < b.len() {
        let e = json_escape(b[i]).len();
        n += if e == 0 { 1 } else { e };
        i += 1;
    }
    n
}

/// `s` JSON-escaped into exactly `N = json_len(s)` bytes.
const fn json_twin<const N: usize>(s: &str) -> [u8; N] {
    let b = s.as_bytes();
    let mut out = [0u8; N];
    let (mut i, mut n) = (0, 0);
    while i < b.len() {
        let e = json_escape(b[i]).as_bytes();
        if e.is_empty() {
            out[n] = b[i];
            n += 1;
        } else {
            let mut j = 0;
            while j < e.len() {
                out[n] = e[j];
                n += 1;
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// A fixed fragment of markup and its JSON-escaped twin, in
/// [`Encoding`] order. Built only by [`lit!`], at compile time.
#[derive(Clone, Copy)]
struct Lit([&'static str; 2]);

/// The [`Lit`] of a constant string: the twin is computed by a `const`
/// evaluation, so choosing the encoding costs a branch per fragment.
macro_rules! lit {
    ($raw:expr) => {{
        const RAW: &str = $raw;
        const TWIN: [u8; json_len(RAW)] = json_twin(RAW);
        const LIT: Lit = Lit([
            RAW,
            match std::str::from_utf8(&TWIN) {
                Ok(s) => s,
                Err(_) => panic!("escaping ASCII bytes keeps UTF-8 valid"),
            },
        ]);
        LIT
    }};
}

/// Whether `s` reads the same as markup text, as an attribute value
/// and inside a JSON string: no XML special, no JSON escape.
fn is_plain(s: &str) -> bool {
    s.bytes().all(|b| json_escape(b).is_empty() && !matches!(b, b'&' | b'<' | b'>'))
}

/// The encoder's output buffer in one [`Encoding`]. Fixed fragments go
/// through [`Out::lit`]; numbers, colours and names are plain by
/// construction (checked in debug builds); user strings go through
/// [`Out::text`].
struct Out {
    buf: String,
    enc: Encoding,
}

impl Out {
    fn new(capacity: usize, enc: Encoding) -> Out {
        let mut buf = String::with_capacity(capacity);
        if enc == Encoding::JsonString {
            buf.push('"');
        }
        Out { buf, enc }
    }

    fn finish(mut self) -> String {
        if self.enc == Encoding::JsonString {
            self.buf.push('"');
        }
        self.buf
    }

    /// A branch per fragment rather than an index: each arm copies a
    /// string of constant length, which the compiler does inline.
    #[inline(always)]
    fn lit(&mut self, lit: Lit) {
        match self.enc {
            Encoding::Svg => self.buf.push_str(lit.0[0]),
            Encoding::JsonString => self.buf.push_str(lit.0[1]),
        }
    }

    /// Appends a fragment that needs no escape in either encoding.
    #[inline]
    fn plain(&mut self, s: &str) {
        debug_assert!(is_plain(s), "{s:?} needs escaping");
        self.buf.push_str(s);
    }

    /// Runs a writer whose output must be plain (see [`is_plain`]).
    #[inline]
    fn plain_with(&mut self, write: impl FnOnce(&mut String)) {
        let at = self.buf.len();
        write(&mut self.buf);
        debug_assert!(is_plain(&self.buf[at..]), "{:?} needs escaping", &self.buf[at..]);
    }

    fn fixed(&mut self, v: f64, decimals: usize) {
        self.plain_with(|b| push_fixed(b, v, decimals));
    }

    fn uint(&mut self, v: u64) {
        self.plain_with(|b| push_uint(b, v));
    }

    fn hex(&mut self, color: Color) {
        self.plain_with(|b| color.push_hex(b));
    }

    /// Appends `v` as `format!("{v}")` writes it.
    fn display(&mut self, v: f64) {
        self.plain_with(|b| {
            let _ = write!(b, "{v}");
        });
    }

    /// Appends a user string XML-escaped — `&`, `<` and `>` always,
    /// and `"` too when `quote` is set (the value then lands inside a
    /// `"…"` attribute) — and, in the JSON encoding, JSON-escaped on
    /// top, in the same pass.
    fn text(&mut self, s: &str, quote: bool) {
        let json = self.enc == Encoding::JsonString;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' if quote => "&quot;",
                _ if json && !json_escape(b).is_empty() => json_escape(b),
                _ => continue,
            };
            self.buf.push_str(&s[run..i]);
            self.buf.push_str(escape);
            run = i + 1;
        }
        self.buf.push_str(&s[run..]);
    }
}

/// Appends `v` exactly as `format!("{v:.N}")` writes it, for
/// `N = decimals` (2 or 3) — without going through `core::fmt` on the
/// common path. The fast path rounds `|v|·10^N` to the nearest
/// integer: for `|v| < 1e9` the product's rounding error is below
/// `1e-4`, so away from a rounding tie it rounds the way the exact
/// decimal expansion does. Non-finite values, `|v| ≥ 1e9` and scaled
/// values within `1e-4` of a tie (where `core::fmt`'s exact
/// half-to-even rounding decides) take `core::fmt` itself. Like
/// `core::fmt`, it keeps the sign of negative values that round to
/// zero (`-0.001` → `-0.00`) and of `-0.0`.
fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    const SCALE: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
    if !v.is_finite() || v.abs() >= 1e9 {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    // Below 1e12, so the truncating cast is the floor and `frac` the
    // exact fractional part.
    let scaled = v.abs() * SCALE[decimals];
    let whole = scaled as u64;
    let frac = scaled - whole as f64;
    if (frac - 0.5).abs() <= 1e-4 {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    let mut n = whole + u64::from(frac > 0.5);
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    for _ in 0..decimals {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    at = digits_before(&mut buf, at, n);
    if v.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Writes the decimal digits of `n` into `buf` so that they end just
/// before `at`; returns where they start.
fn digits_before(buf: &mut [u8], mut at: usize, mut n: u64) -> usize {
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

/// Appends `v` in decimal, as `format!("{v}")` writes it.
fn push_uint(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let at = digits_before(&mut buf, 20, v);
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Opens `<tag` followed by ` name="v"` per attribute, each `v`
/// written as `{:.2}`.
fn open_element(out: &mut Out, tag: &str, attrs: &[(&str, f64)]) {
    out.lit(lit!("<"));
    out.plain(tag);
    for &(name, v) in attrs {
        out.lit(lit!(" "));
        out.plain(name);
        out.lit(lit!("=\""));
        out.fixed(v, 2);
        out.lit(lit!("\""));
    }
}

/// Opens a shape element at `center` of side/diameter `size`, up to
/// and including the space before its style attributes; the caller
/// writes the style and closes it with `/>`.
fn open_shape(out: &mut Out, shape: Shape, center: Vec2, size: f64) {
    let h = size / 2.0;
    match shape {
        Shape::Square => {
            let (x, y) = (center.x - h, center.y - h);
            open_element(out, "rect", &[("x", x), ("y", y), ("width", size), ("height", size)]);
        }
        Shape::Diamond => {
            out.lit(lit!(r#"<polygon points=""#));
            for (i, (x, y)) in [
                (center.x, center.y - h),
                (center.x + h, center.y),
                (center.x, center.y + h),
                (center.x - h, center.y),
            ]
            .into_iter()
            .enumerate()
            {
                if i > 0 {
                    out.lit(lit!(" "));
                }
                out.fixed(x, 2);
                out.lit(lit!(","));
                out.fixed(y, 2);
            }
            out.lit(lit!("\""));
        }
        Shape::Circle => open_element(out, "circle", &[("cx", center.x), ("cy", center.y), ("r", h)]),
    }
    out.lit(lit!(" "));
}

/// A shape outlined in `color`, unfilled.
fn write_outline(out: &mut Out, shape: Shape, center: Vec2, size: f64, color: Color, width: &str) {
    open_shape(out, shape, center, size);
    out.lit(lit!(r#"fill="none" stroke=""#));
    out.hex(color);
    out.lit(lit!(r#"" stroke-width=""#));
    out.plain(width);
    out.lit(lit!(r#""/>"#));
}

/// Closes an element with the translucent proportional-fill style.
fn close_fill(out: &mut Out, color: Color) {
    out.lit(lit!(r#"fill=""#));
    out.hex(color);
    out.lit(lit!(r#"" fill-opacity="0.75"/>"#));
}

/// A label under a glyph: `<text …>label</text>`.
fn write_label(out: &mut Out, x: f64, y: f64, opts: &SvgOptions, label: &str) {
    open_element(out, "text", &[("x", x), ("y", y)]);
    out.lit(lit!(r#" font-size="9" text-anchor="middle" fill=""#));
    out.plain(opts.theme.label_fill());
    out.lit(lit!(r#"">"#));
    out.text(label, false);
    out.lit(lit!("</text>"));
}

/// Stroke color marking resources that failed during the slice.
const FAULT_STROKE: &str = "#cc2222";

fn write_node(out: &mut Out, node: &ViewNode, center: Vec2, opts: &SvgOptions) {
    let color = kind_color(node.kind);
    out.lit(lit!(r#"<g class="node node-"#));
    out.plain(node.shape.label());
    if node.is_degraded() {
        // Failed (or partially failed, for aggregates) resources are
        // rendered distinctly: the exact availability travels as a data
        // attribute, the outline below switches to a dashed red stroke.
        out.lit(lit!(" degraded"));
    }
    out.lit(lit!(r#"" data-container=""#));
    out.uint(node.container.index() as u64);
    out.lit(lit!(r#"" data-members=""#));
    out.uint(node.members as u64);
    out.lit(lit!("\""));
    if node.is_degraded() {
        out.lit(lit!(r#" data-availability=""#));
        out.fixed(node.availability, 3);
        out.lit(lit!("\""));
    }
    // Ingest trust annotation: values under a quarantine-marked node
    // were computed after dropping non-finite samples.
    if node.quarantined > 0 {
        out.lit(lit!(r#" data-quarantined=""#));
        out.uint(node.quarantined);
        out.lit(lit!("\""));
    }
    out.lit(lit!(">"));
    // Outline: dashed red for anything that was down during the slice.
    open_shape(out, node.shape, center, node.px_size);
    if node.is_degraded() {
        out.lit(lit!(r#"fill="none" stroke=""#));
        out.plain(FAULT_STROKE);
        out.lit(lit!(r#"" stroke-width="1.5" stroke-dasharray="4 2"/>"#));
    } else {
        out.lit(lit!(r#"fill="none" stroke=""#));
        out.hex(color);
        out.lit(lit!(r#"" stroke-width="1.5"/>"#));
    }
    // Proportional fill (§3.1): squares fill bottom-up; diamonds and
    // circles get an inner shape of proportional area.
    if node.fill_fraction > 0.0 {
        match node.shape {
            Shape::Square => {
                let s = node.px_size;
                let fh = s * node.fill_fraction;
                let (x, y) = (center.x - s / 2.0, center.y + s / 2.0 - fh);
                open_element(out, "rect", &[("x", x), ("y", y), ("width", s), ("height", fh)]);
                out.lit(lit!(" "));
            }
            Shape::Diamond | Shape::Circle => {
                let inner = node.px_size * node.fill_fraction.sqrt();
                open_shape(out, node.shape, center, inner);
            }
        }
        close_fill(out, color);
    }
    // Fig. 3 link badge of aggregated groups: a diamond at the
    // north-east corner.
    if let Some(badge) = &node.link_badge {
        let at = center + Vec2::new(node.px_size / 2.0, -node.px_size / 2.0);
        let color = kind_color(viva_trace::ContainerKind::Link);
        write_outline(out, Shape::Diamond, at, badge.px_size, color, "1.2");
        if badge.fill_fraction > 0.0 {
            open_shape(out, Shape::Diamond, at, badge.px_size * badge.fill_fraction.sqrt());
            close_fill(out, color);
        }
    }
    // §6 pie glyph: per-metric shares at the south-east corner.
    if !node.segments.is_empty() {
        let at = center + Vec2::new(node.px_size / 2.0, node.px_size / 2.0);
        let r = (node.px_size / 3.0).max(3.0);
        let mut angle = -std::f64::consts::FRAC_PI_2;
        for (i, (name, share)) in node.segments.iter().enumerate() {
            let sweep = share * std::f64::consts::TAU;
            let (x0, y0) = (at.x + r * angle.cos(), at.y + r * angle.sin());
            let end = angle + sweep;
            let (x1, y1) = (at.x + r * end.cos(), at.y + r * end.sin());
            if *share >= 1.0 - 1e-9 {
                open_shape(out, Shape::Circle, at, 2.0 * r);
            } else {
                out.lit(lit!(r#"<path d="M "#));
                for (p, sep) in
                    [(at.x, lit!(" ")), (at.y, lit!(" L ")), (x0, lit!(" ")), (y0, lit!(" A "))]
                {
                    out.fixed(p, 2);
                    out.lit(sep);
                }
                out.fixed(r, 2);
                out.lit(lit!(" "));
                out.fixed(r, 2);
                let arc = if sweep > std::f64::consts::PI { lit!(" 0 1 1 ") } else { lit!(" 0 0 1 ") };
                out.lit(arc);
                out.fixed(x1, 2);
                out.lit(lit!(" "));
                out.fixed(y1, 2);
                out.lit(lit!(r#" Z" "#));
            }
            out.lit(lit!(r#"fill=""#));
            out.hex(crate::color::account_color(i));
            out.lit(lit!(r#"" class="pie" data-metric=""#));
            out.text(name, true);
            out.lit(lit!(r#""/>"#));
            angle = end;
        }
    }
    if opts.labels {
        write_label(out, center.x, center.y + node.px_size / 2.0 + 10.0, opts, &node.label);
    }
    out.lit(lit!("</g>\n"));
}

/// The aggregate tile glyph of a level-of-detail render: a dashed
/// rounded rectangle over the subtree's projected footprint, filled
/// bottom-up by mean utilization, annotated with the count of nodes it
/// stands for. Degenerate footprints are grown to a readable minimum
/// and the whole glyph is clamped into the canvas, so fully-offscreen
/// subtrees hug the nearest border.
fn write_tile(out: &mut Out, tile: &ViewTile, proj: &Projection, opts: &SvgOptions) {
    const MIN_SIDE: f64 = 12.0;
    const MARGIN: f64 = 3.0;
    let a = proj.project(tile.lo);
    let b = proj.project(tile.hi);
    let clamp_span = |lo: f64, hi: f64, limit: f64| {
        let span = (hi - lo).max(MIN_SIDE).min((limit - 2.0 * MARGIN).max(MIN_SIDE));
        let center = (lo + hi) * 0.5;
        let lo = (center - span * 0.5)
            .max(MARGIN)
            .min(limit - MARGIN - span);
        (lo, span)
    };
    let (x, w) = clamp_span(a.x, b.x, opts.width);
    let (y, h) = clamp_span(a.y, b.y, opts.height);
    let color = kind_color(tile.kind);
    out.lit(lit!(r#"<g class="tile"#));
    if tile.is_degraded() {
        out.lit(lit!(" degraded"));
    }
    if tile.offscreen {
        out.lit(lit!(" offscreen"));
    }
    out.lit(lit!(r#"" data-container=""#));
    out.uint(tile.container.index() as u64);
    out.lit(lit!(r#"" data-nodes=""#));
    out.uint(tile.nodes as u64);
    out.lit(lit!(r#"" data-size=""#));
    out.fixed(tile.size_value, 3);
    out.lit(lit!(r#"" data-fill=""#));
    out.fixed(tile.fill_value, 3);
    out.lit(lit!(r#"" data-availability=""#));
    out.fixed(tile.availability, 3);
    out.lit(lit!("\""));
    if tile.quarantined > 0 {
        out.lit(lit!(r#" data-quarantined=""#));
        out.uint(tile.quarantined);
        out.lit(lit!("\""));
    }
    if !tile.segments.is_empty() {
        out.lit(lit!(r#" data-mix=""#));
        for (i, (name, share)) in tile.segments.iter().enumerate() {
            if i > 0 {
                out.lit(lit!(";"));
            }
            out.text(name, true);
            out.lit(lit!(":"));
            out.fixed(*share, 3);
        }
        out.lit(lit!("\""));
    }
    out.lit(lit!(">"));
    open_element(out, "rect", &[("x", x), ("y", y), ("width", w), ("height", h)]);
    out.lit(lit!(r#" rx="3" fill="none" stroke=""#));
    if tile.is_degraded() {
        out.plain(FAULT_STROKE);
    } else {
        out.hex(color);
    }
    out.lit(lit!(r#"" stroke-width="1.2" stroke-dasharray="2 3"/>"#));
    if tile.fill_fraction > 0.0 {
        let fh = h * tile.fill_fraction;
        open_element(out, "rect", &[("x", x), ("y", y + h - fh), ("width", w), ("height", fh)]);
        out.lit(lit!(r#" fill=""#));
        out.hex(color);
        out.lit(lit!(r#"" fill-opacity="0.35"/>"#));
    }
    open_element(out, "text", &[("x", x + w / 2.0), ("y", y + h / 2.0 + 3.5)]);
    out.lit(lit!(r#" font-size="10" text-anchor="middle" fill=""#));
    out.plain(opts.theme.label_fill());
    out.lit(lit!(r#"">"#));
    out.uint(tile.nodes as u64);
    out.lit(lit!("</text>"));
    if opts.labels {
        write_label(out, x + w / 2.0, y + h + 10.0, opts, &tile.label);
    }
    out.lit(lit!("</g>\n"));
}

/// Renders a view to a standalone SVG document.
pub fn render(view: &GraphView, opts: &SvgOptions) -> String {
    render_fitted(view, opts, Encoding::Svg)
}

/// [`render`] in either [`Encoding`] — the classic (camera-less) path.
pub(crate) fn render_fitted(view: &GraphView, opts: &SvgOptions, enc: Encoding) -> String {
    render_projected(view, opts, &Projection::fit(view, opts), enc)
}

/// Bytes reserved per drawn element: a little above what a typical
/// element takes, so one allocation holds the document (the JSON
/// encoding adds one backslash per quote, about a tenth).
const NODE_BYTES: usize = 320;
const TILE_BYTES: usize = 640;
const EDGE_BYTES: usize = 100;

/// [`render`] with an explicit projection — the level-of-detail path,
/// whose projection is fitted to the *full* frontier bounds (plus
/// camera) rather than to the subset of nodes that survived the cut.
pub(crate) fn render_projected(
    view: &GraphView,
    opts: &SvgOptions,
    proj: &Projection,
    enc: Encoding,
) -> String {
    let mut out = Out::new(
        1024 + NODE_BYTES * view.nodes.len()
            + TILE_BYTES * view.tiles.len()
            + EDGE_BYTES * view.edges.len(),
        enc,
    );
    out.lit(lit!(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#));
    out.display(opts.width);
    out.lit(lit!(r#"" height=""#));
    out.display(opts.height);
    out.lit(lit!(r#"" viewBox="0 0 "#));
    out.display(opts.width);
    out.lit(lit!(" "));
    out.display(opts.height);
    out.lit(lit!("\">\n"));
    out.lit(lit!(r#"<rect width="100%" height="100%" fill=""#));
    out.plain(opts.theme.background());
    out.lit(lit!("\"/>\n"));
    // Edges below everything. An endpoint is either a drawn node or,
    // on the level-of-detail path, an aggregate tile (anchored at its
    // world-footprint center); edges to entities in neither list are
    // dropped, as before. The anchors are looked up by binary search
    // in id-sorted copies, first entry per id winning as in
    // [`GraphView::node`] and [`GraphView::tile`].
    if !view.edges.is_empty() {
        let sorted = |mut anchors: Vec<(viva_trace::ContainerId, Vec2)>| {
            anchors.sort_by_key(|a| a.0);
            anchors.dedup_by_key(|a| a.0);
            anchors
        };
        let nodes = sorted(view.nodes.iter().map(|n| (n.container, n.position)).collect());
        let tiles = sorted(view.tiles.iter().map(|t| (t.container, (t.lo + t.hi) * 0.5)).collect());
        let find = |anchors: &[(viva_trace::ContainerId, Vec2)], id| {
            anchors.binary_search_by_key(&id, |a| a.0).ok().map(|i| anchors[i].1)
        };
        let endpoint = |id| find(&nodes, id).or_else(|| find(&tiles, id));
        for e in &view.edges {
            let (Some(a), Some(b)) = (endpoint(e.a), endpoint(e.b)) else {
                continue;
            };
            let pa = proj.project(a);
            let pb = proj.project(b);
            open_element(&mut out, "line", &[("x1", pa.x), ("y1", pa.y), ("x2", pb.x), ("y2", pb.y)]);
            out.lit(lit!(r#" stroke=""#));
            out.plain(opts.theme.edge_stroke());
            out.lit(lit!("\" stroke-width=\"1\"/>\n"));
        }
    }
    // Tiles under the real nodes: they are background context.
    for tile in &view.tiles {
        write_tile(&mut out, tile, proj, opts);
    }
    for node in &view.nodes {
        write_node(&mut out, node, proj.project(node.position), opts);
    }
    // Degraded-data badge: drawn whenever the trace behind this view
    // went through a lossy ingest. It is the whole-document honesty
    // marker — every value on screen was computed without the dropped
    // events and quarantined samples it counts.
    if view.has_degraded_data() {
        let (dropped, quarantined) = (view.ingest_dropped, view.quarantined_total());
        out.lit(lit!(r#"<g class="degraded-data-badge" data-dropped=""#));
        out.uint(dropped);
        out.lit(lit!(r#"" data-quarantined=""#));
        out.uint(quarantined);
        out.lit(lit!(r#""><rect x="6" y="6" width="14" height="14" fill="none" stroke=""#));
        out.plain(FAULT_STROKE);
        out.lit(lit!(
            r#"" stroke-width="1.5" stroke-dasharray="3 2"/><text x="25" y="17" font-size="11" fill=""#
        ));
        out.plain(FAULT_STROKE);
        out.lit(lit!(r#"">degraded data: "#));
        out.uint(dropped);
        out.lit(lit!(" event(s) dropped, "));
        out.uint(quarantined);
        out.lit(lit!(" sample(s) quarantined</text></g>\n"));
    }
    out.lit(lit!("</svg>\n"));
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{ContainerKind, TraceBuilder};

    pub(super) fn view() -> GraphView {
        let mut b = TraceBuilder::new();
        let h = b.new_container(b.root(), "h", ContainerKind::Host).unwrap();
        let l = b.new_container(b.root(), "l<&>", ContainerKind::Link).unwrap();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.set_variable(0.0, h, used, 50.0).unwrap();
        b.set_variable(0.0, l, bw, 1000.0).unwrap();
        let t = b.finish(10.0);
        crate::view::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 50.0, 10.0),
            &[(h, l)],
            &[],
        )
    }

    #[test]
    fn renders_document_with_shapes_and_edges() {
        let svg = render(&view(), &SvgOptions::default());
        assert!(svg.starts_with("<svg xmlns"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("node-square"));
        assert!(svg.contains("node-diamond"));
        assert!(svg.contains("<line"));
        // The half-utilized host gets a fill rect (outline + fill).
        assert!(svg.matches("<rect").count() >= 3); // bg + outline + fill
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = view();
        assert_eq!(
            render(&v, &SvgOptions::default()),
            render(&v, &SvgOptions::default())
        );
    }

    #[test]
    fn dark_theme_swaps_palette_only() {
        let v = view();
        let light = render(&v, &SvgOptions::default());
        let dark = render(&v, &SvgOptions { theme: Theme::Dark, ..Default::default() });
        assert_ne!(light, dark);
        assert!(dark.contains(Theme::Dark.background()));
        assert!(!dark.contains("#ffffff"));
        // Geometry is theme-independent: strip colors and compare.
        let strip = |s: &str| {
            s.replace(Theme::Light.background(), "BG")
                .replace(Theme::Dark.background(), "BG")
                .replace(Theme::Light.edge_stroke(), "EDGE")
                .replace(Theme::Dark.edge_stroke(), "EDGE")
        };
        assert_eq!(strip(&light), strip(&dark));
    }

    #[test]
    fn viewport_converts_to_options() {
        let vp = Viewport::new(320.0, 240.0).with_labels(true).with_theme(Theme::Dark);
        let opts = SvgOptions::from(&vp);
        assert_eq!(opts.width, 320.0);
        assert_eq!(opts.height, 240.0);
        assert!(opts.labels);
        assert_eq!(opts.theme, Theme::Dark);
        assert_eq!(opts.padding, 30.0);
    }

    #[test]
    fn labels_are_escaped() {
        let svg = render(&view(), &SvgOptions { labels: true, ..Default::default() });
        assert!(svg.contains("l&lt;&amp;&gt;"));
    }

    #[test]
    fn empty_view_renders() {
        let v = GraphView {
            nodes: Vec::new(),
            edges: Vec::new(),
            tiles: Vec::new(),
            slice: TimeSlice::new(0.0, 1.0),
            ingest_dropped: 0,
        };
        let svg = render(&v, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn single_node_is_centered() {
        let mut v = view();
        v.nodes.truncate(1);
        v.edges.clear();
        let svg = render(&v, &SvgOptions { width: 200.0, height: 100.0, ..Default::default() });
        // Degenerate bounds: scale 1, node at canvas center.
        assert!(svg.contains(r#"x="80.00""#), "{svg}");
    }
}

#[cfg(test)]
mod fixed_tests {
    use super::*;
    use proptest::prelude::*;

    /// `push_fixed` against `core::fmt` for one value, both precisions.
    fn check(v: f64) -> Result<(), proptest::test_runner::TestCaseError> {
        for decimals in [2, 3] {
            let mut out = String::from("x");
            push_fixed(&mut out, v, decimals);
            prop_assert_eq!(&out[1..], format!("{v:.decimals$}"), "v = {:?} ({:#x})", v, v.to_bits());
        }
        Ok(())
    }

    #[test]
    fn special_values_format_like_core_fmt() {
        for v in [
            0.0,
            -0.0,
            -0.001,
            -0.004,
            -0.0049,
            -0.0051,
            0.0049999,
            1e-300,
            -1e-300,
            0.5,
            0.995,
            9.995,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            999_999_999.994,
            999_999_999.996,
            1e9,
            -1e9,
            1e9 + 0.125,
            4.5e15,
            1e300,
        ] {
            check(v).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// Exact binary ties `k/64` and decimal ties `k/1000`, the
        /// values core::fmt rounds half-to-even (or not at all).
        #[test]
        fn ties_format_like_core_fmt(k in -4_000_000i64..4_000_000, sign in 0u8..2) {
            let s = if sign == 0 { 1.0 } else { -1.0 };
            check(s * k as f64 / 64.0)?;
            check(s * k as f64 / 1000.0)?;
            check(s * k as f64 / 200.0)?;
        }

        /// Arbitrary bit patterns: every exponent, subnormals, NaNs.
        #[test]
        fn bit_patterns_format_like_core_fmt(bits in 0u64..u64::MAX) {
            check(f64::from_bits(bits))?;
        }

        /// Values in the range canvases actually use, and around the
        /// 1e9 fallback bound.
        #[test]
        fn canvas_values_format_like_core_fmt(
            v in -5000.0f64..5000.0,
            big in 0.9e9f64..1.1e9,
            tiny in -0.01f64..0.01,
        ) {
            check(v)?;
            check(big)?;
            check(-big)?;
            check(tiny)?;
        }
    }
}

#[cfg(test)]
mod escape_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::TraceLoader;

    /// A metric name carrying `"` must not end the attribute it lands
    /// in: node pies (`data-metric`) and tiles (`data-mix`) both quote
    /// it as `&quot;`, while labels (element text) keep it as is.
    #[test]
    fn quotes_in_metric_names_are_escaped_in_attributes() {
        let text = "span,0,10\n\
                    container,1,0,cluster,c\n\
                    container,2,1,host,h\"1\n\
                    metric,0,MFlop/s,power\n\
                    metric,1,MFlop/s,power_used\n\
                    metric,2,MFlop/s,a\"b\n\
                    var,0.0,2,0,100.0\n\
                    var,0.0,2,1,50.0\n\
                    var,0.0,2,2,20.0\n";
        let trace = TraceLoader::new().load_str(text).unwrap().trace;
        let metric = "a\"b".to_owned();
        let view = crate::view::build_view(
            &trace,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            std::slice::from_ref(&metric),
        );
        let svg = render(&view, &SvgOptions { labels: true, ..Default::default() });
        assert!(svg.contains(r#"data-metric="a&quot;b""#), "{svg}");
        assert!(svg.contains(">h\"1</text>"), "{svg}");
        // Every attribute value is closed where it should be: quotes
        // pair up inside each tag.
        for tag in svg.split('<').skip(1) {
            let tag = tag.split('>').next().unwrap();
            assert_eq!(tag.matches('"').count() % 2, 0, "unbalanced quotes in <{tag}>");
        }

        let mut tiled = view.clone();
        tiled.tiles.push(crate::view::ViewTile {
            container: view.nodes[0].container,
            label: "t".into(),
            kind: viva_trace::ContainerKind::Cluster,
            nodes: 1,
            size_value: 1.0,
            fill_value: 0.5,
            fill_fraction: 0.5,
            segments: vec![(metric.clone(), 1.0)],
            availability: 1.0,
            quarantined: 0,
            lo: Vec2::default(),
            hi: Vec2::default(),
            offscreen: false,
        });
        let svg = render(&tiled, &SvgOptions::default());
        assert!(svg.contains(r#"data-mix="a&quot;b:1.000""#), "{svg}");
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    /// A per-character JSON string writer with the server codec's
    /// canonical escapes — the reference the JSON encoding must match.
    fn json_string(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn literal_twins_are_json_escaped() {
        let lit = lit!("<a b=\"c\">\\\n\t\u{1}\u{1f}\u{7f}é</a>\n");
        assert_eq!(lit.0[0], "<a b=\"c\">\\\n\t\u{1}\u{1f}\u{7f}é</a>\n");
        let quoted = json_string(lit.0[0]);
        assert_eq!(lit.0[1], &quoted[1..quoted.len() - 1]);
        for b in 0..=0x7f_u8 {
            let s = (b as char).to_string();
            let want = json_string(&s);
            let escape = json_escape(b);
            let got = if escape.is_empty() { s } else { escape.to_owned() };
            assert_eq!(format!("\"{got}\""), want, "byte {b:#x}");
        }
    }

    /// Both encodings of the same views: the JSON one is the JSON
    /// string of the SVG one — labels, attribute values and every
    /// fixed fragment included.
    #[test]
    fn json_encoding_is_the_json_string_of_the_svg() {
        let mut v = super::tests::view();
        v.nodes[0].label = "q\"\\&<>\n\t\u{1}\u{7f}é🙂".into();
        v.nodes[0].segments = vec![("m\"\\\n<&>".into(), 0.25), ("n".into(), 0.75)];
        v.ingest_dropped = 2;
        for theme in [Theme::Light, Theme::Dark] {
            for labels in [false, true] {
                let opts = SvgOptions { theme, labels, ..Default::default() };
                let svg = render(&v, &opts);
                assert_eq!(render_fitted(&v, &opts, Encoding::JsonString), json_string(&svg));
            }
        }
    }
}

#[cfg(test)]
mod degraded_data_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{RecoveryMode, TraceLoader};

    fn corrupted_view() -> GraphView {
        // Two NaN samples quarantined on h1, one garbage line dropped.
        let text = "span,0,10\n\
                    container,1,0,cluster,c\n\
                    container,2,1,host,h1\n\
                    container,3,1,host,h2\n\
                    metric,0,MFlop/s,power\n\
                    var,0.0,2,0,NaN\n\
                    var,1.0,2,0,nan\n\
                    var,0.0,3,0,25.0\n\
                    this line is garbage\n";
        let report = TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .load_str(text)
            .expect("lenient load never errors on record faults");
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.dropped, 3, "garbage line + 2 quarantined");
        crate::view::build_view(
            &report.trace,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 40.0, 0.0),
            &[],
            &[],
        )
    }

    #[test]
    fn lossy_ingest_renders_degraded_data_badge() {
        let view = corrupted_view();
        assert!(view.has_degraded_data());
        assert_eq!(view.ingest_dropped, 3);
        assert_eq!(view.quarantined_total(), 2);
        let svg = render(&view, &SvgOptions::default());
        assert!(svg.contains("degraded-data-badge"), "{svg}");
        assert!(svg.contains(r#"data-dropped="3""#));
        assert!(svg.contains("3 event(s) dropped, 2 sample(s) quarantined"));
        // The host carrying the NaNs is individually marked.
        let h1 = view.node_by_label("h1").unwrap();
        assert_eq!(h1.quarantined, 2);
        assert!(svg.contains(r#"data-quarantined="2""#));
        // Rendering a degraded view stays deterministic.
        assert_eq!(svg, render(&corrupted_view(), &SvgOptions::default()));
    }

    #[test]
    fn clean_traces_render_no_badge() {
        let svg = render(&super::tests::view(), &SvgOptions::default());
        assert!(!svg.contains("degraded-data-badge"));
        assert!(!svg.contains("data-quarantined"));
    }
}

#[cfg(test)]
mod availability_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{metric::names, ContainerKind, TraceBuilder};

    #[test]
    fn failed_resources_render_distinctly() {
        let mut b = TraceBuilder::new();
        let up = b.new_container(b.root(), "up", ContainerKind::Host).unwrap();
        let down = b.new_container(b.root(), "down", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let avail = b.metric(names::AVAILABILITY, "fraction");
        for h in [up, down] {
            b.set_variable(0.0, h, power, 100.0).unwrap();
            b.set_variable(0.0, h, avail, 1.0).unwrap();
        }
        // `down` crashes at t=4 and never recovers.
        b.set_variable(4.0, down, avail, 0.0).unwrap();
        let t = b.finish(10.0);
        let view = crate::view::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 40.0, 0.0),
            &[],
            &[],
        );
        let healthy = view.node_by_label("up").unwrap();
        let failed = view.node_by_label("down").unwrap();
        assert_eq!(healthy.availability, 1.0);
        assert!(!healthy.is_degraded());
        assert!((failed.availability - 0.4).abs() < 1e-9, "up 4 s of 10");
        assert!(failed.is_degraded());

        let svg = render(&view, &SvgOptions::default());
        assert!(svg.contains(r#"data-availability="0.400""#));
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains(FAULT_STROKE));
        assert_eq!(
            svg.matches("degraded").count(),
            1,
            "only the crashed host is marked"
        );
    }

    #[test]
    fn traces_without_availability_render_unmarked() {
        let svg = render(&super::tests::view(), &SvgOptions::default());
        assert!(!svg.contains("data-availability"));
        assert!(!svg.contains("stroke-dasharray"));
    }
}

#[cfg(test)]
mod pie_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{ContainerKind, TraceBuilder};

    #[test]
    fn pie_segments_render_as_paths() {
        let mut b = TraceBuilder::new();
        let h = b.new_container(b.root(), "h", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let a1 = b.metric("power_used:app1", "MFlop/s");
        let a2 = b.metric("power_used:app2", "MFlop/s");
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.set_variable(0.0, h, a1, 60.0).unwrap();
        b.set_variable(0.0, h, a2, 20.0).unwrap();
        let t = b.finish(10.0);
        let view = crate::view::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|_| viva_layout::Vec2::default(),
            &[],
            &["power_used:app1".to_owned(), "power_used:app2".to_owned()],
        );
        let svg = render(&view, &SvgOptions::default());
        assert_eq!(svg.matches("class=\"pie\"").count(), 2);
        assert!(svg.contains("data-metric=\"power_used:app1\""));
        // A single 100% segment renders as a full circle.
        let mut only = view.clone();
        only.nodes[0].segments = vec![("power_used:app1".to_owned(), 1.0)];
        let svg = render(&only, &SvgOptions::default());
        assert!(svg.contains("class=\"pie\""));
        assert!(!svg.contains("<path"), "full share uses a circle, not an arc");
    }
}
