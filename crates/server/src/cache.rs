//! The per-session frame cache.
//!
//! A rendered frame is a pure function of `(view revision, viewport,
//! theme)`: the session's [`revision`](viva::AnalysisSession::revision)
//! advances on every state change that could alter a render, and the
//! viewport/theme carry every presentation parameter. That triple is
//! therefore a sound cache key — a hit can be served without touching
//! the session's aggregation pipeline at all, and a slider-only change
//! (which bumps the revision but leaves per-node aggregates cached
//! inside the session) re-renders without re-aggregating.
//!
//! Eviction is LRU over a **logical** clock, so cache behaviour — and
//! with it the `cached` flag in [`crate::protocol::Response::Frame`] —
//! is deterministic for a given command script.
//!
//! A cached frame is the reply's JSON string body, escaped when it was
//! encoded ([`viva::AnalysisSession::render_json_body`]) and shared as
//! an `Arc<str>`: a hit costs a reference count, not a copy.

use std::collections::HashMap;
use std::sync::Arc;

use viva::{Theme, Viewport};

/// Everything a frame depends on, hashed by exact bit patterns (two
/// viewports that differ by any representable amount are different
/// frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    /// Session view revision the frame was rendered at.
    pub revision: u64,
    width_bits: u64,
    height_bits: u64,
    padding_bits: u64,
    theme: Theme,
    labels: bool,
    /// Level-of-detail camera as exact bit patterns
    /// `(zoom, pan_x, pan_y, detail_px)`; `None` is the classic
    /// camera-less render and never collides with any camera value —
    /// including the identity camera, which renders the same bytes but
    /// is still keyed separately (a cache key must never *assume* two
    /// paths agree).
    camera_bits: Option<(u64, u64, u64, u64)>,
}

impl FrameKey {
    /// The key for rendering `viewport` at session revision `revision`.
    pub fn new(revision: u64, viewport: &Viewport) -> FrameKey {
        FrameKey {
            revision,
            width_bits: viewport.width.to_bits(),
            height_bits: viewport.height.to_bits(),
            padding_bits: viewport.padding.to_bits(),
            theme: viewport.theme,
            labels: viewport.labels,
            camera_bits: viewport.camera.map(|c| {
                (c.zoom.to_bits(), c.pan_x.to_bits(), c.pan_y.to_bits(), c.detail_px.to_bits())
            }),
        }
    }
}

/// A bounded LRU cache of rendered frames, held as JSON string bodies.
#[derive(Debug)]
pub struct FrameCache {
    capacity: usize,
    clock: u64,
    /// key → (last-used tick, the frame's JSON string body).
    frames: HashMap<FrameKey, (u64, Arc<str>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FrameCache {
    /// An empty cache holding at most `capacity` frames (`0` disables
    /// caching entirely).
    pub fn new(capacity: usize) -> FrameCache {
        FrameCache { capacity, clock: 0, frames: HashMap::new(), hits: 0, misses: 0, evictions: 0 }
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Frames evicted so far — LRU victims plus stale-revision drops.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a frame, refreshing its recency on a hit.
    pub fn get(&mut self, key: &FrameKey) -> Option<Arc<str>> {
        self.clock += 1;
        match self.frames.get_mut(key) {
            Some((used, body)) => {
                *used = self.clock;
                self.hits += 1;
                Some(Arc::clone(body))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a frame, refreshing its recency and counting the hit —
    /// but **not** counting a miss. The lock-free render fast path
    /// probes with a possibly-stale revision mirror; a miss there is
    /// re-checked under the session lock via [`FrameCache::get`], which
    /// is where the authoritative miss is recorded. Counting here too
    /// would double-bill every real miss.
    pub fn lookup(&mut self, key: &FrameKey) -> Option<Arc<str>> {
        match self.frames.get_mut(key) {
            Some((used, body)) => {
                self.clock += 1;
                *used = self.clock;
                self.hits += 1;
                Some(Arc::clone(body))
            }
            None => None,
        }
    }

    /// Inserts a freshly rendered frame, evicting the least recently
    /// used entry when full. Frames at an older revision than `key`
    /// are dropped eagerly — the session can never render them again,
    /// so they are dead weight, and dropping them keeps the LRU scan
    /// honest about what is actually reusable.
    pub fn insert(&mut self, key: FrameKey, body: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let before = self.frames.len();
        self.frames.retain(|k, _| k.revision >= key.revision);
        self.evictions += (before - self.frames.len()) as u64;
        if self.frames.len() >= self.capacity {
            // Deterministic LRU victim: smallest tick (ticks are
            // unique, so no tie-break is needed).
            if let Some(victim) =
                self.frames.iter().min_by_key(|(_, (used, _))| *used).map(|(k, _)| *k)
            {
                self.frames.remove(&victim);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.frames.insert(key, (self.clock, body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(revision: u64, w: f64) -> FrameKey {
        FrameKey::new(revision, &Viewport::new(w, 600.0))
    }

    fn body(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_after_insert_miss_after_revision_change() {
        let mut c = FrameCache::new(4);
        assert_eq!(c.get(&key(1, 800.0)), None);
        c.insert(key(1, 800.0), body("<svg1>"));
        assert_eq!(c.get(&key(1, 800.0)), Some(body("<svg1>")));
        assert_eq!(c.get(&key(2, 800.0)), None, "new revision misses");
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn hits_share_the_cached_body() {
        let mut c = FrameCache::new(4);
        let b = body("\"<svg/>\\n\"");
        c.insert(key(1, 800.0), Arc::clone(&b));
        assert!(Arc::ptr_eq(&c.get(&key(1, 800.0)).expect("hit"), &b));
        assert!(Arc::ptr_eq(&c.lookup(&key(1, 800.0)).expect("hit"), &b));
        assert_eq!(Arc::strong_count(&b), 2, "the cache holds one reference");
    }

    #[test]
    fn distinct_presentation_is_distinct_keys() {
        let vp = Viewport::new(800.0, 600.0);
        let dark = vp.clone().with_theme(Theme::Dark);
        let labelled = vp.clone().with_labels(true);
        let padded = vp.clone().with_padding(10.0);
        let keys = [
            FrameKey::new(1, &vp),
            FrameKey::new(1, &dark),
            FrameKey::new(1, &labelled),
            FrameKey::new(1, &padded),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    fn lru_evicts_oldest_and_stale_revisions_drop() {
        let mut c = FrameCache::new(2);
        c.insert(key(1, 100.0), body("a"));
        c.insert(key(1, 200.0), body("b"));
        assert_eq!(c.get(&key(1, 100.0)), Some(body("a"))); // refresh a
        c.insert(key(1, 300.0), body("c")); // evicts b (LRU)
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&key(1, 200.0)), None);
        assert_eq!(c.get(&key(1, 100.0)), Some(body("a")));
        // A newer revision flushes everything older.
        c.insert(key(5, 100.0), body("new"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 3, "both rev-1 frames count as evicted");
        assert_eq!(c.get(&key(5, 100.0)), Some(body("new")));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = FrameCache::new(0);
        c.insert(key(1, 800.0), body("a"));
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1, 800.0)), None);
    }
}
