//! Level-of-detail cut: which containers to draw, which to tile.
//!
//! The paper scales its topology view by letting the *analyst*
//! aggregate subtrees (§3.2.2). This module adds the complementary
//! *automatic* scaling: given a camera (zoom/pan) over the layout
//! plane, walk the container hierarchy **top-down** and stop early —
//! real nodes are drawn only where they are visible at readable size,
//! and every subtree that is collapsed-by-resolution or fully
//! offscreen is represented by a single aggregate **tile**. Because
//! the walk prunes whole subtrees before any per-node aggregation
//! happens, a frame over 100k hosts costs `O(drawn + tiles)` index
//! queries instead of `O(frontier)`.
//!
//! The cut never second-guesses the analyst: it only ever *groups*
//! visible-frontier nodes, so a tile aggregates exactly the subtree an
//! explicit collapse of its root would — which is what makes tile
//! values testable against plain `AggIndex` subtree queries.

use viva_layout::Vec2;
use viva_trace::{ContainerId, ContainerTree};

/// A subtree the cut decided to draw as one aggregate tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSeed {
    /// Root of the tiled subtree.
    pub root: ContainerId,
    /// Number of visible-frontier nodes the tile absorbed.
    pub nodes: usize,
    /// World-space bounding box of those nodes' positions.
    pub lo: Vec2,
    /// See [`TileSeed::lo`].
    pub hi: Vec2,
    /// `true` when the subtree was tiled for being fully outside the
    /// canvas (rather than too small to read).
    pub offscreen: bool,
}

/// The result of a level-of-detail cut over one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LodCut {
    /// Frontier containers drawn as real nodes, in container-id order.
    pub keep: Vec<ContainerId>,
    /// Tiled subtrees, in container-id order of their roots. Disjoint
    /// from each other and from `keep`.
    pub tiles: Vec<TileSeed>,
    /// Frontier nodes dropped for being individually offscreen. A
    /// *subtree* that is fully offscreen collapses to one offscreen
    /// tile; but once the walk has descended into a partly-visible
    /// subtree, its offscreen members are simply culled — at deep zoom
    /// over 100k spread hosts, tiling each of them would materialize
    /// the very per-node cost the cut exists to avoid. `keep`, the
    /// tiles' absorbed nodes, and `culled` together partition the
    /// visible frontier.
    pub culled: usize,
}

/// The camera-independent half of the cut: frontier positions, their
/// bounds, and the bbox/count of the frontier positions below each
/// container. None of it changes while the layout stands still, so a
/// session builds it once per layout generation (see DESIGN.md §17)
/// and every camera frame only [walks](LodGeometry::cut) it.
///
/// For the walk, each container's children are split in two: the
/// grouping children with frontier members below them (descended like
/// the root), and the frontier-leaf children, kept sorted by world x so
/// a frame tests only those whose projected x falls inside the canvas.
#[derive(Debug)]
pub(crate) struct LodGeometry {
    /// World position per container index (frontier entries only).
    position: Vec<Vec2>,
    /// Bounding box of the frontier positions, folded in frontier
    /// order; `None` for an empty frontier.
    bounds: Option<(Vec2, Vec2)>,
    lo: Vec<Vec2>,
    hi: Vec<Vec2>,
    count: Vec<usize>,
    on_frontier: Vec<bool>,
    /// Children the walk descends into, per container, as offsets into
    /// `inner`: `inner[inner_start[i]..inner_start[i + 1]]`.
    inner_start: Vec<usize>,
    inner: Vec<ContainerId>,
    /// Frontier-leaf children per container with their world x, sorted
    /// by it, as offsets into `leaf`.
    leaf_start: Vec<usize>,
    leaf: Vec<(f64, ContainerId)>,
}

impl LodGeometry {
    /// Builds the geometry of `frontier` (the collapse state's visible
    /// set) placed at `position`, a table indexed by container index.
    pub(crate) fn new(tree: &ContainerTree, frontier: &[ContainerId], position: Vec<Vec2>) -> LodGeometry {
        const INNER: u8 = 1;
        const LEAF: u8 = 2;
        let n = tree.len();
        let at = |c: ContainerId| position.get(c.index()).copied().unwrap_or_default();
        let mut bounds: Option<(Vec2, Vec2)> = None;
        let mut lo = vec![Vec2::new(f64::INFINITY, f64::INFINITY); n];
        let mut hi = vec![Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY); n];
        let mut count = vec![0usize; n];
        let mut on_frontier = vec![false; n];
        for &c in frontier {
            let p = at(c);
            bounds = Some(match bounds {
                None => (p, p),
                Some((lo, hi)) => (lo.min(p), hi.max(p)),
            });
            let i = c.index();
            on_frontier[i] = true;
            lo[i] = lo[i].min(p);
            hi[i] = hi[i].max(p);
            count[i] += 1;
        }
        // Bbox and count of the frontier positions below each
        // container, folded bottom-up: a parent's id is always below
        // its children's, so one pass in reverse id order sees every
        // child before its parent. The same pass sorts each child with
        // members into its parent's walk lists: a frontier node with a
        // single member is a leaf (always, when the frontier is an
        // antichain, as the collapse state's is), anything else with
        // members is descended.
        let mut parent = vec![0usize; n];
        let mut class = vec![0u8; n];
        let mut inner_start = vec![0usize; n + 1];
        let mut leaf_start = vec![0usize; n + 1];
        for i in (0..n).rev() {
            let Some(up) = tree.node(ContainerId::from_index(i)).parent() else { continue };
            if count[i] == 0 {
                continue;
            }
            let p = up.index();
            parent[i] = p;
            lo[p] = lo[p].min(lo[i]);
            hi[p] = hi[p].max(hi[i]);
            count[p] += count[i];
            if on_frontier[i] && count[i] == 1 {
                class[i] = LEAF;
                leaf_start[p + 1] += 1;
            } else {
                class[i] = INNER;
                inner_start[p + 1] += 1;
            }
        }
        for i in 0..n {
            inner_start[i + 1] += inner_start[i];
            leaf_start[i + 1] += leaf_start[i];
        }
        let mut inner = vec![tree.root(); inner_start[n]];
        let mut leaf = vec![(0.0, tree.root()); leaf_start[n]];
        let (mut inner_fill, mut leaf_fill) = (inner_start.clone(), leaf_start.clone());
        for i in 0..n {
            let p = parent[i];
            let c = ContainerId::from_index(i);
            match class[i] {
                INNER => {
                    inner[inner_fill[p]] = c;
                    inner_fill[p] += 1;
                }
                LEAF => {
                    leaf[leaf_fill[p]] = (at(c).x, c);
                    leaf_fill[p] += 1;
                }
                _ => {}
            }
        }
        for i in 0..n {
            leaf[leaf_start[i]..leaf_start[i + 1]].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
        LodGeometry {
            position,
            bounds,
            lo,
            hi,
            count,
            on_frontier,
            inner_start,
            inner,
            leaf_start,
            leaf,
        }
    }

    /// World position of a frontier container.
    pub(crate) fn position(&self, c: ContainerId) -> Vec2 {
        self.position.get(c.index()).copied().unwrap_or_default()
    }

    /// Bounding box of the frontier positions (`None` when empty) —
    /// what the frame's projection is fitted to.
    pub(crate) fn bounds(&self) -> Option<(Vec2, Vec2)> {
        self.bounds
    }

    /// Computes the cut for one frame.
    ///
    /// * `to_screen` — the frame's world→canvas projection (camera
    ///   applied). It must be a positive uniform scale plus offset, so
    ///   it preserves axis order;
    /// * `canvas_w`/`canvas_h` — canvas size in pixels;
    /// * `detail_px` — readability threshold: an expanded subtree of
    ///   two or more frontier nodes is tiled when its projected extent
    ///   is below this, or when its projected footprint gives each node
    ///   less than `detail_px²` of canvas area. `0.0` disables
    ///   resolution tiling (only fully-offscreen subtrees tile).
    ///
    /// The walk starts at the tree root and descends only through
    /// subtrees that are partly on screen and large enough to resolve;
    /// everything else becomes a [`TileSeed`]. A frontier node reached
    /// by the walk is always kept if on screen (a single node is always
    /// readable), so with an identity camera and `detail_px = 0` the
    /// cut keeps the whole frontier — the byte-identity guarantee of
    /// the legacy render path rests on that.
    ///
    /// Frontier-leaf children of a descended container are tested only
    /// inside the `partition_point` range of their projected x that
    /// lies on the canvas; the rest are culled without a test. As
    /// projected x is monotone in world x, the range holds exactly the
    /// leaves the per-node test would not reject on x.
    pub(crate) fn cut(
        &self,
        tree: &ContainerTree,
        to_screen: &dyn Fn(Vec2) -> Vec2,
        canvas_w: f64,
        canvas_h: f64,
        detail_px: f64,
    ) -> LodCut {
        let offscreen = |a: Vec2, b: Vec2| b.x < 0.0 || b.y < 0.0 || a.x > canvas_w || a.y > canvas_h;
        let screen_x = |x: f64| to_screen(Vec2::new(x, 0.0)).x;
        let mut keep = Vec::new();
        let mut tiles = Vec::new();
        let mut culled = 0usize;
        let mut stack = vec![tree.root()];
        while let Some(c) = stack.pop() {
            let i = c.index();
            let count = self.count[i];
            if count == 0 {
                continue; // no visible member anywhere below
            }
            let (lo, hi) = (self.lo[i], self.hi[i]);
            let seed = |offscreen| TileSeed { root: c, nodes: count, lo, hi, offscreen };
            let a = to_screen(lo);
            // Single-member bbox is a point: one projection suffices.
            let b = if count == 1 { a } else { to_screen(hi) };
            if offscreen(a, b) {
                // A whole offscreen subtree is worth one summary tile; a
                // single offscreen frontier node inside a partly-visible
                // subtree is just culled (see [`LodCut::culled`]).
                if self.on_frontier[i] {
                    culled += 1;
                } else {
                    tiles.push(seed(true));
                }
                continue;
            }
            if self.on_frontier[i] {
                keep.push(c);
                continue;
            }
            if count >= 2 {
                let (w, h) = (b.x - a.x, b.y - a.y);
                // Footprint area for the density test: a thin line of
                // nodes is still readable if spacing along it is, so each
                // dimension counts as at least one glyph.
                let area = w.max(detail_px) * h.max(detail_px);
                if w.max(h) < detail_px || (count as f64) * detail_px * detail_px > area {
                    tiles.push(seed(false));
                    continue;
                }
            }
            stack.extend_from_slice(&self.inner[self.inner_start[i]..self.inner_start[i + 1]]);
            let leaves = &self.leaf[self.leaf_start[i]..self.leaf_start[i + 1]];
            let first = leaves.partition_point(|&(x, _)| screen_x(x) < 0.0);
            // Negated like the per-node test, so a NaN projection (an
            // overflowing zoom) stays in the range and meets that test.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let last = first + leaves[first..].partition_point(|&(x, _)| !(screen_x(x) > canvas_w));
            culled += leaves.len() - (last - first);
            for &(_, leaf) in &leaves[first..last] {
                let a = to_screen(self.position(leaf));
                if offscreen(a, a) {
                    culled += 1;
                } else {
                    keep.push(leaf);
                }
            }
        }
        keep.sort();
        tiles.sort_by_key(|t| t.root);
        LodCut { keep, tiles, culled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use viva_agg::ViewState;
    use viva_trace::ContainerKind;

    /// The cut as one per-node pass with no cached geometry and no
    /// window bound: every container's bbox accumulated up the
    /// ancestor chains, then every child pushed and tested on its own.
    /// The oracle [`LodGeometry::cut`] must match exactly.
    fn per_node_cut(
        tree: &ContainerTree,
        frontier: &[ContainerId],
        position: &dyn Fn(ContainerId) -> Vec2,
        to_screen: &dyn Fn(Vec2) -> Vec2,
        canvas_w: f64,
        canvas_h: f64,
        detail_px: f64,
    ) -> LodCut {
        let n = tree.len();
        let mut lo = vec![Vec2::new(f64::INFINITY, f64::INFINITY); n];
        let mut hi = vec![Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY); n];
        let mut count = vec![0usize; n];
        let mut on_frontier = vec![false; n];
        for &c in frontier {
            on_frontier[c.index()] = true;
            let p = position(c);
            let mut cur = Some(c);
            while let Some(g) = cur {
                let i = g.index();
                lo[i] = lo[i].min(p);
                hi[i] = hi[i].max(p);
                count[i] += 1;
                cur = tree.node(g).parent();
            }
        }
        let mut keep = Vec::new();
        let mut tiles = Vec::new();
        let mut culled = 0usize;
        let mut stack = vec![tree.root()];
        while let Some(c) = stack.pop() {
            let i = c.index();
            if count[i] == 0 {
                continue;
            }
            let seed = |offscreen| TileSeed { root: c, nodes: count[i], lo: lo[i], hi: hi[i], offscreen };
            let a = to_screen(lo[i]);
            let b = if count[i] == 1 { a } else { to_screen(hi[i]) };
            if b.x < 0.0 || b.y < 0.0 || a.x > canvas_w || a.y > canvas_h {
                if on_frontier[i] {
                    culled += 1;
                } else {
                    tiles.push(seed(true));
                }
                continue;
            }
            if on_frontier[i] {
                keep.push(c);
                continue;
            }
            if count[i] >= 2 {
                let (w, h) = (b.x - a.x, b.y - a.y);
                let area = w.max(detail_px) * h.max(detail_px);
                if w.max(h) < detail_px || (count[i] as f64) * detail_px * detail_px > area {
                    tiles.push(seed(false));
                    continue;
                }
            }
            stack.extend_from_slice(tree.node(c).children());
        }
        keep.sort();
        tiles.sort_by_key(|t| t.root);
        LodCut { keep, tiles, culled }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The window-bounded walk over cached geometry selects
        /// exactly what the per-node pass selects, for random trees,
        /// collapse states, layouts (ties and clusters included) and
        /// cameras — frames reuse one geometry.
        #[test]
        fn window_bounded_walk_matches_the_per_node_cut(
            shape in proptest::collection::vec(1usize..12, 1..6),
            collapsed in proptest::collection::vec(0u8..2, 6),
            xs in proptest::collection::vec(-8i32..8, 80),
            ys in proptest::collection::vec(-50.0f64..50.0, 80),
            frames in proptest::collection::vec(
                (0.01f64..40.0, -400.0f64..400.0, -400.0f64..400.0, 0.0f64..30.0), 1..4),
        ) {
            let mut t = ContainerTree::new();
            let mut clusters = Vec::new();
            for (ci, &hosts) in shape.iter().enumerate() {
                let cl = t.add(t.root(), format!("c{ci}"), ContainerKind::Cluster).unwrap();
                clusters.push(cl);
                for hi in 0..hosts {
                    t.add(cl, format!("c{ci}h{hi}"), ContainerKind::Host).unwrap();
                }
            }
            let mut state = ViewState::new();
            for (cl, &flag) in clusters.iter().zip(&collapsed) {
                if flag == 1 {
                    state.collapse(*cl);
                }
            }
            let frontier = state.visible(&t);
            // Coarse x grid: many leaves share one x.
            let pos = |c: ContainerId| {
                let i = c.index() % xs.len();
                Vec2::new(f64::from(xs[i]) * 12.5, ys[i])
            };
            let mut table = vec![Vec2::default(); t.len()];
            for &c in &frontier {
                table[c.index()] = pos(c);
            }
            let geometry = LodGeometry::new(&t, &frontier, table);
            for &(scale, ox, oy, detail) in &frames {
                let proj = |p: Vec2| p * scale + Vec2::new(ox, oy);
                prop_assert_eq!(
                    geometry.cut(&t, &proj, 320.0, 200.0, detail),
                    per_node_cut(&t, &frontier, &pos, &proj, 320.0, 200.0, detail)
                );
            }
        }
    }

    /// One frame's cut from a position function: geometry built, then
    /// walked once.
    fn cut(
        tree: &ContainerTree,
        frontier: &[ContainerId],
        position: &dyn Fn(ContainerId) -> Vec2,
        to_screen: &dyn Fn(Vec2) -> Vec2,
        canvas_w: f64,
        canvas_h: f64,
        detail_px: f64,
    ) -> LodCut {
        let mut table = vec![Vec2::default(); tree.len()];
        for &c in frontier {
            table[c.index()] = position(c);
        }
        LodGeometry::new(tree, frontier, table).cut(tree, to_screen, canvas_w, canvas_h, detail_px)
    }

    /// root → (c1 → h0,h1 tight at x≈0 ; c2 → h2,h3 spread at x≈100).
    fn tree() -> (ContainerTree, Vec<ContainerId>) {
        let mut t = ContainerTree::new();
        let c1 = t.add(t.root(), "c1", ContainerKind::Cluster).unwrap();
        let c2 = t.add(t.root(), "c2", ContainerKind::Cluster).unwrap();
        let h0 = t.add(c1, "h0", ContainerKind::Host).unwrap();
        let h1 = t.add(c1, "h1", ContainerKind::Host).unwrap();
        let h2 = t.add(c2, "h2", ContainerKind::Host).unwrap();
        let h3 = t.add(c2, "h3", ContainerKind::Host).unwrap();
        (t, vec![c1, c2, h0, h1, h2, h3])
    }

    fn positions(ids: &[ContainerId]) -> impl Fn(ContainerId) -> Vec2 + '_ {
        move |c| match () {
            _ if c == ids[2] => Vec2::new(0.0, 0.0),
            _ if c == ids[3] => Vec2::new(1.0, 1.0),
            _ if c == ids[4] => Vec2::new(100.0, 0.0),
            _ if c == ids[5] => Vec2::new(100.0, 80.0),
            _ => Vec2::default(),
        }
    }

    #[test]
    fn zero_threshold_identity_projection_keeps_everything() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 200.0, 0.0);
        assert_eq!(cut.keep, frontier);
        assert!(cut.tiles.is_empty());
    }

    #[test]
    fn unreadable_subtree_becomes_one_tile() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        // c1's two hosts project ~1.4px apart: below a 16px threshold
        // they tile; c2's spread hosts survive as real nodes.
        let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 200.0, 16.0);
        assert_eq!(cut.keep, vec![ids[4], ids[5]]);
        assert_eq!(cut.tiles.len(), 1);
        let tile = cut.tiles[0];
        assert_eq!(tile.root, ids[0]);
        assert_eq!(tile.nodes, 2);
        assert!(!tile.offscreen);
        assert_eq!((tile.lo, tile.hi), (Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)));
    }

    #[test]
    fn offscreen_subtree_becomes_one_tile() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        // Shift the world so c2 lands past the right canvas edge.
        let shifted = |p: Vec2| Vec2::new(p.x + 50.0, p.y);
        let pos = positions(&ids);
        let cut = cut(&t, &frontier, &pos, &shifted, 120.0, 200.0, 0.0);
        assert_eq!(cut.keep, vec![ids[2], ids[3]]);
        assert_eq!(cut.tiles.len(), 1);
        assert_eq!(cut.tiles[0].root, ids[1]);
        assert!(cut.tiles[0].offscreen);
    }

    #[test]
    fn dense_footprint_tiles_even_when_spread() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        // A huge per-node threshold: even well-separated nodes get
        // less canvas area than detail_px² each, so the root tiles.
        let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 200.0, 150.0);
        assert!(cut.keep.is_empty());
        assert_eq!(cut.tiles.len(), 1);
        assert_eq!(cut.tiles[0].root, t.root());
        assert_eq!(cut.tiles[0].nodes, 4);
    }

    #[test]
    fn collapsed_frontier_node_is_kept_not_tiled() {
        let (t, ids) = tree();
        let mut state = ViewState::new();
        state.collapse(ids[0]); // c1 aggregated by the analyst
        let frontier = state.visible(&t);
        let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 200.0, 16.0);
        // The analyst's aggregate is a real frontier node: kept even
        // though its own extent is a point.
        assert!(cut.keep.contains(&ids[0]));
    }

    #[test]
    fn cut_partitions_the_frontier() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        for detail in [0.0, 4.0, 16.0, 150.0] {
            let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 200.0, detail);
            let absorbed: usize = cut.tiles.iter().map(|s| s.nodes).sum();
            assert_eq!(
                cut.keep.len() + absorbed + cut.culled,
                frontier.len(),
                "detail={detail}"
            );
        }
    }

    #[test]
    fn lone_offscreen_frontier_node_is_culled_not_tiled() {
        let (t, ids) = tree();
        let frontier = ViewState::new().visible(&t);
        // Clip the canvas so h3 (y = 80) falls below the bottom edge
        // while its sibling h2 stays visible: c2 is partly visible, so
        // the walk descends and h3 is culled rather than tiled.
        let cut = cut(&t, &frontier, &positions(&ids), &|p| p, 200.0, 50.0, 0.0);
        assert!(cut.keep.contains(&ids[4]));
        assert!(!cut.keep.contains(&ids[5]));
        assert_eq!(cut.culled, 1);
        assert!(cut.tiles.is_empty());
        let absorbed: usize = cut.tiles.iter().map(|s| s.nodes).sum();
        assert_eq!(cut.keep.len() + absorbed + cut.culled, frontier.len());
    }
}
