//! Uniform spatial grid for O(k) neighbor queries.
//!
//! The simulator's two geometric hot paths — per-transmission receiver
//! selection and [`crate::world::World::neighbors_of`] — were O(N) scans
//! over every node. The grid buckets nodes into square cells of side equal
//! to the radio range, so a range query touches only the cells overlapping
//! the query disk's bounding square and inspects the O(k) nodes registered
//! there.
//!
//! # Moving nodes without per-tick updates
//!
//! Positions are *analytic*: a node's position is a function of time within
//! its current mobility segment, and the simulator never ticks idle nodes.
//! Rather than re-bucketing nodes continuously, each node is registered
//! over the axis-aligned bounding box of its current segment (start and end
//! positions). All three mobility models move each coordinate monotonically
//! within a segment, so the node's exact position at any instant of the
//! segment stays inside that box — the grid therefore returns a *superset*
//! of the in-range nodes, and callers keep the exact distance check. Nodes
//! are re-registered only at mobility-change events, which the event loop
//! already dispatches.
//!
//! # Candidates as a bitset
//!
//! A query answers with a [`NodeSet`], one bit per node id, so a node
//! registered in several of the queried cells is a single bit and
//! iteration is ascending by construction: no per-query sort or dedup.
//! Delivery walks receivers in that order, which keeps the per-receiver
//! loss draws identical to a brute-force scan.

use crate::geometry::Point;
use crate::node::NodeId;

/// Cells covered by one node's current movement segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellSpan {
    c0: u32,
    r0: u32,
    c1: u32,
    r1: u32,
}

/// A set of node ids, one bit each, iterated ascending
/// ([`NodeSet::drain`]). Only the words an insert touched since the last
/// drain are scanned, so a query costs O(candidates + span of their ids /
/// 64) however many nodes the world holds.
#[derive(Clone, Debug)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Touched word range `lo..hi`: `(usize::MAX, 0)` while empty.
    lo: usize,
    hi: usize,
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet {
            words: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl NodeSet {
    /// Adds `node`.
    #[inline]
    pub(crate) fn insert(&mut self, node: NodeId) {
        let w = node.0 as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
        self.words[w] |= 1 << (node.0 % 64);
    }

    /// Yields every node in ascending id order. The set is empty once the
    /// drain is dropped, whether or not it ran to its end.
    pub fn drain(&mut self) -> Drain<'_> {
        Drain { set: self, bits: 0 }
    }
}

/// Ascending iterator of [`NodeSet::drain`].
#[derive(Debug)]
pub struct Drain<'a> {
    set: &'a mut NodeSet,
    /// What is left of the word being yielded, at `set.lo - 1`.
    bits: u64,
}

impl Iterator for Drain<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            let set = &mut *self.set;
            if set.lo >= set.hi {
                return None;
            }
            self.bits = std::mem::take(&mut set.words[set.lo]);
            set.lo += 1;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(NodeId((self.set.lo as u32 - 1) * 64 + bit))
    }
}

/// Clears what a drain stopped early left, and resets the touched range.
impl Drop for Drain<'_> {
    fn drop(&mut self) {
        let set = &mut *self.set;
        if set.lo < set.hi {
            set.words[set.lo..set.hi].fill(0);
        }
        (set.lo, set.hi) = (usize::MAX, 0);
    }
}

/// A uniform grid over the field, bucketing nodes by movement-segment
/// bounding box.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell: f64,
    cols: u32,
    rows: u32,
    cells: Vec<Vec<NodeId>>,
    spans: Vec<CellSpan>,
}

impl SpatialGrid {
    /// Upper bound on cells per axis. A cell may be *larger* than the
    /// requested size (queries just inspect a coarser superset), so tiny or
    /// zero radio ranges clamp to a bounded grid instead of exploding the
    /// cell count.
    const MAX_CELLS_PER_AXIS: f64 = 256.0;

    /// Creates a grid over a `field` (metres) with square cells of side
    /// `cell` (typically the radio range).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive.
    pub fn new(field: (f64, f64), cell: f64) -> Self {
        assert!(cell > 0.0, "grid cell size must be positive: {cell}");
        let cell = cell
            .max(field.0 / Self::MAX_CELLS_PER_AXIS)
            .max(field.1 / Self::MAX_CELLS_PER_AXIS);
        let cols = ((field.0 / cell).ceil() as u32).max(1);
        let rows = ((field.1 / cell).ceil() as u32).max(1);
        SpatialGrid {
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); (cols as usize) * (rows as usize)],
            spans: Vec::new(),
        }
    }

    fn col_of(&self, x: f64) -> u32 {
        ((x / self.cell).floor().max(0.0) as u32).min(self.cols - 1)
    }

    fn row_of(&self, y: f64) -> u32 {
        ((y / self.cell).floor().max(0.0) as u32).min(self.rows - 1)
    }

    fn span_for(&self, a: Point, b: Point) -> CellSpan {
        CellSpan {
            c0: self.col_of(a.x.min(b.x)),
            r0: self.row_of(a.y.min(b.y)),
            c1: self.col_of(a.x.max(b.x)),
            r1: self.row_of(a.y.max(b.y)),
        }
    }

    fn cell_index(&self, c: u32, r: u32) -> usize {
        (r * self.cols + c) as usize
    }

    /// Registers `node` as covering the segment from `a` to `b`. Nodes must
    /// be inserted in `NodeId` order starting at 0.
    pub fn insert(&mut self, node: NodeId, a: Point, b: Point) {
        assert_eq!(
            node.0 as usize,
            self.spans.len(),
            "grid nodes must be inserted in id order"
        );
        let span = self.span_for(a, b);
        self.spans.push(span);
        self.add_to_cells(node, span);
    }

    /// Re-registers `node` for a new movement segment from `a` to `b`.
    pub fn update(&mut self, node: NodeId, a: Point, b: Point) {
        let span = self.span_for(a, b);
        let old = self.spans[node.0 as usize];
        if old == span {
            return;
        }
        self.remove_from_cells(node, old);
        self.spans[node.0 as usize] = span;
        self.add_to_cells(node, span);
    }

    fn add_to_cells(&mut self, node: NodeId, span: CellSpan) {
        for r in span.r0..=span.r1 {
            for c in span.c0..=span.c1 {
                let idx = self.cell_index(c, r);
                self.cells[idx].push(node);
            }
        }
    }

    fn remove_from_cells(&mut self, node: NodeId, span: CellSpan) {
        for r in span.r0..=span.r1 {
            for c in span.c0..=span.c1 {
                let idx = self.cell_index(c, r);
                if let Some(pos) = self.cells[idx].iter().position(|&n| n == node) {
                    self.cells[idx].swap_remove(pos);
                }
            }
        }
    }

    /// Adds to `out` a superset of the nodes within `range` of `center`:
    /// every node whose exact position can be inside the disk; callers
    /// apply the exact distance check. Draining `out` yields them by
    /// ascending `NodeId`, which keeps delivery iteration (and therefore
    /// per-receiver RNG draws) identical to a brute-force scan.
    pub fn candidates_into(&self, center: Point, range: f64, out: &mut NodeSet) {
        let c0 = self.col_of(center.x - range);
        let c1 = self.col_of(center.x + range);
        let r0 = self.row_of(center.y - range);
        let r1 = self.row_of(center.y + range);
        for r in r0..=r1 {
            for c in c0..=c1 {
                for &node in &self.cells[self.cell_index(c, r)] {
                    out.insert(node);
                }
            }
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the grid holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SpatialGrid {
        SpatialGrid::new((300.0, 300.0), 60.0)
    }

    /// The grid's candidates around `center`, in drain order.
    fn query(g: &SpatialGrid, center: Point, range: f64) -> Vec<NodeId> {
        let mut set = NodeSet::default();
        g.candidates_into(center, range, &mut set);
        set.drain().collect()
    }

    #[test]
    fn query_finds_point_nodes_in_and_out_of_range() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(10.0, 10.0), Point::new(10.0, 10.0));
        g.insert(NodeId(1), Point::new(50.0, 10.0), Point::new(50.0, 10.0));
        g.insert(
            NodeId(2),
            Point::new(290.0, 290.0),
            Point::new(290.0, 290.0),
        );
        let out = query(&g, Point::new(12.0, 12.0), 60.0);
        assert!(out.contains(&NodeId(0)));
        assert!(out.contains(&NodeId(1)));
        assert!(!out.contains(&NodeId(2)), "far corner is never a candidate");
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let mut g = grid();
        // A segment spanning several cells registers in all of them.
        g.insert(NodeId(0), Point::new(10.0, 10.0), Point::new(200.0, 10.0));
        g.insert(NodeId(1), Point::new(70.0, 10.0), Point::new(70.0, 10.0));
        let out = query(&g, Point::new(100.0, 10.0), 60.0);
        assert_eq!(out, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn update_moves_node_between_cells() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(10.0, 10.0), Point::new(10.0, 10.0));
        g.update(
            NodeId(0),
            Point::new(290.0, 290.0),
            Point::new(290.0, 290.0),
        );
        let out = query(&g, Point::new(10.0, 10.0), 60.0);
        assert!(out.is_empty(), "node left its old cell");
        let out = query(&g, Point::new(280.0, 280.0), 60.0);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn out_of_field_positions_clamp_to_edge_cells() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(-5.0, 400.0), Point::new(-5.0, 400.0));
        let out = query(&g, Point::new(0.0, 299.0), 60.0);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn query_near_field_edges_does_not_panic() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(0.0, 0.0), Point::new(0.0, 0.0));
        let out = query(&g, Point::new(0.0, 0.0), 500.0);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn range_larger_than_field_gives_single_cell_grid() {
        let g = SpatialGrid::new((50.0, 50.0), 100.0);
        assert_eq!(g.cols, 1);
        assert_eq!(g.rows, 1);
    }

    #[test]
    fn tiny_cell_clamps_to_bounded_grid() {
        // A near-zero radio range (radios effectively silenced) must not
        // explode the cell count or overflow the cell-index arithmetic.
        let g = SpatialGrid::new((520.0, 520.0), 1e-6);
        assert!(g.cols as f64 <= SpatialGrid::MAX_CELLS_PER_AXIS);
        assert!(g.rows as f64 <= SpatialGrid::MAX_CELLS_PER_AXIS);
        let mut g = g;
        g.insert(NodeId(0), Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        let out = query(&g, Point::new(1.0, 1.0), 1e-6);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn equivalence_with_brute_force_on_random_layout() {
        // Seedless determinism: a simple LCG placement.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = SpatialGrid::new((300.0, 300.0), 60.0);
        let mut pts = Vec::new();
        for i in 0..200u32 {
            let p = Point::new(next() * 300.0, next() * 300.0);
            g.insert(NodeId(i), p, p);
            pts.push(p);
        }
        for q in 0..50 {
            let center = pts[q * 4];
            let out = query(&g, center, 60.0);
            let grid_hits: Vec<NodeId> = out
                .iter()
                .copied()
                .filter(|n| pts[n.0 as usize].within(&center, 60.0))
                .collect();
            let brute: Vec<NodeId> = (0..200u32)
                .map(NodeId)
                .filter(|n| pts[n.0 as usize].within(&center, 60.0))
                .collect();
            assert_eq!(grid_hits, brute, "query {q} diverged");
        }
    }

    /// What a query answered before candidates were a bitset: every id
    /// registered in a covered cell, concatenated, sorted and deduplicated.
    fn sorted_superset(g: &SpatialGrid, center: Point, range: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        for r in g.row_of(center.y - range)..=g.row_of(center.y + range) {
            for c in g.col_of(center.x - range)..=g.col_of(center.x + range) {
                out.extend_from_slice(&g.cells[g.cell_index(c, r)]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The bitset query drains exactly the old sorted, deduplicated
        /// superset: nodes at points and on segments spanning many cells,
        /// ids across several 64-bit words, re-registered segments, and one
        /// reused set — drained in full, or dropped after a few ids.
        #[test]
        fn bitset_candidates_equal_the_sorted_deduplicated_superset(
            nodes in proptest::collection::vec(
                ((0.0f64..320.0, 0.0f64..320.0), (0.0f64..320.0, 0.0f64..320.0), 0u8..4),
                1..300,
            ),
            moves in proptest::collection::vec(
                (0usize..300, (0.0f64..320.0, 0.0f64..320.0), (0.0f64..320.0, 0.0f64..320.0)),
                0..40,
            ),
            queries in proptest::collection::vec(
                ((-20.0f64..340.0, -20.0f64..340.0), 1.0f64..150.0, 0usize..4),
                1..24,
            ),
            cell in 20.0f64..90.0,
        ) {
            let mut g = SpatialGrid::new((300.0, 300.0), cell);
            for (i, &((ax, ay), (bx, by), kind)) in nodes.iter().enumerate() {
                let a = Point::new(ax, ay);
                // One node in four sits still; the rest move on a segment.
                let b = if kind == 0 { a } else { Point::new(bx, by) };
                g.insert(NodeId(i as u32), a, b);
            }
            for &(i, (ax, ay), (bx, by)) in &moves {
                let node = NodeId((i % nodes.len()) as u32);
                g.update(node, Point::new(ax, ay), Point::new(bx, by));
            }
            let mut set = NodeSet::default();
            for &((x, y), range, stop_after) in &queries {
                let center = Point::new(x, y);
                let want = sorted_superset(&g, center, range);
                g.candidates_into(center, range, &mut set);
                let got: Vec<NodeId> = set.drain().collect();
                proptest::prop_assert_eq!(&got, &want);
                // A drain dropped part-way still leaves the set empty.
                g.candidates_into(center, range, &mut set);
                let head: Vec<NodeId> = set.drain().take(stop_after).collect();
                proptest::prop_assert_eq!(&head[..], &want[..stop_after.min(want.len())]);
            }
            proptest::prop_assert_eq!(set.drain().count(), 0);
        }
    }
}
