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

    /// Collects into `out` a sorted, deduplicated superset of the nodes
    /// within `range` of `center`: every node whose exact position can be
    /// inside the disk is included; callers apply the exact distance check.
    /// The output order is ascending `NodeId`, which keeps delivery
    /// iteration (and therefore per-receiver RNG draws) identical to a
    /// brute-force scan.
    pub fn candidates_into(&self, center: Point, range: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let c0 = self.col_of(center.x - range);
        let c1 = self.col_of(center.x + range);
        let r0 = self.row_of(center.y - range);
        let r1 = self.row_of(center.y + range);
        for r in r0..=r1 {
            for c in c0..=c1 {
                out.extend_from_slice(&self.cells[self.cell_index(c, r)]);
            }
        }
        out.sort_unstable();
        out.dedup();
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
        let mut out = Vec::new();
        g.candidates_into(Point::new(12.0, 12.0), 60.0, &mut out);
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
        let mut out = Vec::new();
        g.candidates_into(Point::new(100.0, 10.0), 60.0, &mut out);
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
        let mut out = Vec::new();
        g.candidates_into(Point::new(10.0, 10.0), 60.0, &mut out);
        assert!(out.is_empty(), "node left its old cell");
        g.candidates_into(Point::new(280.0, 280.0), 60.0, &mut out);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn out_of_field_positions_clamp_to_edge_cells() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(-5.0, 400.0), Point::new(-5.0, 400.0));
        let mut out = Vec::new();
        g.candidates_into(Point::new(0.0, 299.0), 60.0, &mut out);
        assert_eq!(out, vec![NodeId(0)]);
    }

    #[test]
    fn query_near_field_edges_does_not_panic() {
        let mut g = grid();
        g.insert(NodeId(0), Point::new(0.0, 0.0), Point::new(0.0, 0.0));
        let mut out = Vec::new();
        g.candidates_into(Point::new(0.0, 0.0), 500.0, &mut out);
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
        let mut out = Vec::new();
        g.candidates_into(Point::new(1.0, 1.0), 1e-6, &mut out);
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
        let mut out = Vec::new();
        for q in 0..50 {
            let center = pts[q * 4];
            g.candidates_into(center, 60.0, &mut out);
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
}
