//! Uniform-grid spatial index for neighbor queries.

use rcast_engine::NodeId;

use crate::field::Snapshot;
use crate::geometry::Vec2;

/// A uniform bucket grid over node positions.
///
/// Cells are `cell_size` meters square; a range query of radius
/// `r <= cell_size` only needs to inspect the 3 × 3 cell neighborhood.
/// Rebuilt from each mobility [`Snapshot`] (cheap: O(n)).
///
/// # Example
///
/// ```
/// use rcast_engine::{NodeId, SimTime, rng::StreamRng};
/// use rcast_mobility::{Area, MobilityField, WaypointConfig};
///
/// let mut field = MobilityField::random_waypoint(
///     50, Area::paper_default(), WaypointConfig::default(), StreamRng::from_seed(4));
/// let snap = field.snapshot(SimTime::ZERO);
/// let grid = snap.grid(250.0);
/// for id in (0..50).map(NodeId::new) {
///     // A node is never its own neighbor.
///     assert!(!grid.neighbors_of(id, &snap, 250.0).contains(&id));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// `buckets[row * cols + col]` lists the nodes in that cell.
    buckets: Vec<Vec<NodeId>>,
}

impl SpatialGrid {
    /// Builds a grid from a snapshot with the given cell size (typically
    /// the radio range).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    pub fn build(snapshot: &Snapshot, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "invalid cell size {cell_size}"
        );
        let area = snapshot.area();
        let cols = (area.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (area.height() / cell_size).ceil().max(1.0) as usize;
        let mut grid = SpatialGrid {
            cell_size,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
        };
        grid.rebucket(snapshot);
        grid
    }

    /// All nodes within `radius` meters of node `of`, boundary included
    /// and `of` itself excluded, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `radius > cell_size` (the 3×3 scan would miss nodes) or
    /// if `of` is out of range for the snapshot.
    pub fn neighbors_of(&self, of: NodeId, snapshot: &Snapshot, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(of, snapshot, radius, &mut out);
        out
    }

    /// [`neighbors_of`](Self::neighbors_of) writing into a caller-owned
    /// buffer (cleared first) so steady-state queries allocate nothing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`neighbors_of`](Self::neighbors_of).
    pub fn neighbors_into(
        &self,
        of: NodeId,
        snapshot: &Snapshot,
        radius: f64,
        out: &mut Vec<NodeId>,
    ) {
        self.check_radius(radius);
        out.clear();
        let p = snapshot.positions()[of.index()];
        let r2 = radius * radius;
        for bucket in self.stencil(p) {
            for &other in bucket {
                if other != of && p.distance_squared_to(snapshot.positions()[other.index()]) <= r2 {
                    out.push(other);
                }
            }
        }
        out.sort_unstable();
    }

    /// Calls `f` with every node of id above `of` within `radius` of it,
    /// in bucket order. Visiting every node this way meets each pair
    /// once.
    ///
    /// # Panics
    ///
    /// Same conditions as [`neighbors_of`](Self::neighbors_of).
    pub(crate) fn for_each_above(
        &self,
        of: NodeId,
        snapshot: &Snapshot,
        radius: f64,
        mut f: impl FnMut(NodeId),
    ) {
        self.check_radius(radius);
        let p = snapshot.positions()[of.index()];
        let r2 = radius * radius;
        for bucket in self.stencil(p) {
            // Buckets hold ascending ids, so the ids above `of` are a
            // suffix.
            for &other in &bucket[bucket.partition_point(|&id| id <= of)..] {
                if p.distance_squared_to(snapshot.positions()[other.index()]) <= r2 {
                    f(other);
                }
            }
        }
    }

    /// The buckets of the 3 × 3 cell neighborhood around `p`.
    fn stencil(&self, p: Vec2) -> impl Iterator<Item = &[NodeId]> + '_ {
        let (row, col) = self.cell_of(p);
        let rows = row.saturating_sub(1)..=(row + 1).min(self.rows - 1);
        rows.flat_map(move |r| {
            let cols = col.saturating_sub(1)..=(col + 1).min(self.cols - 1);
            cols.map(move |c| self.buckets[r * self.cols + c].as_slice())
        })
    }

    /// A 3 × 3 scan finds every node within `radius` only when the
    /// radius fits in one cell.
    fn check_radius(&self, radius: f64) {
        assert!(
            radius <= self.cell_size + 1e-9,
            "radius {radius} exceeds cell size {}",
            self.cell_size
        );
    }

    /// Re-buckets every node from `snapshot` in place, keeping the
    /// grid's dimensions and each bucket's capacity. Nodes are pushed in
    /// id order, so every bucket holds ascending ids.
    pub(crate) fn rebucket(&mut self, snapshot: &Snapshot) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, &p) in snapshot.positions().iter().enumerate() {
            let (row, col) = self.cell_of(p);
            self.buckets[row * self.cols + col].push(NodeId::new(i as u32));
        }
    }

    /// The number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.buckets.len()
    }

    /// The `(row, col)` of the cell a position falls into.
    fn cell_of(&self, p: Vec2) -> (usize, usize) {
        let col = ((p.x / self.cell_size) as usize).min(self.cols - 1);
        let row = ((p.y / self.cell_size) as usize).min(self.rows - 1);
        (row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::MobilityField;
    use crate::geometry::{Area, Vec2};
    use crate::waypoint::WaypointConfig;
    use rcast_engine::rng::StreamRng;
    use rcast_engine::SimTime;

    fn snapshot_with(positions: Vec<Vec2>, area: Area) -> Snapshot {
        Snapshot::from_positions(positions, area, SimTime::ZERO)
    }

    #[test]
    fn matches_brute_force() {
        let mut field = MobilityField::random_waypoint(
            120,
            Area::paper_default(),
            WaypointConfig::default(),
            StreamRng::from_seed(42),
        );
        let snap = field.snapshot(SimTime::from_secs(17));
        let grid = snap.grid(250.0);
        for i in 0..120u32 {
            let id = NodeId::new(i);
            let got = grid.neighbors_of(id, &snap, 250.0);
            let p = snap.positions()[id.index()];
            let mut want: Vec<NodeId> = (0..120u32)
                .map(NodeId::new)
                .filter(|&j| j != id && p.distance_to(snap.positions()[j.index()]) <= 250.0)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "node {i}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let area = Area::new(100.0, 100.0);
        let snap = snapshot_with(vec![Vec2::new(50.0, 50.0)], area);
        let grid = snap.grid(30.0);
        assert!(grid
            .neighbors_of(NodeId::new(0), &snap, 30.0)
            .is_empty());
    }

    #[test]
    fn boundary_positions_bucket_safely() {
        let area = Area::new(1000.0, 1000.0);
        // Nodes exactly on the far corner must not index out of bounds.
        let snap = snapshot_with(
            vec![Vec2::new(1000.0, 1000.0), Vec2::new(999.0, 999.0)],
            area,
        );
        let grid = snap.grid(250.0);
        let n = grid.neighbors_of(NodeId::new(0), &snap, 250.0);
        assert_eq!(n, vec![NodeId::new(1)]);
    }

    #[test]
    fn radius_on_the_dot_is_inclusive() {
        let area = Area::new(1000.0, 10.0);
        let snap = snapshot_with(vec![Vec2::new(0.0, 0.0), Vec2::new(250.0, 0.0)], area);
        let grid = snap.grid(250.0);
        assert_eq!(
            grid.neighbors_of(NodeId::new(0), &snap, 250.0),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    #[should_panic]
    fn radius_larger_than_cell_panics() {
        let area = Area::new(100.0, 100.0);
        let snap = snapshot_with(vec![Vec2::ZERO], area);
        let grid = snap.grid(50.0);
        let _ = grid.neighbors_of(NodeId::new(0), &snap, 60.0);
    }

    #[test]
    fn cell_count_covers_area() {
        let area = Area::paper_default();
        let snap = snapshot_with(vec![Vec2::ZERO], area);
        let grid = snap.grid(250.0);
        // 1500/250 = 6 cols, 300/250 -> 2 rows
        assert_eq!(grid.cell_count(), 12);
    }
}
