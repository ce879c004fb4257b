//! Incrementally maintained neighbor index.
//!
//! [`NeighborTable::build`] constructs a fresh grid and one `Vec` per
//! node on every call — fine for one-shot queries, allocator-bound when
//! the simulator calls it once per 250 ms beacon interval for the whole
//! run. [`NeighborIndex`] keeps per-node lists and a double-buffered
//! previous table alive across intervals and refreshes them in place
//! with skin-radius ("Verlet") candidate lists, the cell-list +
//! Verlet-list pairing of molecular dynamics (Verlet, Phys. Rev.
//! 159:98, 1967):
//!
//! * the *candidates* are every pair of nodes within `range + skin`
//!   (the skin is `SKIN_PER_RANGE` of the range: 40 m at 250 m), found
//!   with one bucket grid at that cell size. The relation is symmetric,
//!   so each pair is stored once, in one flat buffer: node `i` holds
//!   its candidates above `i`, sorted (a half Verlet list);
//! * every [`advance`] tests each pair once with the oracle's own
//!   predicate, `distance_squared_to(..) <= range²`, and pushes a hit
//!   into both lists. Visiting the nodes in id order fills every list
//!   in id order, so no sort runs;
//! * the candidates are rebuilt only when twice the largest
//!   displacement since the last rebuild exceeds the skin. Until then
//!   no pair can have closed from beyond `range + skin` to within
//!   `range`, so the filtered lists are exact. The displacement is
//!   measured from the snapshots themselves, never from a speed bound,
//!   so arbitrary strides and hand-built snapshots stay exact.
//!
//! A list byte-equal to the previous interval's is *carried forward*
//! ([`NeighborIndex::carried_forward`]): its link churn is zero, and
//! the simulator skips its churn scan.
//!
//! Fault injection mutates the current table through
//! [`NeighborIndex::isolate`] / [`NeighborIndex::cut_link`]. The
//! candidates hold geometry only, so the next [`advance`] refilters
//! every list from them, reproducing the rebuild-then-mutate semantics
//! of the from-scratch path exactly. `NeighborTable::build` stays as
//! the differential oracle — the property tests in this module and in
//! `tests/properties.rs` assert the incremental table equals a
//! from-scratch build after arbitrary interleavings of motion and fault
//! mutations.
//!
//! [`advance`]: NeighborIndex::advance
//!
//! # Example
//!
//! ```
//! use rcast_engine::{NodeId, SimTime, rng::StreamRng};
//! use rcast_mobility::{Area, MobilityField, NeighborIndex, NeighborTable, WaypointConfig};
//!
//! let mut field = MobilityField::random_waypoint(
//!     40, Area::paper_default(), WaypointConfig::default(), StreamRng::from_seed(9));
//! let mut snap = field.snapshot(SimTime::ZERO);
//! let mut index = NeighborIndex::new(&snap, 250.0);
//! for k in 1..=8 {
//!     field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
//!     index.advance(&snap);
//!     let oracle = NeighborTable::build(&snap, 250.0);
//!     for i in (0..40).map(NodeId::new) {
//!         assert_eq!(index.current().neighbors(i), oracle.neighbors(i));
//!         // Carried forward exactly when the list did not change.
//!         assert_eq!(
//!             index.carried_forward(i),
//!             index.current().neighbors(i) == index.previous().neighbors(i),
//!         );
//!     }
//! }
//! ```

use rcast_engine::NodeId;

use crate::field::Snapshot;
use crate::geometry::Vec2;
use crate::grid::SpatialGrid;
use crate::neighbors::NeighborTable;

/// The skin as a fraction of the radio range: candidates reach out to
/// `range × (1 + SKIN_PER_RANGE)`, 40 m past the paper's 250 m. At the
/// paper's 20 m/s and 250 ms beacons a node moves at most 5 m per
/// interval, so the candidates are rebuilt at most every fourth advance.
const SKIN_PER_RANGE: f64 = 0.16;

/// Meters kept back from the skin in the rebuild trigger, so rounding
/// in the distance arithmetic can never let a pair at exactly `range`
/// fall outside its candidates.
const SKIN_SLACK_M: f64 = 1e-6;

/// A neighbor table maintained in place across mobility snapshots.
/// See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct NeighborIndex {
    range_m: f64,
    skin_m: f64,
    /// Bucket grid at cell size `range_m + skin_m`, re-bucketed at
    /// every candidate rebuild.
    grid: Option<SpatialGrid>,
    /// Each node's position at the last candidate rebuild; empty until
    /// the first advance builds the candidates.
    anchor: Vec<Vec2>,
    /// Every candidate pair once, as the upper half of the symmetric
    /// relation: node `i`'s run `candidates[offsets[i]..offsets[i + 1]]`
    /// holds its candidates above `i`, sorted.
    candidates: Vec<NodeId>,
    offsets: Vec<usize>,
    current: NeighborTable,
    previous: NeighborTable,
    /// Whether each current list is byte-equal to the previous one, as
    /// of the last [`advance`](Self::advance).
    unchanged: Vec<bool>,
    /// Set by [`isolate`](Self::isolate) / [`cut_link`](Self::cut_link)
    /// until the next advance.
    mutated: bool,
}

impl NeighborIndex {
    /// Builds the index from an initial snapshot. The candidate lists
    /// are built by the first [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive and finite (grid invariant).
    pub fn new(snapshot: &Snapshot, range_m: f64) -> Self {
        let skin_m = range_m * SKIN_PER_RANGE;
        let grid = snapshot.grid(range_m + skin_m);
        let n = snapshot.len();
        let mut current = NeighborTable::with_nodes(n, range_m);
        // Gather each list in one scratch buffer, so every list is
        // allocated once, at its size.
        let mut scratch = Vec::new();
        for (i, list) in current.lists_mut().iter_mut().enumerate() {
            grid.neighbors_into(NodeId::new(i as u32), snapshot, range_m, &mut scratch);
            list.extend_from_slice(&scratch);
        }
        NeighborIndex {
            range_m,
            skin_m,
            grid: Some(grid),
            anchor: Vec::new(),
            candidates: Vec::new(),
            offsets: Vec::new(),
            previous: current.clone(),
            current,
            unchanged: vec![true; n],
            mutated: false,
        }
    }

    /// Advances to a new snapshot: the table that was current becomes
    /// [`previous`](Self::previous) and the current one is refiltered
    /// in place from the candidates, which are rebuilt first when the
    /// nodes have moved too far for them to be complete.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs from the one the
    /// index was built with.
    pub fn advance(&mut self, snapshot: &Snapshot) {
        assert_eq!(
            snapshot.len(),
            self.len(),
            "node count changed across advance"
        );
        std::mem::swap(&mut self.current, &mut self.previous);
        if self.candidates_stale(snapshot) {
            self.rebuild_candidates(snapshot);
        }
        // Each pair (i < j) is tested once, from row i. Row j receives
        // its lower neighbors as rows i < j are visited in ascending
        // order, then its own upper run, which is sorted: every list
        // comes out sorted.
        let positions = snapshot.positions();
        let r2 = self.range_m * self.range_m;
        let lists = self.current.lists_mut();
        for list in lists.iter_mut() {
            list.clear();
        }
        for (i, &p) in positions.iter().enumerate() {
            for &j in &self.candidates[self.offsets[i]..self.offsets[i + 1]] {
                if p.distance_squared_to(positions[j.index()]) <= r2 {
                    lists[i].push(j);
                    lists[j.index()].push(NodeId::new(i as u32));
                }
            }
        }
        for ((same, list), prev) in self
            .unchanged
            .iter_mut()
            .zip(&*lists)
            .zip(self.previous.lists())
        {
            *same = list == prev;
        }
        self.mutated = false;
    }

    /// Whether the candidates may miss a pair now within range: none
    /// were built yet, or twice the largest displacement since they
    /// were exceeds the skin (two nodes closing head-on).
    fn candidates_stale(&self, snapshot: &Snapshot) -> bool {
        if self.anchor.len() != snapshot.len() {
            return true;
        }
        let mut max_d2 = 0.0f64;
        for (p, a) in snapshot.positions().iter().zip(&self.anchor) {
            max_d2 = max_d2.max(p.distance_squared_to(*a));
        }
        2.0 * max_d2.sqrt() > self.skin_m - SKIN_SLACK_M
    }

    /// Rebuilds every node's candidates from `snapshot` and makes its
    /// positions the new anchor, reusing every buffer's capacity.
    fn rebuild_candidates(&mut self, snapshot: &Snapshot) {
        // Only the `Default` placeholder lacks a grid, and it covers no
        // nodes.
        let Some(grid) = self.grid.as_mut() else {
            return;
        };
        let n = snapshot.len();
        grid.rebucket(snapshot);
        self.anchor.clear();
        self.anchor.extend_from_slice(snapshot.positions());
        let reach = self.range_m + self.skin_m;
        self.candidates.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for i in 0..n {
            let start = self.candidates.len();
            grid.for_each_above(NodeId::new(i as u32), snapshot, reach, |j| {
                self.candidates.push(j)
            });
            self.candidates[start..].sort_unstable();
            self.offsets.push(self.candidates.len());
        }
    }

    /// `true` when `node`'s current list is byte-equal to the previous
    /// interval's and no fault mutation has touched the table since the
    /// last [`advance`](Self::advance). In that case
    /// [`NeighborTable::link_changes_since`] against
    /// [`previous`](Self::previous) is zero, so callers can skip the
    /// per-node symmetric-difference merge: churn scanning becomes
    /// proportional to the number of lists that actually changed, not
    /// to n.
    pub fn carried_forward(&self, node: NodeId) -> bool {
        !self.mutated && self.unchanged[node.index()]
    }

    /// The maintained table for the current snapshot.
    pub fn current(&self) -> &NeighborTable {
        &self.current
    }

    /// The table as it stood at the previous advance (after any fault
    /// mutations applied then) — the baseline for
    /// [`NeighborTable::link_changes_since`].
    pub fn previous(&self) -> &NeighborTable {
        &self.previous
    }

    /// Silences `node` in the current table (see
    /// [`NeighborTable::isolate`]); the next advance refilters every
    /// list from geometry.
    pub fn isolate(&mut self, node: NodeId) {
        self.mutated = true;
        self.current.isolate(node);
    }

    /// Cuts the `a`–`b` link in the current table (see
    /// [`NeighborTable::cut_link`]); the next advance refilters every
    /// list from geometry.
    pub fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.mutated = true;
        self.current.cut_link(a, b);
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` when the index covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
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

    fn assert_tables_equal(index: &NeighborIndex, oracle: &NeighborTable, ctx: &str) {
        assert_eq!(index.current().len(), oracle.len(), "{ctx}");
        for i in 0..oracle.len() {
            let id = NodeId::new(i as u32);
            assert_eq!(
                index.current().neighbors(id),
                oracle.neighbors(id),
                "{ctx}: node {i}"
            );
        }
    }

    #[test]
    fn tracks_from_scratch_build_over_many_intervals() {
        let mut field = MobilityField::random_waypoint(
            80,
            Area::paper_default(),
            WaypointConfig::default(),
            StreamRng::from_seed(3),
        );
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 250.0);
        assert_tables_equal(&index, &NeighborTable::build(&snap, 250.0), "t=0");
        for k in 1..200u64 {
            let t = SimTime::from_millis(k * 250);
            field.snapshot_into(t, &mut snap);
            index.advance(&snap);
            assert_tables_equal(&index, &NeighborTable::build(&snap, 250.0), "interval");
        }
    }

    #[test]
    fn static_field_skips_but_stays_correct() {
        let cfg = WaypointConfig {
            pause_secs: 1e9,
            ..WaypointConfig::default()
        };
        let mut field =
            MobilityField::random_waypoint(40, Area::paper_default(), cfg, StreamRng::from_seed(8));
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 250.0);
        for k in 1..20u64 {
            field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
            index.advance(&snap);
            assert_tables_equal(&index, &NeighborTable::build(&snap, 250.0), "static");
        }
    }

    #[test]
    fn fault_mutations_wash_out_on_the_next_advance() {
        let mut field = MobilityField::random_waypoint(
            50,
            Area::paper_default(),
            WaypointConfig::default(),
            StreamRng::from_seed(5),
        );
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 250.0);
        for k in 1..60u64 {
            field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
            index.advance(&snap);
            let mut oracle = NeighborTable::build(&snap, 250.0);
            assert_tables_equal(&index, &oracle, "pre-mutation");
            if k % 3 == 0 {
                let down = NodeId::new((k % 50) as u32);
                index.isolate(down);
                oracle.isolate(down);
            }
            if k % 4 == 0 {
                let (a, b) = (NodeId::new(1), NodeId::new(2));
                index.cut_link(a, b);
                oracle.cut_link(a, b);
            }
            assert_tables_equal(&index, &oracle, "post-mutation");
            // `previous` carries the post-mutation table, exactly like
            // the from-scratch path's `prev_nt`.
            for i in 0..50 {
                let id = NodeId::new(i as u32);
                assert_eq!(oracle.link_changes_since(&oracle, id), 0);
            }
        }
    }

    #[test]
    fn carried_forward_implies_zero_link_churn() {
        // Long pauses give a mixed population: paused nodes whose
        // neighbors stay put carry their lists forward, lists that
        // change do not — both must agree with the churn oracle.
        let cfg = WaypointConfig {
            pause_secs: 20.0,
            ..WaypointConfig::default()
        };
        let mut field = MobilityField::random_waypoint(
            60,
            Area::paper_default(),
            cfg,
            StreamRng::from_seed(12),
        );
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 250.0);
        let mut skipped = 0usize;
        for k in 1..120u64 {
            field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
            index.advance(&snap);
            for i in 0..60 {
                let id = NodeId::new(i as u32);
                if index.carried_forward(id) {
                    skipped += 1;
                    assert_eq!(
                        index.current().link_changes_since(index.previous(), id),
                        0,
                        "carried-forward node {i} reported churn"
                    );
                }
            }
            if k % 10 == 0 {
                index.isolate(NodeId::new((k % 60) as u32));
                // A mutated table must disable the skip for every node.
                for i in 0..60 {
                    assert!(!index.carried_forward(NodeId::new(i as u32)));
                }
            }
        }
        assert!(skipped > 0, "skip path never exercised");
    }

    /// Advances `index` to hand-built `positions` and checks it against
    /// a from-scratch build.
    fn advance_to(index: &mut NeighborIndex, positions: Vec<Vec2>, area: Area, ms: u64) {
        let snap = Snapshot::from_positions(positions, area, SimTime::from_millis(ms));
        index.advance(&snap);
        assert_tables_equal(index, &NeighborTable::build(&snap, 250.0), "hand-built");
    }

    #[test]
    fn a_pair_closing_from_beyond_the_skin_is_found_at_exactly_range() {
        let area = Area::new(1_000.0, 10.0);
        let reach = 250.0 * (1.0 + SKIN_PER_RANGE);
        // The pair starts 1 m beyond `range + skin` apart and closes
        // head-on, each node 4 m per advance, until it is exactly
        // `range` apart: the worst case the rebuild trigger's factor of
        // two covers.
        let at = |gap: f64| {
            vec![
                Vec2::new(500.0 - gap / 2.0, 5.0),
                Vec2::new(500.0 + gap / 2.0, 5.0),
            ]
        };
        let start = Snapshot::from_positions(at(reach + 1.0), area, SimTime::ZERO);
        let mut index = NeighborIndex::new(&start, 250.0);
        let mut gap = reach + 1.0;
        advance_to(&mut index, at(gap), area, 250);
        assert!(
            index.candidates.is_empty(),
            "the pair starts outside the skin"
        );
        for k in 2u64.. {
            gap = (gap - 8.0).max(250.0);
            advance_to(&mut index, at(gap), area, k * 250);
            if gap == 250.0 {
                break;
            }
        }
        assert_eq!(index.current().neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(index.current().neighbors(NodeId::new(1)), &[NodeId::new(0)]);
    }

    #[test]
    fn a_jump_past_the_skin_in_one_advance_stays_exact() {
        let area = Area::new(2_000.0, 400.0);
        let row = |x0: f64| {
            let mut p: Vec<Vec2> = (0..6)
                .map(|i| Vec2::new(300.0 * f64::from(i), 200.0))
                .collect();
            p[0] = Vec2::new(x0, 200.0);
            p
        };
        let start = Snapshot::from_positions(row(0.0), area, SimTime::ZERO);
        let mut index = NeighborIndex::new(&start, 250.0);
        advance_to(&mut index, row(0.0), area, 250);
        assert!(index.current().neighbors(NodeId::new(0)).is_empty());
        // Node 0 jumps 1 600 m, far past the skin, to sit 100 m from
        // node 5; then it jumps back.
        advance_to(&mut index, row(1_600.0), area, 500);
        assert_eq!(index.current().neighbors(NodeId::new(0)), &[NodeId::new(5)]);
        assert!(!index.carried_forward(NodeId::new(5)));
        advance_to(&mut index, row(0.0), area, 750);
        assert!(index.current().neighbors(NodeId::new(5)).is_empty());
    }

    #[test]
    fn carried_forward_iff_the_list_is_unchanged_under_constant_motion() {
        let mut field = MobilityField::random_waypoint(
            80,
            Area::paper_default(),
            WaypointConfig::default(),
            StreamRng::from_seed(21),
        );
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 250.0);
        let (mut carried, mut changed) = (0usize, 0usize);
        for k in 1..160u64 {
            field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
            index.advance(&snap);
            for i in 0..80 {
                let id = NodeId::new(i as u32);
                let equal = index.current().neighbors(id) == index.previous().neighbors(id);
                assert_eq!(index.carried_forward(id), equal, "node {i} at interval {k}");
                if equal {
                    carried += 1;
                } else {
                    changed += 1;
                }
            }
        }
        assert!(
            carried > 0 && changed > 0,
            "{carried} carried, {changed} changed"
        );
    }

    #[test]
    fn empty_index_is_harmless() {
        let area = Area::new(100.0, 100.0);
        let snap = Snapshot::from_positions(vec![], area, SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, 50.0);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        index.advance(&snap);
        assert!(index.current().is_empty());
    }
}
