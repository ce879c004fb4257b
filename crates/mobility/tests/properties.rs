//! Property-based tests for mobility: trajectories stay in bounds,
//! speeds respect limits, and the spatial grid agrees with brute force.
//! On the in-tree `rcast-testkit` harness.

use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimTime};
use rcast_mobility::{
    Area, MobilityField, NeighborIndex, NeighborTable, RandomWaypoint, Snapshot, Vec2,
    WaypointConfig,
};
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

/// A trajectory never leaves its field, for arbitrary seeds, speeds,
/// pause times and query patterns.
#[test]
fn trajectory_stays_in_area() {
    Check::new("trajectory_stays_in_area").run(|g| {
        let seed = g.u64();
        let max_speed = g.f64_range(1.0, 50.0);
        let pause = g.f64_range(0.0, 100.0);
        let steps = g.vec(1, 50, |g| g.u64_range(1, 5_000));
        let area = Area::new(1_500.0, 300.0);
        let cfg = WaypointConfig {
            min_speed_mps: 0.1,
            max_speed_mps: max_speed,
            pause_secs: pause,
        };
        let mut rw = RandomWaypoint::new(area, cfg, StreamRng::from_seed(seed));
        let mut t = 0u64;
        for step in steps {
            t += step;
            let p = rw.position_at(SimTime::from_millis(t));
            prop_assert!(area.contains(p), "escaped to {p:?} at {t} ms");
        }
        Ok(())
    });
}

/// Observed speed between samples never exceeds the configured max.
#[test]
fn observed_speed_bounded() {
    Check::new("observed_speed_bounded").run(|g| {
        let seed = g.u64();
        let max_speed = g.f64_range(1.0, 40.0);
        let area = Area::new(1_000.0, 200.0);
        let cfg = WaypointConfig {
            min_speed_mps: 0.1,
            max_speed_mps: max_speed,
            pause_secs: 0.0,
        };
        let mut rw = RandomWaypoint::new(area, cfg, StreamRng::from_seed(seed));
        let dt = 0.5;
        let mut prev = rw.position_at(SimTime::ZERO);
        for i in 1..200u64 {
            let cur = rw.position_at(SimTime::from_millis(i * 500));
            let v = prev.distance_to(cur) / dt;
            prop_assert!(v <= max_speed + 1e-6, "speed {v} > {max_speed}");
            prev = cur;
        }
        Ok(())
    });
}

/// The grid-backed neighbor query equals the O(n^2) answer for
/// arbitrary point sets and ranges.
#[test]
fn grid_matches_brute_force() {
    Check::new("grid_matches_brute_force").run(|g| {
        let points = g.vec(1, 80, |g| {
            (g.f64_range(0.0, 2_000.0), g.f64_range(0.0, 400.0))
        });
        let range = g.f64_range(50.0, 400.0);
        let positions: Vec<Vec2> = points.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let snap =
            Snapshot::from_positions(positions.clone(), Area::new(2_000.0, 400.0), SimTime::ZERO);
        let table = NeighborTable::build(&snap, range);
        for i in 0..positions.len() {
            let id = NodeId::new(i as u32);
            let mut brute: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].distance_to(positions[j]) <= range)
                .map(|j| NodeId::new(j as u32))
                .collect();
            brute.sort_unstable();
            prop_assert_eq!(table.neighbors(id), &brute[..]);
        }
        Ok(())
    });
}

/// Neighbor relations are symmetric for arbitrary topologies.
#[test]
fn neighbor_symmetry() {
    Check::new("neighbor_symmetry").run(|g| {
        let points = g.vec(2, 40, |g| {
            (g.f64_range(0.0, 1_000.0), g.f64_range(0.0, 1_000.0))
        });
        let positions: Vec<Vec2> = points.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let count = positions.len();
        let snap = Snapshot::from_positions(positions, Area::new(1_000.0, 1_000.0), SimTime::ZERO);
        let table = NeighborTable::build(&snap, 250.0);
        for a in 0..count {
            for b in 0..count {
                prop_assert_eq!(
                    table.are_neighbors(NodeId::new(a as u32), NodeId::new(b as u32)),
                    table.are_neighbors(NodeId::new(b as u32), NodeId::new(a as u32))
                );
            }
        }
        Ok(())
    });
}

/// The incremental [`NeighborIndex`] stays equal to a from-scratch
/// [`NeighborTable::build`] oracle under arbitrary interleavings of the
/// operations the simulator performs on it: mobility advances (of
/// arbitrary stride, including zero motion while paused), `isolate`
/// (node crash / blackout) and `cut_link` (corruption burst), followed
/// by more advances (crash rejoin: the fault layer re-isolates downed
/// nodes after every rebuild, so a post-mutation advance must restore
/// the pure geometric answer).
#[test]
fn incremental_index_matches_rebuilt_table() {
    Check::new("incremental_index_matches_rebuilt_table").run(|g| {
        let seed = g.u64();
        let n = g.u32_range(2, 40);
        let area = Area::new(g.f64_range(300.0, 2_000.0), g.f64_range(100.0, 600.0));
        let range = g.f64_range(50.0, 400.0);
        let cfg = WaypointConfig {
            min_speed_mps: 0.1,
            max_speed_mps: g.f64_range(1.0, 30.0),
            pause_secs: g.f64_range(0.0, 60.0),
        };
        let mut field = MobilityField::random_waypoint(n, area, cfg, StreamRng::from_seed(seed));
        let mut snap = field.snapshot(SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, range);
        let mut oracle = NeighborTable::build(&snap, range);
        let mut t_ms = 0u64;

        let ops = g.vec(1, 25, |g: &mut Gen| (g.u32_range(0, 3), g.u64(), g.u64()));
        for (op, x, y) in ops {
            match op {
                // Mobility advance: strides from 1 ms to 20 s, so runs
                // cross pause boundaries, tiny in-cell jitters and
                // multi-cell jumps alike.
                0 => {
                    t_ms += 1 + x % 20_000;
                    field.snapshot_into(SimTime::from_millis(t_ms), &mut snap);
                    index.advance(&snap);
                    oracle = NeighborTable::build(&snap, range);
                }
                // Node crash or blackout.
                1 => {
                    let id = NodeId::new((x % u64::from(n)) as u32);
                    index.isolate(id);
                    oracle.isolate(id);
                }
                // Corruption burst on one link (self-links are a no-op
                // the same way in both implementations).
                _ => {
                    let a = NodeId::new((x % u64::from(n)) as u32);
                    let b = NodeId::new((y % u64::from(n)) as u32);
                    index.cut_link(a, b);
                    oracle.cut_link(a, b);
                }
            }
            prop_assert_eq!(index.len(), oracle.len());
            for i in 0..n {
                let id = NodeId::new(i);
                prop_assert_eq!(
                    index.current().neighbors(id),
                    oracle.neighbors(id),
                    "node {i} after op {op} at {t_ms} ms"
                );
                // After an advance a list is carried forward exactly
                // when it is byte-equal to the previous one; a fault
                // mutation turns the skip off until the next advance.
                let unchanged = index.current().neighbors(id) == index.previous().neighbors(id);
                prop_assert_eq!(
                    index.carried_forward(id),
                    op == 0 && unchanged,
                    "carried_forward of node {i} after op {op} at {t_ms} ms"
                );
            }
        }
        Ok(())
    });
}

/// The incremental index at the e2e benchmark's idle-1200 shape (1200
/// always-moving nodes on 7200 × 720 m) equals a from-scratch build at
/// every beacon interval, and carries forward exactly the lists that
/// did not change.
#[test]
fn incremental_index_matches_rebuilt_table_at_scale() {
    let n = 1_200u32;
    let mut field = MobilityField::random_waypoint(
        n,
        Area::new(7_200.0, 720.0),
        WaypointConfig::default(),
        StreamRng::from_seed(1_200),
    );
    let mut snap = field.snapshot(SimTime::ZERO);
    let mut index = NeighborIndex::new(&snap, 250.0);
    let (mut carried, mut changed) = (0usize, 0usize);
    for k in 1..=48u64 {
        field.snapshot_into(SimTime::from_millis(k * 250), &mut snap);
        index.advance(&snap);
        let oracle = NeighborTable::build(&snap, 250.0);
        for i in 0..n {
            let id = NodeId::new(i);
            assert_eq!(
                index.current().neighbors(id),
                oracle.neighbors(id),
                "node {i} at interval {k}"
            );
            let unchanged = index.current().neighbors(id) == index.previous().neighbors(id);
            assert_eq!(index.carried_forward(id), unchanged, "node {i} at interval {k}");
            if unchanged {
                carried += 1;
            } else {
                changed += 1;
            }
        }
    }
    assert!(carried > 0 && changed > 0, "{carried} carried, {changed} changed");
}

/// The grid-backed fan-out — the set the MAC's broadcast/overhearing
/// path visits via [`NeighborIndex`] — equals the brute-force pairwise
/// oracle when positions straddle grid-cell boundaries. Coordinates
/// are snapped to exact multiples of the cell size (the radio range)
/// and then nudged by "exactly on the line", "a hair off" or "clearly
/// inside" offsets: where an open/closed cell-assignment bug or a
/// missed ring of the 3×3 cell neighborhood would first show. Exact
/// distance == range pairs arise whenever two un-nudged points sit one
/// cell apart on the same line.
#[test]
fn boundary_straddling_fanout_matches_pairwise_oracle() {
    Check::new("boundary_straddling_fanout_matches_pairwise_oracle").run(|g| {
        let range = g.f64_range(60.0, 250.0);
        let area = Area::new(2_000.0, 600.0);
        let boundary_coord = |g: &mut Gen, cells: u32, base: f64| {
            let snapped = f64::from(g.u32_range(0, cells)) * base;
            let nudge = match g.u32_range(0, 2) {
                0 => 0.0,
                1 => g.f64_range(-1e-9, 1e-9),
                _ => g.f64_range(-2.0, 2.0),
            };
            snapped + nudge
        };
        let points = g.vec(2, 60, |g: &mut Gen| {
            (
                boundary_coord(g, 8, range),
                boundary_coord(g, 2, range),
            )
        });
        let positions: Vec<Vec2> = points
            .iter()
            .map(|&(x, y)| area.clamp(Vec2::new(x, y)))
            .collect();
        let brute = |positions: &[Vec2], i: usize| {
            let mut out: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].distance_to(positions[j]) <= range)
                .map(|j| NodeId::new(j as u32))
                .collect();
            out.sort_unstable();
            out
        };
        let snap = Snapshot::from_positions(positions.clone(), area, SimTime::ZERO);
        let mut index = NeighborIndex::new(&snap, range);
        for i in 0..positions.len() {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(
                index.current().neighbors(id),
                &brute(&positions, i)[..],
                "fan-out of node {i} at t=0"
            );
        }
        // Jitter every node across (or onto) a nearby boundary and
        // exercise the incremental advance path against the same oracle.
        let moved: Vec<Vec2> = positions
            .iter()
            .map(|p| {
                let dx = match g.u32_range(0, 2) {
                    0 => 0.0,
                    1 => g.f64_range(-1e-9, 1e-9),
                    _ => g.f64_range(-range, range),
                };
                let dy = g.f64_range(-3.0, 3.0);
                area.clamp(Vec2::new(p.x + dx, p.y + dy))
            })
            .collect();
        let snap2 = Snapshot::from_positions(moved.clone(), area, SimTime::from_secs(1));
        index.advance(&snap2);
        for i in 0..moved.len() {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(
                index.current().neighbors(id),
                &brute(&moved, i)[..],
                "fan-out of node {i} after advance"
            );
        }
        Ok(())
    });
}

/// Link-change counting is zero against itself and symmetric in
/// total count between two arbitrary snapshots.
#[test]
fn link_changes_consistency() {
    Check::new("link_changes_consistency").run(|g| {
        let before = g.vec(3, 30, |g: &mut Gen| {
            (g.f64_range(0.0, 800.0), g.f64_range(0.0, 200.0))
        });
        let jitter = g.vec(3, 30, |g: &mut Gen| {
            (g.f64_range(-300.0, 300.0), g.f64_range(-100.0, 100.0))
        });
        let n = before.len().min(jitter.len());
        let area = Area::new(2_000.0, 600.0);
        let p1: Vec<Vec2> = before[..n].iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let p2: Vec<Vec2> = p1
            .iter()
            .zip(&jitter[..n])
            .map(|(p, &(dx, dy))| area.clamp(Vec2::new(p.x + dx + 300.0, p.y + dy + 100.0)))
            .collect();
        let s1 = Snapshot::from_positions(p1, area, SimTime::ZERO);
        let s2 = Snapshot::from_positions(p2, area, SimTime::from_secs(1));
        let t1 = NeighborTable::build(&s1, 250.0);
        let t2 = NeighborTable::build(&s2, 250.0);
        for i in 0..n {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(t1.link_changes_since(&t1, id), 0);
            // Symmetric difference is direction-independent.
            prop_assert_eq!(t2.link_changes_since(&t1, id), t1.link_changes_since(&t2, id));
        }
        Ok(())
    });
}
