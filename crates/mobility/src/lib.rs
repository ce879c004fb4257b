//! Node mobility for the RandomCast reproduction.
//!
//! The paper evaluates Rcast under the **random waypoint** model
//! (Johnson & Maltz): each node repeatedly picks a uniformly random
//! destination in the field, travels there in a straight line at a
//! uniformly random speed in `(0, v_max]`, pauses for a fixed
//! `T_pause`, and repeats. `T_pause` equal to the simulation length
//! yields the paper's "static" scenario.
//!
//! This crate provides:
//!
//! * [`Vec2`] / [`Area`] — 2-D geometry over the 1500 × 300 m field,
//! * [`RandomWaypoint`] — per-node motion with analytic position
//!   interpolation (no per-tick integration error),
//! * [`MobilityField`] — all-node container producing position
//!   [`Snapshot`]s,
//! * [`SpatialGrid`] — a uniform-grid neighbor index answering
//!   "who is within radio range of node *i*" in O(neighbors),
//! * [`NeighborTable`] / [`NeighborIndex`] — every node's neighbor list
//!   at one instant, built from scratch or maintained in place across
//!   snapshots with skin-radius candidate lists.
//!
//! # Example
//!
//! ```
//! use rcast_engine::{SimTime, rng::StreamRng};
//! use rcast_mobility::{Area, MobilityField, WaypointConfig};
//!
//! let area = Area::new(1500.0, 300.0);
//! let cfg = WaypointConfig { max_speed_mps: 20.0, pause_secs: 600.0, ..WaypointConfig::default() };
//! let mut field = MobilityField::random_waypoint(100, area, cfg, StreamRng::from_seed(1));
//! let snap = field.snapshot(SimTime::from_secs(10));
//! let grid = snap.grid(250.0);
//! let neighbors = grid.neighbors_of(rcast_engine::NodeId::new(0), &snap, 250.0);
//! assert!(neighbors.len() < 100);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod field;
mod geometry;
mod grid;
mod incremental;
mod neighbors;
mod waypoint;

pub use field::{MobilityField, Snapshot};
pub use geometry::{Area, Vec2};
pub use grid::SpatialGrid;
pub use incremental::NeighborIndex;
pub use neighbors::NeighborTable;
pub use waypoint::{MotionState, RandomWaypoint, WaypointConfig};
